//===- ir/Builders.cpp - CNN and matmul problem builders ------------------===//

#include "ir/Builders.h"

#include "support/MathUtil.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>

using namespace thistle;

const char *thistle::paddingName(ConvPadding Padding) {
  switch (Padding) {
  case ConvPadding::Same:
    return "same";
  case ConvPadding::Valid:
    return "valid";
  }
  return "unknown";
}

Expected<ConvPadding> thistle::parsePadding(const std::string &Token) {
  if (Token == "same")
    return ConvPadding::Same;
  if (Token == "valid")
    return ConvPadding::Valid;
  return Status::invalidArgument("unknown padding '" + Token +
                                 "' (want same or valid)");
}

std::string ConvLayer::shapeKey() const {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                ",%" PRId64 ",%" PRId64 ",%d,%s",
                N, K, C, Hin, Win, R, S, StrideX, StrideY, DilationX,
                DilationY, Groups, Transposed ? 1 : 0, paddingName(Padding));
  return Buf;
}

ConvLayer thistle::customConvLayer(const std::vector<std::int64_t> &Dims) {
  assert(Dims.size() >= 6 && Dims.size() <= 8 && "K,C,H,W,R,S[,x[,d]]");
  ConvLayer L;
  L.Name = "custom";
  L.K = Dims[0];
  L.C = Dims[1];
  L.Hin = Dims[2];
  L.Win = Dims[3];
  L.R = Dims[4];
  L.S = Dims[5];
  L.StrideX = L.StrideY = Dims.size() > 6 ? Dims[6] : 1;
  L.DilationX = L.DilationY = Dims.size() > 7 ? Dims[7] : 1;
  return L;
}

Status ConvLayer::validate() const {
  const struct {
    const char *Field;
    std::int64_t Value;
  } Positives[] = {
      {"N", N},           {"K", K},
      {"C", C},           {"Hin", Hin},
      {"Win", Win},       {"R", R},
      {"S", S},           {"StrideX", StrideX},
      {"StrideY", StrideY}, {"DilationX", DilationX},
      {"DilationY", DilationY}, {"Groups", Groups},
  };
  for (const auto &P : Positives)
    if (P.Value <= 0)
      return Status::invalidArgument(
          "layer '" + Name + "': " + P.Field + " = " +
          std::to_string(P.Value) + " must be positive");
  if (K % Groups != 0)
    return Status::invalidArgument("layer '" + Name + "': K = " +
                                   std::to_string(K) +
                                   " not divisible by Groups = " +
                                   std::to_string(Groups));
  if (C % Groups != 0)
    return Status::invalidArgument("layer '" + Name + "': C = " +
                                   std::to_string(C) +
                                   " not divisible by Groups = " +
                                   std::to_string(Groups));
  if (!Transposed && Padding == ConvPadding::Valid) {
    if (Hin < DilationX * (R - 1) + 1)
      return Status::invalidArgument(
          "layer '" + Name + "': valid padding needs Hin >= " +
          std::to_string(DilationX * (R - 1) + 1) +
          " (dilated kernel height), got " + std::to_string(Hin));
    if (Win < DilationY * (S - 1) + 1)
      return Status::invalidArgument(
          "layer '" + Name + "': valid padding needs Win >= " +
          std::to_string(DilationY * (S - 1) + 1) +
          " (dilated kernel width), got " + std::to_string(Win));
  }
  return Status::ok();
}

std::int64_t ConvLayer::outH() const {
  if (Transposed)
    return StrideX * (Hin - 1) + DilationX * (R - 1) + 1;
  if (Padding == ConvPadding::Valid)
    return (Hin - DilationX * (R - 1) - 1) / StrideX + 1;
  return ceilDiv(Hin, StrideX);
}

std::int64_t ConvLayer::outW() const {
  if (Transposed)
    return StrideY * (Win - 1) + DilationY * (S - 1) + 1;
  if (Padding == ConvPadding::Valid)
    return (Win - DilationY * (S - 1) - 1) / StrideY + 1;
  return ceilDiv(Win, StrideY);
}

std::int64_t ConvLayer::numMacs() const {
  const std::int64_t Spatial =
      Transposed ? Hin * Win : outH() * outW();
  return N * K * (C / Groups) * R * S * Spatial;
}

const char *ConvLayer::layerClass() const {
  if (Transposed)
    return "transposed";
  if (Groups > 1)
    return Groups == C ? "depthwise" : "grouped";
  if (DilationX > 1 || DilationY > 1)
    return "dilated";
  return "dense";
}

Problem thistle::makeConvProblem(const ConvLayer &Layer) {
  assert(Layer.validate().isOk() && "makeConvProblem wants a valid layer");
  const bool Grouped = Layer.Groups > 1;
  const std::int64_t Kg = Layer.K / Layer.Groups;
  const std::int64_t Cg = Layer.C / Layer.Groups;
  // Direct convs iterate h/w over the output image (In carries the
  // strided projection); transposed convs iterate over the input image
  // (Out carries it).
  const std::int64_t ExtH = Layer.Transposed ? Layer.Hin : Layer.outH();
  const std::int64_t ExtW = Layer.Transposed ? Layer.Win : Layer.outW();

  std::vector<Iterator> Iters;
  Iters.push_back({"n", Layer.N});
  const unsigned ItN = 0;
  unsigned ItG = 0;
  if (Grouped) {
    ItG = Iters.size();
    Iters.push_back({"g", Layer.Groups});
  }
  const unsigned ItK = Iters.size();
  Iters.push_back({"k", Kg});
  const unsigned ItC = Iters.size();
  Iters.push_back({"c", Cg});
  const unsigned ItR = Iters.size();
  Iters.push_back({"r", Layer.R});
  const unsigned ItS = Iters.size();
  Iters.push_back({"s", Layer.S});
  const unsigned ItH = Iters.size();
  Iters.push_back({"h", ExtH});
  const unsigned ItW = Iters.size();
  Iters.push_back({"w", ExtW});

  // Channel projections: grouped layers address Out/Ker filters as
  // (K/G)*g + k and In channels as (C/G)*g + c.
  DimRef OutChannels, InChannels;
  if (Grouped) {
    OutChannels.Terms = {{ItG, Kg}, {ItK, 1}};
    InChannels.Terms = {{ItG, Cg}, {ItC, 1}};
  } else {
    OutChannels.Terms = {{ItK, 1}};
    InChannels.Terms = {{ItC, 1}};
  }

  // The strided spatial projections x*h + dil_x*r and y*w + dil_y*s.
  DimRef StridedH, StridedW;
  StridedH.Terms = {{ItH, Layer.StrideX}, {ItR, Layer.DilationX}};
  StridedW.Terms = {{ItW, Layer.StrideY}, {ItS, Layer.DilationY}};
  DimRef PointH, PointW;
  PointH.Terms = {{ItH, 1}};
  PointW.Terms = {{ItW, 1}};

  Tensor Out;
  Out.Name = "Out";
  Out.ReadWrite = true;

  Tensor In;
  In.Name = "In";

  if (Layer.Transposed) {
    Out.Dims = {{{{ItN, 1}}}, OutChannels, StridedH, StridedW};
    In.Dims = {{{{ItN, 1}}}, InChannels, PointH, PointW};
  } else {
    Out.Dims = {{{{ItN, 1}}}, OutChannels, PointH, PointW};
    In.Dims = {{{{ItN, 1}}}, InChannels, StridedH, StridedW};
  }

  Tensor Ker;
  Ker.Name = "Ker";
  Ker.Dims = {OutChannels, {{{ItC, 1}}}, {{{ItR, 1}}}, {{{ItS, 1}}}};

  return Problem(Layer.Name, std::move(Iters),
                 {std::move(Out), std::move(In), std::move(Ker)});
}

Problem thistle::makeMatmulProblem(std::int64_t Ni, std::int64_t Nj,
                                   std::int64_t Nk) {
  std::vector<Iterator> Iters = {{"i", Ni}, {"j", Nj}, {"k", Nk}};
  enum : unsigned { ItI, ItJ, ItK };

  Tensor CMat;
  CMat.Name = "C";
  CMat.ReadWrite = true;
  CMat.Dims = {{{{ItI, 1}}}, {{{ItJ, 1}}}};

  Tensor AMat;
  AMat.Name = "A";
  AMat.Dims = {{{{ItI, 1}}}, {{{ItK, 1}}}};

  Tensor BMat;
  BMat.Name = "B";
  BMat.Dims = {{{{ItK, 1}}}, {{{ItJ, 1}}}};

  return Problem("matmul", std::move(Iters),
                 {std::move(CMat), std::move(AMat), std::move(BMat)});
}
