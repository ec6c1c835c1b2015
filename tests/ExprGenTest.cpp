//===- tests/ExprGenTest.cpp - Algorithm 1 tests --------------------------===//
//
// Validates the symbolic DF/DV generator against the paper's worked
// examples: the Table I step-by-step trace, the matmul closed forms of
// Eq. 1 / Eq. 2, and numerically against the analytical nest model on
// hierarchies of every depth.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "multilevel/MultiNestAnalysis.h"
#include "support/MathUtil.h"
#include "support/Rng.h"
#include "thistle/ExprGen.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace thistle;

namespace {

/// Random positive assignment for every interned variable.
Assignment randomAssignment(const VarTable &Vars, Rng &R) {
  Assignment A(Vars.size());
  for (double &V : A)
    V = 1.0 + 3.0 * R.nextDouble();
  return A;
}

} // namespace

TEST(ExprGen, VarNamesFollowPaperNotation) {
  // Names per tile loop, interned block by block in loop order, outer to
  // inner: s, p, q, r on the classic machine; a scratchpad level below
  // the fan-out adds q2 between p and q.
  Problem P = makeMatmulProblem(4, 4, 4);
  const unsigned I = P.iteratorIndex("i");
  const unsigned N = P.numIterators();
  VarTable Vars;
  ExprGen EG(P, Hierarchy::classic3Shape(), Vars);
  EXPECT_EQ(Vars.nameOf(EG.tripVar(0, I)), "r_i");
  EXPECT_EQ(Vars.nameOf(EG.tripVar(1, I)), "q_i");
  EXPECT_EQ(Vars.nameOf(EG.spatialVar(I)), "p_i");
  EXPECT_EQ(Vars.nameOf(EG.tripVar(2, I)), "s_i");
  EXPECT_EQ(EG.tripVar(2, I), I);
  EXPECT_EQ(EG.spatialVar(I), N + I);
  EXPECT_EQ(EG.tripVar(1, I), 2 * N + I);
  EXPECT_EQ(EG.tripVar(0, I), 3 * N + I);

  Hierarchy Spad = Hierarchy::withScratchpad(
      eyerissArch(), TechParams::cgo45nm(), /*SpadWords=*/64,
      /*SramWords=*/1024);
  VarTable Deep;
  ExprGen DG(P, Spad, Deep);
  const std::vector<VarId> Loops = {DG.tripVar(3, I), DG.spatialVar(I),
                                    DG.tripVar(2, I), DG.tripVar(1, I),
                                    DG.tripVar(0, I)};
  const std::vector<std::string> Names = {"s_i", "p_i", "q2_i", "q_i",
                                          "r_i"};
  for (unsigned K = 0; K < Loops.size(); ++K) {
    EXPECT_EQ(Loops[K], K * N + I);
    EXPECT_EQ(Deep.nameOf(Loops[K]), Names[K]);
  }
}

TEST(ExprGen, RegisterFootprintsSectionIIIA) {
  // In[n][c][h+r][2w+s]: DF0 = r_n r_c (r_h + r_r - 1)(2 r_w + r_s - 2).
  ConvLayer L;
  L.K = 4;
  L.C = 4;
  L.Hin = 8;
  L.Win = 8;
  L.R = 3;
  L.S = 3;
  L.StrideX = 1;
  L.StrideY = 2;
  Problem P = makeConvProblem(L);
  VarTable Vars;
  ExprGen EG(P, Hierarchy::classic3Shape(), Vars);

  FactoredExpr DfIn = EG.registerFootprint(1);
  // Two halo factors (the n and c extents are single monomials folded
  // into the prefix).
  EXPECT_EQ(DfIn.factors().size(), 2u);

  // Numeric check against the closed form.
  Rng R(1);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    auto V = [&](const char *Name) { return A[Vars.lookup(Name)]; };
    double Expected = V("r_n") * V("r_c") * (V("r_h") + V("r_r") - 1.0) *
                      (2.0 * V("r_w") + V("r_s") - 2.0);
    EXPECT_NEAR(DfIn.evaluate(A), Expected, 1e-9 * Expected);
  }

  // Ker[k][c][r][s]: DF0 = r_k r_c r_r r_s.
  FactoredExpr DfKer = EG.registerFootprint(2);
  EXPECT_TRUE(DfKer.factors().empty());
  Assignment A = randomAssignment(Vars, R);
  auto V = [&](const char *Name) { return A[Vars.lookup(Name)]; };
  EXPECT_NEAR(DfKer.evaluate(A), V("r_k") * V("r_c") * V("r_r") * V("r_s"),
              1e-9);
  // Out[n][k][h][w].
  EXPECT_NEAR(EG.registerFootprint(0).evaluate(A),
              V("r_n") * V("r_k") * V("r_h") * V("r_w"), 1e-9);
}

TEST(ExprGen, TableITraceForInAndOut) {
  // Paper Table I: level-1 permutation <w, n, k, h, c, s, r>, strides
  // (1, 2). Checks the final DV^1 and two intermediate steps.
  ConvLayer L;
  L.K = 4;
  L.C = 4;
  L.Hin = 8;
  L.Win = 8;
  L.R = 3;
  L.S = 3;
  L.StrideX = 1;
  L.StrideY = 2;
  Problem P = makeConvProblem(L);
  VarTable Vars;
  ExprGen EG(P, Hierarchy::classic3Shape(), Vars);

  std::vector<unsigned> Perm = {
      P.iteratorIndex("w"), P.iteratorIndex("n"), P.iteratorIndex("k"),
      P.iteratorIndex("h"), P.iteratorIndex("c"), P.iteratorIndex("s"),
      P.iteratorIndex("r")};

  std::vector<std::string> InTrace, OutTrace;
  LevelExprs In = EG.constructExpr(
      1, Perm, /*Level=*/1, EG.registerFootprint(1),
      [&](unsigned, const LevelExprs &State) {
        InTrace.push_back(State.DV.toString(Vars));
      });
  LevelExprs Out = EG.constructExpr(
      0, Perm, /*Level=*/1, EG.registerFootprint(0),
      [&](unsigned, const LevelExprs &State) {
        OutTrace.push_back(State.DV.toString(Vars));
      });
  ASSERT_EQ(InTrace.size(), 7u);
  ASSERT_EQ(OutTrace.size(), 7u);

  Rng R(2);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    auto V = [&](const char *Name) { return A[Vars.lookup(Name)]; };
    double Halo =
        V("r_n") * V("r_c") * (V("r_h") + V("q_r") * V("r_r") - 1.0) *
        (2.0 * V("r_w") + V("r_s") - 2.0);
    // Table I row 7 (final): DV_In = q_w q_n q_k q_h q_c q_s * halo.
    double ExpectedIn = V("q_w") * V("q_n") * V("q_k") * V("q_h") *
                        V("q_c") * V("q_s") * Halo;
    EXPECT_NEAR(In.DV.evaluate(A), ExpectedIn, 1e-9 * ExpectedIn);
    // Table I row 7: DV_Out = 2 q_w q_n q_k (r_n r_k q_h r_h r_w).
    double ExpectedOut = 2.0 * V("q_w") * V("q_n") * V("q_k") * V("r_n") *
                         V("r_k") * V("q_h") * V("r_h") * V("r_w");
    EXPECT_NEAR(Out.DV.evaluate(A), ExpectedOut, 1e-9 * ExpectedOut);

    // Step 1 (innermost r processed): In replaced r_r -> q_r r_r; Out is
    // hoisted and unchanged except the read+write factor 2.
    // (Traces are strings; re-check numerically on the final exprs only.)
  }

  // Structural checks on the trace: Out's DV gains its first q factor at
  // step 4 (the h loop), as in Table I.
  EXPECT_EQ(OutTrace[0], OutTrace[1]);
  EXPECT_EQ(OutTrace[1], OutTrace[2]);
  EXPECT_NE(OutTrace[2], OutTrace[3]);
  // The factor 2 for read-write is present from the start.
  EXPECT_EQ(OutTrace[0].substr(0, 1), "2");
}

TEST(ExprGen, MatmulEq1DramVolumes) {
  // Fig. 1 tiling, DRAM-level permutation <i, k, j>:
  //   DVol_A = Ni*Nk, DVol_B = Ni*Nj*Nk/Si, DVol_C = 2*Ni*Nj*Nk/Sk
  // (the factor 2 for C covers both directions).
  Problem P = makeMatmulProblem(64, 64, 64);
  VarTable Vars;
  ExprGen EG(P, Hierarchy::classic3Shape(), Vars);
  unsigned Ii = P.iteratorIndex("i"), Ij = P.iteratorIndex("j"),
           Ik = P.iteratorIndex("k");
  std::vector<unsigned> DramPerm = {Ii, Ik, Ij};
  std::vector<unsigned> PePerm = {Ii, Ij, Ik};

  Rng R(3);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    auto V = [&](const char *Name) { return A[Vars.lookup(Name)]; };
    auto N = [&](const char *D) {
      std::string Dim(D);
      return A[Vars.lookup("s_" + Dim)] * A[Vars.lookup("p_" + Dim)] *
             A[Vars.lookup("q_" + Dim)] * A[Vars.lookup("r_" + Dim)];
    };
    auto SramTile = [&](const char *D) {
      std::string Dim(D);
      return A[Vars.lookup("p_" + Dim)] * A[Vars.lookup("q_" + Dim)] *
             A[Vars.lookup("r_" + Dim)];
    };
    (void)V;

    TensorSymbolicModel C = EG.buildTensorModel(0, {{}, PePerm, DramPerm});
    TensorSymbolicModel MA = EG.buildTensorModel(1, {{}, PePerm, DramPerm});
    TensorSymbolicModel MB = EG.buildTensorModel(2, {{}, PePerm, DramPerm});

    double Ni = N("i"), Nj = N("j"), Nk = N("k");
    EXPECT_NEAR(MA.Volume[1].evaluate(A), Ni * Nk, 1e-9 * Ni * Nk);
    EXPECT_NEAR(MB.Volume[1].evaluate(A), Ni * Nj * Nk / SramTile("i"),
                1e-6 * MB.Volume[1].evaluate(A));
    EXPECT_NEAR(C.Volume[1].evaluate(A), 2.0 * Ni * Nj * Nk / SramTile("k"),
                1e-6 * C.Volume[1].evaluate(A));

    // SRAM footprints: A is Si*Sk etc.
    EXPECT_NEAR(MA.Footprint[1].evaluate(A), SramTile("i") * SramTile("k"),
                1e-9 * MA.Footprint[1].evaluate(A));
  }
}

TEST(ExprGen, MatmulEq2RegisterVolumes) {
  // PE-level permutation <i, j, k> (paper's register-level ijk):
  //   DVol_A(S->R) = NiNjNk / (Rj*Pj), DVol_B = NiNjNk / (Ri*Pi),
  //   DVol_C = 2*NiNjNk / Sk.
  Problem P = makeMatmulProblem(64, 64, 64);
  VarTable Vars;
  ExprGen EG(P, Hierarchy::classic3Shape(), Vars);
  unsigned Ii = P.iteratorIndex("i"), Ij = P.iteratorIndex("j"),
           Ik = P.iteratorIndex("k");
  std::vector<unsigned> DramPerm = {Ii, Ik, Ij};
  std::vector<unsigned> PePerm = {Ii, Ij, Ik};

  Rng R(4);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    auto Get = [&](const std::string &Name) { return A[Vars.lookup(Name)]; };
    auto N = [&](const char *D) {
      std::string Dim(D);
      return Get("s_" + Dim) * Get("p_" + Dim) * Get("q_" + Dim) *
             Get("r_" + Dim);
    };
    double Ni = N("i"), Nj = N("j"), Nk = N("k");
    double Vol = Ni * Nj * Nk;

    TensorSymbolicModel C = EG.buildTensorModel(0, {{}, PePerm, DramPerm});
    TensorSymbolicModel MA = EG.buildTensorModel(1, {{}, PePerm, DramPerm});
    TensorSymbolicModel MB = EG.buildTensorModel(2, {{}, PePerm, DramPerm});

    EXPECT_NEAR(MA.Volume[0].evaluate(A), Vol / (Get("r_j") * Get("p_j")),
                1e-6 * MA.Volume[0].evaluate(A));
    EXPECT_NEAR(MB.Volume[0].evaluate(A), Vol / (Get("r_i") * Get("p_i")),
                1e-6 * MB.Volume[0].evaluate(A));
    double Sk = Get("p_k") * Get("q_k") * Get("r_k");
    EXPECT_NEAR(C.Volume[0].evaluate(A), 2.0 * Vol / Sk,
                1e-6 * C.Volume[0].evaluate(A));
  }
}

namespace {

/// Prime factors of \p N, counted with multiplicity.
unsigned primeFactorCount(std::int64_t N) {
  unsigned Count = 0;
  for (std::int64_t D = 2; D * D <= N; ++D)
    for (; N % D == 0; N /= D)
      ++Count;
  return Count + (N > 1);
}

/// A hierarchy shape of \p NumLevels levels with the fan-out at \p Fanout.
Hierarchy hierarchyShape(unsigned NumLevels, unsigned Fanout) {
  Hierarchy H;
  H.FanoutLevel = Fanout;
  H.NumPEs = 1 << 20;
  for (unsigned L = 0; L < NumLevels; ++L)
    H.Levels.push_back({std::string(1, static_cast<char>('A' + L)), 1, 1.0,
                        1.0});
  return H;
}

/// A random integer mapping of \p P onto \p H with random per-level
/// orders of the \p Tiled iterators (returned in \p TiledPerms). With
/// \p Walked, every tiled iterator runs at least two trips at every level
/// above the registers, so no trip-1 loop moves a hoist point; the rest
/// of each extent, and every untiled one, splits at random between the
/// register tile and the fan-out.
MultiMapping randomMapping(const Problem &P, const Hierarchy &H,
                           const std::vector<unsigned> &Tiled, bool Walked,
                           std::vector<std::vector<unsigned>> &TiledPerms,
                           Rng &R) {
  const unsigned L = H.numLevels();
  const unsigned NumIters = P.numIterators();
  MultiMapping M = MultiMapping::untiled(P, L);
  for (unsigned I = 0; I < NumIters; ++I) {
    std::int64_t Rest = P.iterators()[I].Extent;
    if (std::find(Tiled.begin(), Tiled.end(), I) != Tiled.end())
      for (unsigned Lv = L - 1; Lv >= 1; --Lv) {
        std::vector<std::int64_t> Trips;
        for (std::int64_t D : divisorsOf(Rest))
          if (!Walked || (D >= 2 && primeFactorCount(Rest / D) >= Lv - 1))
            Trips.push_back(D);
        M.TempFactors[Lv][I] = R.pick(Trips);
        Rest /= M.TempFactors[Lv][I];
      }
    M.SpatialFactors[I] = R.pick(divisorsOf(Rest));
    M.TempFactors[0][I] = Rest / M.SpatialFactors[I];
  }
  TiledPerms.assign(L, {});
  for (unsigned Lv = 1; Lv < L; ++Lv) {
    TiledPerms[Lv] = Tiled;
    R.shuffle(TiledPerms[Lv]);
    M.Perms[Lv] = TiledPerms[Lv];
    for (unsigned I = 0; I < NumIters; ++I)
      if (std::find(Tiled.begin(), Tiled.end(), I) == Tiled.end())
        M.Perms[Lv].push_back(I);
  }
  return M;
}

ConvLayer depthTestLayer(std::int64_t RS, std::int64_t Stride) {
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 16 * Stride;
  L.Win = 16 * Stride;
  L.R = RS;
  L.S = RS;
  L.StrideX = L.StrideY = Stride;
  return L;
}

} // namespace

TEST(ExprGen, SymbolicMatchesNestModelOnConcreteMapping) {
  // Algorithm 1 on hierarchies of every depth, evaluated at random
  // integer mappings' trip counts: each level's footprint is the nest
  // model's occupancy, and each boundary's volume is its word count —
  // exactly when every tiled loop runs at least two trips (the symbolic
  // model is permutation-driven, the concrete one sees through trip-1
  // loops) and strides leave no holes between consecutive tiles, an
  // upper bound otherwise. Spatial factors, stencil dims unrolled across
  // PEs included, are random, so the fan-out's placement directly above
  // level F's loops is checked at every boundary it touches.
  struct Case {
    std::string Name;
    Problem Prob;
    std::vector<std::string> Tiled;
    /// Strided: a stencil tile narrower than the stride leaves gaps.
    bool Holes;
  };
  std::vector<Case> Cases = {
      {"matmul", makeMatmulProblem(16, 16, 16), {"i", "j", "k"}, false},
      {"conv1x1", makeConvProblem(depthTestLayer(1, 1)),
       {"k", "c", "h", "w"}, false},
      {"conv3x3", makeConvProblem(depthTestLayer(3, 1)),
       {"k", "c", "h", "w"}, false},
      {"conv3x3/2", makeConvProblem(depthTestLayer(3, 2)),
       {"k", "c", "h", "w"}, true},
      {"conv1x1/2", makeConvProblem(depthTestLayer(1, 2)),
       {"k", "c", "h", "w"}, true},
  };
  const std::vector<std::pair<std::string, Hierarchy>> Machines = {
      {"classic3", hierarchyShape(3, 1)},
      {"spad4", hierarchyShape(4, 2)},
      {"two-level", hierarchyShape(2, 1)},
      {"fan-out at top", hierarchyShape(3, 2)},
  };
  Rng R(2022);
  unsigned Exact = 0, Bounded = 0;
  for (const auto &[MachineName, H] : Machines) {
    for (const Case &C : Cases) {
      SCOPED_TRACE(MachineName + " / " + C.Name);
      const Problem &P = C.Prob;
      std::vector<unsigned> Tiled;
      for (const std::string &Name : C.Tiled)
        Tiled.push_back(P.iteratorIndex(Name));
      VarTable Vars;
      ExprGen EG(P, H, Vars);
      for (int Trial = 0; Trial < 24; ++Trial) {
        // Every other trial lets trips be 1: an upper bound only.
        const bool Walked = Trial % 2 == 0;
        std::vector<std::vector<unsigned>> TiledPerms;
        MultiMapping M = randomMapping(P, H, Tiled, Walked, TiledPerms, R);
        ASSERT_TRUE(M.validate(P, H).empty()) << M.validate(P, H);
        Assignment A(Vars.size(), 1.0);
        for (unsigned I = 0; I < P.numIterators(); ++I) {
          for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv)
            A[EG.tripVar(Lv, I)] = static_cast<double>(M.TempFactors[Lv][I]);
          A[EG.spatialVar(I)] = static_cast<double>(M.SpatialFactors[I]);
        }
        const MultiProfile Prof = analyzeMultiNest(P, H, M);
        std::vector<double> Occupancy(H.numLevels(), 0.0);
        for (unsigned TI = 0; TI < P.tensors().size(); ++TI) {
          TensorSymbolicModel Model = EG.buildTensorModel(TI, TiledPerms);
          for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv)
            Occupancy[Lv] += Model.Footprint[Lv].evaluate(A);
          for (unsigned B = 0; B < H.numBoundaries(); ++B) {
            const double Words = static_cast<double>(Prof.Words[B][TI]);
            const double Symbolic = Model.Volume[B].evaluate(A);
            if (Walked && !C.Holes) {
              EXPECT_EQ(Symbolic, Words)
                  << P.tensors()[TI].Name << " boundary " << B;
              ++Exact;
            } else {
              EXPECT_GE(Symbolic, Words)
                  << P.tensors()[TI].Name << " boundary " << B;
              ++Bounded;
            }
          }
        }
        for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv)
          EXPECT_EQ(Occupancy[Lv], static_cast<double>(Prof.Occupancy[Lv]))
              << "level " << Lv;
      }
    }
  }
  EXPECT_GT(Exact, 0u);
  EXPECT_GT(Bounded, 0u);
}

TEST(ExprGen, UpperBoundDominatesExactFootprint) {
  ConvLayer L;
  L.K = 8;
  L.C = 8;
  L.Hin = 16;
  L.Win = 16;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  VarTable Vars;
  ExprGen EG(P, Hierarchy::classic3Shape(), Vars);
  Rng R(5);
  for (int Trial = 0; Trial < 30; ++Trial) {
    Assignment A = randomAssignment(Vars, R);
    FactoredExpr DF = EG.registerFootprint(1);
    EXPECT_GE(DF.posynomialUpperBound().evaluate(A), DF.evaluate(A));
  }
}
