//===- tests/RoundingTest.cpp - Integerization stage tests ----------------===//

#include "ir/Builders.h"
#include "multilevel/MultiSim.h"
#include "thistle/GpBuilder.h"
#include "thistle/Network.h"
#include "thistle/PermutationSpace.h"
#include "thistle/Rounding.h"
#include "support/MathUtil.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

using namespace thistle;

namespace {

struct RoundingFixture : public ::testing::Test {
  Problem Prob = [] {
    ConvLayer L;
    L.K = 32;
    L.C = 16;
    L.Hin = 28;
    L.Win = 28;
    L.R = 3;
    L.S = 3;
    return makeConvProblem(L);
  }();

  GpBuildSpec Spec = [this] {
    GpBuildSpec S;
    S.TiledIters = {Prob.iteratorIndex("k"), Prob.iteratorIndex("c"),
                    Prob.iteratorIndex("h"), Prob.iteratorIndex("w")};
    S.PePerm = S.TiledIters;
    S.DramPerm = S.TiledIters;
    S.Arch = eyerissArch();
    S.AreaBudgetUm2 = eyerissAreaUm2(S.Tech);
    return S;
  }();

  RealSolution solveReal(DesignMode Mode, SearchObjective Obj) {
    Spec.Mode = Mode;
    Spec.Objective = Obj;
    GpBuild B = buildGp(Prob, Spec);
    GpSolution S = solveGp(B.Gp);
    EXPECT_TRUE(S.Feasible);
    return extractSolution(Prob, B, Spec, S);
  }
};

} // namespace

TEST_F(RoundingFixture, ProducesLegalValidatedDesign) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundingOptions Opts;
  RoundedDesign D = roundSolution(Prob, Spec, Real, Opts);
  ASSERT_TRUE(D.Found);
  EXPECT_TRUE(D.Eval.Legal);
  EXPECT_TRUE(D.Map.validate(Prob).empty());
  EXPECT_GT(D.CandidatesTried, 0u);
}

TEST_F(RoundingFixture, RespectsCandidateCap) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundingOptions Opts;
  Opts.MaxMappingCandidates = 50;
  RoundedDesign D = roundSolution(Prob, Spec, Real, Opts);
  EXPECT_LE(D.CandidatesTried, 50u);
  // The closeness-first ordering should still find something legal.
  EXPECT_TRUE(D.Found);
}

TEST_F(RoundingFixture, CoDesignArchIsPowerOfTwoAndWithinArea) {
  RealSolution Real = solveReal(DesignMode::CoDesign,
                                SearchObjective::Energy);
  RoundingOptions Opts;
  RoundedDesign D = roundSolution(Prob, Spec, Real, Opts);
  ASSERT_TRUE(D.Found);
  EXPECT_TRUE(isPowerOfTwo(D.Arch.RegWordsPerPE));
  EXPECT_TRUE(isPowerOfTwo(D.Arch.SramWords));
  EXPECT_LE(D.Arch.areaUm2(Spec.Tech), Spec.AreaBudgetUm2 * 1.0000001);
  // The rounded PE count brackets the real solution.
  EXPECT_GE(D.Arch.NumPEs + 1, static_cast<std::int64_t>(Real.NumPEs));
}

TEST_F(RoundingFixture, TileSizesDivideHierarchically) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundedDesign D = roundSolution(Prob, Spec, Real, RoundingOptions());
  ASSERT_TRUE(D.Found);
  std::vector<std::int64_t> Sram = D.Map.sramTileExtents();
  std::vector<std::int64_t> Pe = D.Map.peTileExtents();
  std::vector<std::int64_t> Reg = D.Map.registerTileExtents();
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    EXPECT_EQ(Prob.iterators()[I].Extent % Sram[I], 0);
    EXPECT_EQ(Sram[I] % Pe[I], 0);
    EXPECT_EQ(Pe[I] % Reg[I], 0);
  }
}

TEST_F(RoundingFixture, UtilizationThresholdFilters) {
  RealSolution Real = solveReal(DesignMode::DataflowOnly,
                                SearchObjective::Delay);
  RoundingOptions Strict;
  Strict.UtilizationThreshold = 0.5; // At least half the 168 PEs.
  RoundedDesign D = roundSolution(Prob, Spec, Real, Strict);
  if (D.Found) {
    EXPECT_GE(static_cast<double>(D.Eval.Profile.PEsUsed),
              0.5 * static_cast<double>(Spec.Arch.NumPEs));
  }
}

TEST_F(RoundingFixture, DeterministicAcrossRuns) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundedDesign A = roundSolution(Prob, Spec, Real, RoundingOptions());
  RoundedDesign B = roundSolution(Prob, Spec, Real, RoundingOptions());
  ASSERT_TRUE(A.Found);
  ASSERT_TRUE(B.Found);
  EXPECT_DOUBLE_EQ(A.Eval.EnergyPj, B.Eval.EnergyPj);
  EXPECT_EQ(A.CandidatesTried, B.CandidatesTried);
}

TEST_F(RoundingFixture, WiderWindowNeverLosesUnderSameCap) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundingOptions N1;
  N1.NumCandidates = 1;
  N1.MaxMappingCandidates = 1000000; // Uncapped for this comparison.
  RoundingOptions N2 = N1;
  N2.NumCandidates = 2;
  RoundedDesign D1 = roundSolution(Prob, Spec, Real, N1);
  RoundedDesign D2 = roundSolution(Prob, Spec, Real, N2);
  // n=1 may fail outright (its single rounded point can violate a
  // capacity); n=2 explores a strict superset and must succeed here and
  // never lose when both succeed.
  ASSERT_TRUE(D2.Found);
  if (D1.Found) {
    EXPECT_LE(D2.Eval.EnergyPj, D1.Eval.EnergyPj);
  }
}

namespace {

/// A random complete tiling of \p P: each extent split over the four tile
/// levels by hierarchical divisor sampling, random DRAM and PE orders.
Mapping randomMapping(const Problem &P, Rng &R) {
  const unsigned NumIters = P.numIterators();
  Mapping Map;
  Map.Factors.resize(NumIters);
  for (unsigned I = 0; I < NumIters; ++I) {
    std::int64_t Rest = P.iterators()[I].Extent;
    for (TileLevel Level : {TileLevel::Register, TileLevel::PeTemporal,
                            TileLevel::Spatial}) {
      Map.factor(I, Level) = R.pick(divisorsOf(Rest));
      Rest /= Map.factor(I, Level);
    }
    Map.factor(I, TileLevel::DramTemporal) = Rest;
  }
  for (unsigned I = 0; I < NumIters; ++I) {
    Map.DramPerm.push_back(I);
    Map.PePerm.push_back(I);
  }
  R.shuffle(Map.DramPerm);
  R.shuffle(Map.PePerm);
  return Map;
}

ConvLayer convLayer(std::int64_t K, std::int64_t C, std::int64_t HW,
                    std::int64_t RS, std::int64_t Stride,
                    std::int64_t Dilation, std::int64_t Groups,
                    bool Transposed) {
  ConvLayer L;
  L.Name = "conv";
  L.K = K;
  L.C = C;
  L.Hin = HW;
  L.Win = HW;
  L.R = RS;
  L.S = RS;
  L.StrideX = L.StrideY = Stride;
  L.DilationX = L.DilationY = Dilation;
  L.Groups = Groups;
  L.Transposed = Transposed;
  EXPECT_TRUE(L.validate().isOk()) << L.validate().toString();
  return L;
}

/// Folds \p Bytes into the FNV-1a-64 hash \p H.
void fnv1a(std::uint64_t &H, std::string_view Bytes) {
  for (unsigned char B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
}

std::string hexDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

} // namespace

TEST(RoundingSkip, FootprintsAndDramFloorAgreeWithTheCostModel) {
  // Rounding skips a candidate unpriced when its footprints do not fit
  // or the objective its DRAM traffic forces reaches the incumbent's.
  // Over random mappings of every conv class, on Eyeriss and on
  // co-design candidates with small register files: footprint fit is
  // the cost model's legality, the outer-boundary words are the model's
  // (and, on shapes small enough to simulate, the simulator's) DRAM
  // count, and the floor is the model's own pricing of that traffic
  // alone, hence never above the priced objective.
  const TechParams Tech = TechParams::cgo45nm();
  const EnergyModel Energy(Tech);
  std::vector<ArchConfig> Archs = {eyerissArch()};
  for (auto [PEs, Regs, Sram] :
       {std::tuple<std::int64_t, std::int64_t, std::int64_t>{1515, 8, 16384},
        {1644, 4, 16384},
        {256, 16, 4096}}) {
    ArchConfig A = eyerissArch();
    A.NumPEs = PEs;
    A.RegWordsPerPE = Regs;
    A.SramWords = Sram;
    Archs.push_back(A);
  }
  // {layer, simulate}: one small shape of each class for the simulator,
  // then full-size layers of every class the network tables hold.
  std::vector<std::pair<ConvLayer, bool>> Layers = {
      {convLayer(8, 4, 8, 3, 1, 1, 1, false), true}, // dense
      {convLayer(4, 4, 8, 1, 2, 1, 1, false), true}, // strided 1x1
      {convLayer(4, 4, 9, 3, 2, 1, 1, false), true}, // strided 3x3
      {convLayer(4, 4, 8, 3, 1, 2, 1, false), true}, // dilated
      {convLayer(4, 4, 4, 4, 2, 1, 1, true), true},  // transposed
      {convLayer(8, 8, 6, 3, 1, 1, 4, false), true}, // grouped
      {convLayer(8, 8, 6, 3, 1, 1, 8, false), true}, // depthwise
      {resnet18Layers()[1], false},                  // dense
      {resnet18Layers()[4], false},                  // strided 1x1
      {resnet18Layers()[6], false},                  // strided 3x3
      {mobilenetV2Layers()[4], false},               // depthwise, strided
      {dcganLayers()[2], false},                     // transposed
      {dcganLayers()[4], false},                     // dilated
  };
  Rng R(2022);
  unsigned Legal = 0, Illegal = 0, TightDelay = 0, Checked = 0;
  for (const auto &[Layer, Simulate] : Layers) {
    const Problem P = makeConvProblem(Layer);
    SCOPED_TRACE(std::string(Layer.layerClass()) + " K" +
                 std::to_string(Layer.K) + " C" + std::to_string(Layer.C) +
                 " H" + std::to_string(Layer.Hin));
    for (int Trial = 0; Trial < 40; ++Trial) {
      const Mapping Map = randomMapping(P, R);
      ASSERT_TRUE(Map.validate(P).empty());
      const std::int64_t RegWords =
          tileFootprint(P, Map.registerTileExtents());
      const std::int64_t SramWords = tileFootprint(P, Map.sramTileExtents());
      const MultiMapping MM = MultiMapping::fromMapping(P, Map);
      const Hierarchy Shape = Hierarchy::classic3Shape();
      const std::int64_t DramWords =
          outerBoundaryWords(P, Shape, MM, MM.tileExtents(Shape, 1));
      if (Simulate && Trial < 8) {
        const MultiProfile Sim =
            simulateMultiNestProfile(P, Hierarchy::classic3Shape(), MM);
        EXPECT_EQ(DramWords, Sim.boundaryWords(1));
      }
      for (const ArchConfig &Arch : Archs) {
        const EvalResult Eval = evaluateMapping(P, Map, Arch, Energy);
        if (Map.numPEsUsed() <= Arch.NumPEs) {
          EXPECT_EQ(RegWords <= Arch.RegWordsPerPE &&
                        SramWords <= Arch.SramWords,
                    Eval.Legal)
              << Eval.IllegalReason;
          ++(Eval.Legal ? Legal : Illegal);
        }
        const Hierarchy H = Hierarchy::classic3Level(Arch, Tech);
        MultiProfile Profile = analyzeMultiNest(P, H, MM);
        EXPECT_EQ(DramWords, Profile.boundaryWords(1));
        const MultiEvalResult Floor =
            outerTrafficFloor(P, H, Map.numPEsUsed(), DramWords);
        for (SearchObjective Objective :
             {SearchObjective::Energy, SearchObjective::Delay,
              SearchObjective::EnergyDelayProduct})
          EXPECT_LE(objectiveValue(Floor, Objective),
                    objectiveValue(Eval, Objective));
        TightDelay += Floor.Cycles == Eval.Cycles;
        // Exactly the model's pricing with the inner traffic removed.
        for (std::int64_t &W : Profile.Words[0])
          W = 0;
        const MultiEvalResult Inner = priceMultiProfile(P, H, Profile);
        EXPECT_EQ(Floor.EnergyPj, Inner.EnergyPj);
        EXPECT_EQ(Floor.Cycles, Inner.Cycles);
        EXPECT_EQ(Floor.EdpPjCycles, Inner.EdpPjCycles);
        ++Checked;
      }
    }
  }
  EXPECT_EQ(Checked, 13u * 40u * 4u);
  // Both sides of the legality check, and the delay floor binding.
  EXPECT_GT(Legal, 0u);
  EXPECT_GT(Illegal, 0u);
  EXPECT_GT(TightDelay, 0u);
}

TEST(RoundingSkip, NetworkWinnersArePinned) {
  // Skipping candidates must leave every winner where it was. This
  // hashes each layer winner (architecture, mapping, exact energy and
  // cycles, sweep outcome counts) of the four network tables in dataflow
  // mode under all three objectives, and of the co-design slice of
  // ResNet-18 stages 5 and 12. The constant was recorded before any
  // candidate was skipped.
  const TechParams Tech = TechParams::cgo45nm();
  std::uint64_t Hash = 0xcbf29ce484222325ull;
  std::size_t Layers = 0;
  auto fold = [&](const std::vector<ConvLayer> &Network, DesignMode Mode,
                  SearchObjective Objective, double Area) {
    NetworkOptions NO;
    NO.Layer.Mode = Mode;
    NO.Layer.Objective = Objective;
    NO.Layer.Threads = 4;
    const NetworkResult R =
        optimizeNetwork(Network, eyerissArch(), Tech, NO, Area);
    ASSERT_TRUE(R.InputStatus.isOk());
    ASSERT_EQ(R.Layers.size(), Network.size());
    for (std::size_t I = 0; I < Network.size(); ++I) {
      const ThistleResult &T = R.Layers[I].Result;
      ASSERT_TRUE(T.Found) << Network[I].Name;
      const SweepReport &Rep = T.Report;
      fnv1a(Hash, Network[I].Name + "|" + std::to_string(T.Arch.NumPEs) +
                      "," + std::to_string(T.Arch.RegWordsPerPE) + "," +
                      std::to_string(T.Arch.SramWords) + "|" +
                      T.Map.toString(makeConvProblem(Network[I])) + "|" +
                      hexDouble(T.Eval.EnergyPj) + "," +
                      hexDouble(T.Eval.Cycles) + "|" +
                      std::to_string(Rep.Solved) + "," +
                      std::to_string(Rep.Retried) + "," +
                      std::to_string(Rep.Degraded) + "," +
                      std::to_string(Rep.Infeasible) + "," +
                      std::to_string(Rep.Failed) + "," +
                      std::to_string(Rep.Skipped) + "\n");
      ++Layers;
    }
  };
  for (const std::vector<ConvLayer> &Network :
       {resnet18NetworkLayers(), yolo9000NetworkLayers(),
        mobilenetV2NetworkLayers(), dcganNetworkLayers()})
    for (SearchObjective Objective :
         {SearchObjective::Energy, SearchObjective::Delay,
          SearchObjective::EnergyDelayProduct})
      fold(Network, DesignMode::DataflowOnly, Objective, 0.0);
  const std::vector<ConvLayer> Stages = resnet18Layers();
  fold({Stages[4], Stages[11]}, DesignMode::CoDesign, SearchObjective::Energy,
       eyerissAreaUm2(Tech));
  EXPECT_EQ(Layers, 296u);
  EXPECT_EQ(Hash, 0x68828c6d92a80fe8ull);
}
