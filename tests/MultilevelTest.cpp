//===- tests/MultilevelTest.cpp - Arbitrary-depth hierarchy tests ---------===//
//
// Validates the multilevel generalization three ways: against its own
// brute-force oracle on random mappings and hierarchies, against the
// fixed 4-level pipeline on the classic machine (they must agree
// exactly), and end-to-end through optimizeLayer on a hierarchy.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "multilevel/MultiSim.h"
#include "nestmodel/Evaluator.h"
#include "nestmodel/Mapper.h"
#include "support/MathUtil.h"
#include "support/Rng.h"
#include "thistle/GpCache.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace thistle;

namespace {

Problem smallConvProblem() {
  ConvLayer L;
  L.K = 4;
  L.C = 4;
  L.Hin = 6;
  L.Win = 6;
  L.R = 3;
  L.S = 3;
  return makeConvProblem(L);
}

/// A small L-level hierarchy with generous capacities (tests that need
/// legality filtering set their own).
Hierarchy testHierarchy(unsigned NumLevels, unsigned FanoutLevel) {
  Hierarchy H;
  H.NumPEs = 64;
  H.MacEnergyPj = 2.2;
  for (unsigned L = 0; L < NumLevels; ++L) {
    std::string Name = "L";
    Name += std::to_string(L);
    H.Levels.push_back({Name, 1 << 20, 0.5 * (L + 1), 16.0});
  }
  H.FanoutLevel = FanoutLevel;
  return H;
}

/// Random valid MultiMapping by hierarchical divisor sampling.
MultiMapping randomMultiMapping(const Problem &P, unsigned NumLevels,
                                Rng &R) {
  const unsigned NumIters = P.numIterators();
  MultiMapping M;
  M.TempFactors.assign(NumLevels,
                       std::vector<std::int64_t>(NumIters, 1));
  M.SpatialFactors.assign(NumIters, 1);
  for (unsigned I = 0; I < NumIters; ++I) {
    std::int64_t Rest = P.iterators()[I].Extent;
    for (unsigned L = 0; L + 1 < NumLevels; ++L) {
      std::int64_t F = R.pick(divisorsOf(Rest));
      M.TempFactors[L][I] = F;
      Rest /= F;
    }
    std::int64_t Sp = R.pick(divisorsOf(Rest));
    M.SpatialFactors[I] = Sp;
    M.TempFactors[NumLevels - 1][I] = Rest / Sp;
  }
  std::vector<unsigned> Identity(NumIters);
  for (unsigned I = 0; I < NumIters; ++I)
    Identity[I] = I;
  M.Perms.assign(NumLevels, Identity);
  for (unsigned L = 1; L < NumLevels; ++L)
    R.shuffle(M.Perms[L]);
  return M;
}

} // namespace

TEST(Hierarchy, ValidationCatchesMistakes) {
  Hierarchy H = testHierarchy(3, 1);
  EXPECT_TRUE(H.validate().empty());
  H.FanoutLevel = 3;
  EXPECT_FALSE(H.validate().empty());
  H.FanoutLevel = 0;
  EXPECT_FALSE(H.validate().empty());
  H = testHierarchy(1, 1);
  EXPECT_FALSE(H.validate().empty());
  H = testHierarchy(3, 1);
  H.NumPEs = 0;
  EXPECT_FALSE(H.validate().empty());
  // A non-outermost level with no storage is a modeling error; the
  // outermost (backing store) level is the only one allowed capacity 0
  // (= unbounded).
  H = testHierarchy(3, 1);
  H.Levels[1].CapacityWords = 0;
  EXPECT_FALSE(H.validate().empty());
  EXPECT_NE(H.validate().find("no capacity"), std::string::npos);
  H = testHierarchy(3, 1);
  H.Levels[2].CapacityWords = 0;
  EXPECT_TRUE(H.validate().empty());
  H = testHierarchy(3, 1);
  H.Levels[0].AccessEnergyPj = -1.0;
  EXPECT_FALSE(H.validate().empty());
  H = testHierarchy(3, 1);
  H.Levels[1].Bandwidth = 0.0;
  EXPECT_FALSE(H.validate().empty());
}

TEST(Hierarchy, ValidatorMessagesArePinned) {
  // Both validators build their text only when a check fails; every
  // message stays byte for byte.
  auto hierarchyError = [](auto Edit) {
    Hierarchy H = testHierarchy(3, 1);
    Edit(H);
    return H.validate();
  };
  EXPECT_EQ(testHierarchy(1, 1).validate(),
            "hierarchy needs at least two levels");
  EXPECT_EQ(hierarchyError([](Hierarchy &H) { H.FanoutLevel = 3; }),
            "fan-out level 3 out of range [1, 2]");
  EXPECT_EQ(hierarchyError([](Hierarchy &H) { H.FanoutLevel = 0; }),
            "fan-out level 0 out of range [1, 2]");
  EXPECT_EQ(hierarchyError([](Hierarchy &H) { H.NumPEs = 0; }),
            "hierarchy needs at least one PE");
  EXPECT_EQ(hierarchyError([](Hierarchy &H) { H.Levels[1].CapacityWords = 0; }),
            "level L1 has no capacity");
  EXPECT_EQ(
      hierarchyError([](Hierarchy &H) { H.Levels[0].AccessEnergyPj = -1.0; }),
      "negative access energy at level L0");
  EXPECT_EQ(hierarchyError([](Hierarchy &H) { H.Levels[1].Bandwidth = 0.0; }),
            "non-positive bandwidth at level L1");

  const Problem P = smallConvProblem();
  const Hierarchy H = testHierarchy(3, 1);
  const unsigned K = P.iteratorIndex("k");
  auto mappingError = [&](auto Edit) {
    MultiMapping M = MultiMapping::untiled(P, 3);
    Edit(M);
    return M.validate(P, H);
  };
  EXPECT_EQ(MultiMapping::untiled(P, 2).validate(P, H),
            "temporal factor levels do not match the hierarchy depth");
  EXPECT_EQ(mappingError([](MultiMapping &M) { M.SpatialFactors.pop_back(); }),
            "spatial factor arity mismatch");
  EXPECT_EQ(mappingError([](MultiMapping &M) { M.Perms.pop_back(); }),
            "permutation count does not match the hierarchy depth");
  EXPECT_EQ(
      mappingError([](MultiMapping &M) { M.TempFactors[1].pop_back(); }),
      "temporal factor arity mismatch");
  EXPECT_EQ(mappingError([](MultiMapping &M) { M.SpatialFactors[0] = 0; }),
            "spatial factor < 1");
  EXPECT_EQ(mappingError([](MultiMapping &M) { M.TempFactors[1][0] = 0; }),
            "temporal factor < 1");
  EXPECT_EQ(mappingError([&](MultiMapping &M) { M.TempFactors[0][K] = 5; }),
            "iterator k factors multiply to 5, expected 4");
  EXPECT_EQ(mappingError([](MultiMapping &M) { M.Perms[1].pop_back(); }),
            "permutation arity mismatch");
  EXPECT_EQ(
      mappingError([](MultiMapping &M) { M.Perms[1][0] = M.Perms[1][1]; }),
      "not a permutation");
}

TEST(Hierarchy, AreaPricesPrivateLevelsPerPE) {
  // On a 4-level machine with fan-out at level 2, the register file and
  // the scratchpad are replicated per PE while the SRAM is shared; the
  // DRAM level contributes no on-chip area.
  TechParams Tech = TechParams::cgo45nm();
  Hierarchy H;
  H.NumPEs = 64;
  H.MacEnergyPj = 2.2;
  H.FanoutLevel = 2;
  H.Levels = {{"RegisterFile", 512, 0.2, 1e9},
              {"Scratchpad", 2048, 0.8, 4.0},
              {"SRAM", 65536, 6.0, 16.0},
              {"DRAM", 0, 128.0, 4.0}};
  ASSERT_TRUE(H.validate().empty());
  const double PerPE = Tech.AreaMacUm2 + Tech.AreaRegWordUm2 * 512.0 +
                       Tech.AreaSramWordUm2 * 2048.0;
  const double Shared = Tech.AreaSramWordUm2 * 65536.0;
  EXPECT_DOUBLE_EQ(H.areaUm2(Tech), 64.0 * PerPE + Shared);

  // Moving the fan-out boundary up one level turns the scratchpad into a
  // shared structure: the area drops by (NumPEs - 1) copies of it.
  Hierarchy Shared2 = H;
  Shared2.FanoutLevel = 1;
  EXPECT_DOUBLE_EQ(Shared2.areaUm2(Tech),
                   H.areaUm2(Tech) -
                       63.0 * Tech.AreaSramWordUm2 * 2048.0);
}

TEST(Hierarchy, ParseRoundTripsAndRejectsGarbage) {
  const std::string Text = "# four-level scratchpad machine\n"
                           "pes 128\n"
                           "mac-pj 2.2\n"
                           "fanout 2\n"
                           "level RegisterFile 512 0.2 1e9\n"
                           "level Scratchpad 2048 0.8 4\n"
                           "level SRAM 65536 6.0 16\n"
                           "level DRAM - 128.0 4\n";
  Expected<Hierarchy> Parsed = parseHierarchy(Text);
  ASSERT_TRUE(Parsed) << Parsed.status().toString();
  const Hierarchy &H = Parsed.value();
  EXPECT_TRUE(H.validate().empty());
  EXPECT_EQ(H.NumPEs, 128);
  EXPECT_EQ(H.FanoutLevel, 2u);
  EXPECT_EQ(H.numLevels(), 4u);
  EXPECT_EQ(H.Levels[1].Name, "Scratchpad");
  EXPECT_EQ(H.Levels[1].CapacityWords, 2048);
  EXPECT_EQ(H.Levels[3].CapacityWords, 0); // "-" = unbounded.
  EXPECT_DOUBLE_EQ(H.MacEnergyPj, 2.2);
  EXPECT_DOUBLE_EQ(H.Levels[0].Bandwidth, 1e9);

  EXPECT_FALSE(parseHierarchy("pes 16\nwibble 3\n"));
  Expected<Hierarchy> Bad = parseHierarchy("pes 16\nlevel OnlyName\n");
  EXPECT_FALSE(Bad);
  EXPECT_FALSE(Bad.status().message().empty());
}

TEST(MultiMapper, FindsLegalMappingOnFourLevelMachine) {
  // The generic mapper must search a 4-level machine directly, and its
  // trajectory must not depend on the thread count (same round/slot RNG
  // scheme as the classic path).
  ConvLayer L;
  L.K = 16;
  L.C = 8;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  Hierarchy H = Hierarchy::withScratchpad(eyerissArch(),
                                          TechParams::cgo45nm(),
                                          /*SpadWords=*/2048,
                                          /*SramWords=*/65536);
  MapperOptions Opts;
  Opts.Seed = 3;
  Opts.MaxTrials = 1024;
  Opts.VictoryCondition = 300;
  Opts.Threads = 1;
  MultiMapperResult Ref = searchMultiMappings(P, H, Opts);
  ASSERT_TRUE(Ref.Found);
  EXPECT_TRUE(Ref.BestEval.Legal);
  EXPECT_TRUE(Ref.Best.validate(P, H).empty());
  ASSERT_EQ(Ref.Best.TempFactors.size(), 4u);
  EXPECT_LE(Ref.BestEval.Profile.Occupancy[1], 2048);

  Opts.Threads = 4;
  MultiMapperResult Par = searchMultiMappings(P, H, Opts);
  EXPECT_EQ(Par.Trials, Ref.Trials);
  EXPECT_EQ(Par.LegalTrials, Ref.LegalTrials);
  ASSERT_TRUE(Par.Found);
  EXPECT_EQ(Par.Best.TempFactors, Ref.Best.TempFactors);
  EXPECT_EQ(Par.Best.SpatialFactors, Ref.Best.SpatialFactors);
  EXPECT_EQ(Par.Best.Perms, Ref.Best.Perms);
  EXPECT_DOUBLE_EQ(Par.BestEval.EnergyPj, Ref.BestEval.EnergyPj);
}

TEST(Hierarchy, ClassicMatchesArchConfig) {
  ArchConfig Arch = eyerissArch();
  Hierarchy H = Hierarchy::classic3Level(Arch, TechParams::cgo45nm());
  ASSERT_TRUE(H.validate().empty());
  EXPECT_EQ(H.numLevels(), 3u);
  EXPECT_EQ(H.FanoutLevel, 1u);
  EXPECT_EQ(H.NumPEs, 168);
  EXPECT_EQ(H.Levels[0].CapacityWords, 512);
  EXPECT_EQ(H.Levels[1].CapacityWords, 65536);
  EnergyModel E(TechParams::cgo45nm());
  EXPECT_NEAR(H.Levels[0].AccessEnergyPj, E.regAccessPj(512), 1e-12);
  EXPECT_NEAR(H.Levels[1].AccessEnergyPj, E.sramAccessPj(65536), 1e-12);
  EXPECT_NEAR(H.Levels[2].AccessEnergyPj, 128.0, 1e-12);
}

TEST(MultiMapping, UntiledAndValidation) {
  Problem P = smallConvProblem();
  Hierarchy H = testHierarchy(4, 2);
  MultiMapping M = MultiMapping::untiled(P, 4);
  EXPECT_TRUE(M.validate(P, H).empty());
  EXPECT_EQ(M.numPEsUsed(), 1);
  M.TempFactors[0][1] = 999; // Break the product invariant.
  EXPECT_FALSE(M.validate(P, H).empty());
}

TEST(MultiMapping, TileExtentsIncludeSpatialAtSharedLevels) {
  Problem P = makeMatmulProblem(8, 8, 8);
  Hierarchy H = testHierarchy(3, 1);
  MultiMapping M = MultiMapping::untiled(P, 3);
  M.TempFactors[0][0] = 2;
  M.SpatialFactors[0] = 2;
  M.TempFactors[1][0] = 2;
  M.TempFactors[2][0] = 1;
  ASSERT_TRUE(M.validate(P, H).empty());
  EXPECT_EQ(M.tileExtents(H, 0)[0], 2);     // Private: t0.
  EXPECT_EQ(M.tileExtents(H, 1)[0], 8);     // Shared: t0*t1*p.
  EXPECT_EQ(M.sliceExtents(H)[0], 4);       // Per-PE slice: t0*t1.
}

TEST(MultiNestAnalysis, MatchesOracleOnRandomHierarchies) {
  Problem P = smallConvProblem();
  Rng R(2026);
  for (unsigned NumLevels : {2u, 3u, 4u}) {
    for (unsigned F = 1; F < NumLevels; ++F) {
      Hierarchy H = testHierarchy(NumLevels, F);
      for (int Trial = 0; Trial < 12; ++Trial) {
        MultiMapping M = randomMultiMapping(P, NumLevels, R);
        ASSERT_TRUE(M.validate(P, H).empty());
        SCOPED_TRACE("L=" + std::to_string(NumLevels) + " F=" +
                     std::to_string(F) + " trial " + std::to_string(Trial));
        MultiProfile Model = analyzeMultiNest(P, H, M);
        MultiSimResult Oracle = simulateMultiNest(P, H, M);
        for (unsigned B = 0; B < H.numBoundaries(); ++B)
          for (std::size_t T = 0; T < P.tensors().size(); ++T)
            EXPECT_EQ(Model.Words[B][T], Oracle.Words[B][T])
                << "boundary " << B << " tensor "
                << P.tensors()[T].Name;
      }
    }
  }
}

TEST(MultiNestAnalysis, MatchesOracleOnMatmul) {
  Problem P = makeMatmulProblem(8, 12, 6);
  Rng R(11);
  Hierarchy H = testHierarchy(4, 2);
  for (int Trial = 0; Trial < 25; ++Trial) {
    MultiMapping M = randomMultiMapping(P, 4, R);
    SCOPED_TRACE("trial " + std::to_string(Trial));
    MultiProfile Model = analyzeMultiNest(P, H, M);
    MultiSimResult Oracle = simulateMultiNest(P, H, M);
    for (unsigned B = 0; B < H.numBoundaries(); ++B)
      for (std::size_t T = 0; T < P.tensors().size(); ++T)
        EXPECT_EQ(Model.Words[B][T], Oracle.Words[B][T]);
  }
}

TEST(MultiNestAnalysis, ClassicHierarchyAgreesWithFixedPipeline) {
  // The 3-level classic machine must reproduce the fixed 4-level
  // nestmodel exactly: boundary 0 = SRAM<->registers, boundary 1 =
  // DRAM<->SRAM, same occupancies, same energy and cycles.
  Problem P = smallConvProblem();
  ArchConfig Arch;
  Arch.NumPEs = 64;
  Arch.RegWordsPerPE = 4096;
  Arch.SramWords = 65536;
  TechParams Tech = TechParams::cgo45nm();
  Hierarchy H = Hierarchy::classic3Level(Arch, Tech);
  EnergyModel Energy(Tech);

  Rng R(5);
  for (int Trial = 0; Trial < 25; ++Trial) {
    MultiMapping MM = randomMultiMapping(P, 3, R);
    // Lift to the fixed 4-level Mapping.
    Mapping Map = Mapping::untiled(P);
    for (unsigned I = 0; I < P.numIterators(); ++I) {
      Map.factor(I, TileLevel::Register) = MM.TempFactors[0][I];
      Map.factor(I, TileLevel::PeTemporal) = MM.TempFactors[1][I];
      Map.factor(I, TileLevel::DramTemporal) = MM.TempFactors[2][I];
      Map.factor(I, TileLevel::Spatial) = MM.SpatialFactors[I];
    }
    Map.PePerm = MM.Perms[1];
    Map.DramPerm = MM.Perms[2];
    ASSERT_TRUE(Map.validate(P).empty());

    SCOPED_TRACE("trial " + std::to_string(Trial));
    MultiProfile Multi = analyzeMultiNest(P, H, MM);
    NestProfile Fixed = analyzeNest(P, Map);
    for (std::size_t T = 0; T < P.tensors().size(); ++T) {
      EXPECT_EQ(Multi.Words[0][T], Fixed.PerTensor[T].SramToReg +
                                       Fixed.PerTensor[T].RegToSram);
      EXPECT_EQ(Multi.Words[1][T], Fixed.PerTensor[T].DramToSram +
                                       Fixed.PerTensor[T].SramToDram);
    }
    EXPECT_EQ(Multi.Occupancy[0], Fixed.RegTileWords);
    EXPECT_EQ(Multi.Occupancy[1], Fixed.SramTileWords);
    EXPECT_EQ(Multi.PEsUsed, Fixed.PEsUsed);

    MultiEvalResult MEval = evaluateMultiMapping(P, H, MM);
    EvalResult FEval = evaluateMapping(P, Map, Arch, Energy);
    EXPECT_EQ(MEval.Legal, FEval.Legal);
    EXPECT_NEAR(MEval.EnergyPj, FEval.EnergyPj, 1e-6 * FEval.EnergyPj);
    EXPECT_NEAR(MEval.Cycles, FEval.Cycles, 1e-9 * FEval.Cycles);
  }
}

TEST(MultiGp, ClassicHierarchyMatchesFixedOptimizer) {
  // Both optimizeLayer overloads run one sweep: on the classic machine,
  // given as a Hierarchy, it plans, prunes, builds, solves and rounds
  // the programs of the ArchConfig overload, in the same order and with
  // the same tie-break, so both return the same design, bit for bit, in
  // dataflow mode and in co-design, on layers with and without the H/W
  // symmetry.
  const TechParams Tech = TechParams::cgo45nm();
  const ArchConfig Arch = eyerissArch();
  const Hierarchy H = Hierarchy::classic3Level(Arch, Tech);
  auto layer = [](std::int64_t K, std::int64_t C, std::int64_t Hin,
                  std::int64_t Win, std::int64_t Stride,
                  std::int64_t Groups) {
    ConvLayer L;
    L.K = K;
    L.C = C;
    L.Hin = Hin;
    L.Win = Win;
    L.R = 3;
    L.S = 3;
    L.StrideX = L.StrideY = Stride;
    L.Groups = Groups;
    return L;
  };
  const std::vector<ConvLayer> Layers = {
      layer(16, 8, 14, 10, 1, 1),   // dense
      layer(16, 8, 16, 12, 2, 1),   // strided
      layer(16, 16, 14, 10, 1, 16), // depthwise
      layer(16, 8, 14, 14, 1, 1),   // dense, H == W
      layer(16, 16, 14, 14, 1, 16)  // depthwise, H == W
  };
  for (const ConvLayer &Layer : Layers)
    for (DesignMode Mode : {DesignMode::DataflowOnly, DesignMode::CoDesign})
      for (SearchObjective Objective :
           {SearchObjective::Energy, SearchObjective::Delay}) {
        SCOPED_TRACE(std::string(Layer.layerClass()) + " " +
                     std::to_string(Layer.Hin) + "x" +
                     std::to_string(Layer.Win) +
                     (Mode == DesignMode::CoDesign ? " co-design" : "") +
                     (Objective == SearchObjective::Delay ? " delay"
                                                          : " energy"));
        const Problem P = makeConvProblem(Layer);
        const double Area =
            Mode == DesignMode::CoDesign ? eyerissAreaUm2(Tech) : 0.0;
        ThistleOptions TOpts;
        TOpts.Mode = Mode;
        TOpts.Objective = Objective;
        const ThistleResult Fixed = optimizeLayer(P, Arch, Tech, TOpts, Area);
        ASSERT_TRUE(Fixed.Found);
        EXPECT_EQ(Fixed.Stats.PairsSkippedBySymmetry > 0,
                  Layer.Hin == Layer.Win);

        const ThistleResult Multi = optimizeLayer(P, H, Tech, TOpts, {}, Area);
        ASSERT_TRUE(Multi.Found);
        EXPECT_EQ(Multi.Stats.PairsTotal, Fixed.Stats.PairsTotal);
        EXPECT_EQ(Multi.Stats.PairsSkippedBySymmetry,
                  Fixed.Stats.PairsSkippedBySymmetry);
        EXPECT_EQ(Multi.Stats.PairsPlanned, Fixed.Stats.PairsPlanned);
        EXPECT_EQ(Multi.Report.total(), Fixed.Report.total());
        EXPECT_EQ(Multi.Report.Solved, Fixed.Report.Solved);
        EXPECT_EQ(Multi.Report.Infeasible, Fixed.Report.Infeasible);

        const Mapping Map = Multi.Multi.Map.toMapping();
        EXPECT_EQ(Map.Factors, Fixed.Map.Factors) << Map.toString(P)
                                                  << Fixed.Map.toString(P);
        EXPECT_EQ(Map.PePerm, Fixed.Map.PePerm);
        EXPECT_EQ(Map.DramPerm, Fixed.Map.DramPerm);
        EXPECT_EQ(Multi.Multi.Arch.Levels[0].CapacityWords,
                  Fixed.Arch.RegWordsPerPE);
        EXPECT_EQ(Multi.Multi.Arch.Levels[1].CapacityWords,
                  Fixed.Arch.SramWords);
        EXPECT_EQ(Multi.Multi.Arch.NumPEs, Fixed.Arch.NumPEs);
        EXPECT_EQ(Multi.Multi.Eval.EnergyPj, Fixed.Eval.EnergyPj);
        EXPECT_EQ(Multi.Multi.Eval.Cycles, Fixed.Eval.Cycles);
        EXPECT_EQ(Multi.ModelObjective, Fixed.ModelObjective);
      }
}

TEST(MultiGp, ScratchpadHierarchyProducesLegalDesign) {
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  TechParams Tech = TechParams::cgo45nm();
  Hierarchy H = Hierarchy::withScratchpad(eyerissArch(), Tech,
                                          /*SpadWords=*/2048,
                                          /*SramWords=*/65536);
  ASSERT_TRUE(H.validate().empty());
  ASSERT_EQ(H.numLevels(), 4u);

  ThistleOptions O;
  O.MaxPermClassPairs = 12;
  ThistleResult R = optimizeLayer(P, H, Tech, O);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Multi.Eval.Legal);
  EXPECT_TRUE(R.Multi.Map.validate(P, H).empty());
  // The scratchpad must actually hold tiles within its capacity.
  EXPECT_LE(R.Multi.Eval.Profile.Occupancy[1], 2048);
}

TEST(MultiGp, DelayObjectiveUsesParallelism) {
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  ThistleOptions O;
  O.Objective = SearchObjective::Delay;
  O.MaxPermClassPairs = 8;
  ThistleResult R = optimizeLayer(
      P, Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm()),
      TechParams::cgo45nm(), O);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.Multi.Eval.MacIpc, 4.0);
}

TEST(MultiGp, DeterministicAcrossRuns) {
  Problem P = smallConvProblem();
  ThistleOptions O;
  O.MaxPermClassPairs = 6;
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  ThistleResult A = optimizeLayer(P, H, TechParams::cgo45nm(), O);
  ThistleResult B = optimizeLayer(P, H, TechParams::cgo45nm(), O);
  ASSERT_TRUE(A.Found);
  ASSERT_TRUE(B.Found);
  EXPECT_DOUBLE_EQ(A.Multi.Eval.EnergyPj, B.Multi.Eval.EnergyPj);
}

namespace {

/// The spad4 machine of thistle-opt --hierarchy spad4.
Hierarchy spad4Machine() {
  return Hierarchy::withScratchpad(eyerissArch(), TechParams::cgo45nm(),
                                   /*SpadWords=*/512,
                                   eyerissArch().SramWords);
}

std::string hexDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

ConvLayer squareLayer() {
  ConvLayer L;
  L.K = 16;
  L.C = 8;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  return L;
}

} // namespace

TEST(MultiGp, ScratchpadSweepPrunesAndIsThreadCountInvariant) {
  // On a 4-level machine a plan holds one class per permuted level; the
  // H/W symmetry prunes mirror triples as it prunes classic pairs, and
  // the default cap (classes^2) spreads the planned triples over the
  // pruned ones.
  const Problem P = makeConvProblem(squareLayer());
  const Hierarchy H = spad4Machine();
  ThistleOptions O;
  O.Threads = 1;
  const ThistleResult Ref = optimizeLayer(P, H, TechParams::cgo45nm(), O);
  ASSERT_TRUE(Ref.Found);
  const unsigned Classes = Ref.Stats.PermClassesPerLevel;
  EXPECT_EQ(Ref.Stats.PairsTotal, Classes * Classes * Classes);
  EXPECT_GT(Ref.Stats.PairsSkippedBySymmetry, 0u);
  const unsigned Pruned =
      Ref.Stats.PairsTotal - Ref.Stats.PairsSkippedBySymmetry;
  EXPECT_EQ(Ref.Stats.PairsPlanned, std::min(Pruned, Classes * Classes));
  EXPECT_EQ(Ref.Report.total(), Pruned);
  EXPECT_EQ(Ref.Report.SkippedByPolicy, Pruned - Ref.Stats.PairsPlanned);
  EXPECT_TRUE(Ref.Report.clean());

  for (unsigned Threads : {2u, 8u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    O.Threads = Threads;
    const ThistleResult R = optimizeLayer(P, H, TechParams::cgo45nm(), O);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.Multi.Eval.EnergyPj, Ref.Multi.Eval.EnergyPj);
    EXPECT_EQ(R.Multi.Eval.Cycles, Ref.Multi.Eval.Cycles);
    EXPECT_EQ(R.Multi.Map.TempFactors, Ref.Multi.Map.TempFactors);
    EXPECT_EQ(R.Multi.Map.SpatialFactors, Ref.Multi.Map.SpatialFactors);
    EXPECT_EQ(R.ModelObjective, Ref.ModelObjective);
    EXPECT_EQ(R.Stats.NewtonIterations, Ref.Stats.NewtonIterations);
    EXPECT_EQ(R.BestPePerm, Ref.BestPePerm);
    EXPECT_EQ(R.BestDramPerm, Ref.BestDramPerm);
  }
}

TEST(MultiGp, ScratchpadWinnersArePinned) {
  // The spad4 winners of two layers, bit for bit: a change to the
  // non-classic plan (pruning, the cap's spread) or to the sweep moves
  // them.
  struct Case {
    ConvLayer Layer;
    SearchObjective Objective;
    const char *Energy, *Cycles;
  };
  ConvLayer Strided = squareLayer();
  Strided.K = 32;
  Strided.Hin = Strided.Win = 16;
  Strided.StrideX = Strided.StrideY = 2;
  const Case Cases[] = {
      {squareLayer(), SearchObjective::Energy, "0x1.7a2d4183c08e6p+22",
       "0x1.b9p+12"},
      {Strided, SearchObjective::Delay, "0x1.c48f19e1c041dp+22",
       "0x1p+10"},
  };
  for (const Case &C : Cases) {
    ThistleOptions O;
    O.Objective = C.Objective;
    const ThistleResult R = optimizeLayer(makeConvProblem(C.Layer),
                                          spad4Machine(),
                                          TechParams::cgo45nm(), O);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(hexDouble(R.Multi.Eval.EnergyPj), C.Energy);
    EXPECT_EQ(hexDouble(R.Multi.Eval.Cycles), C.Cycles);
  }
}

TEST(MultiGp, ScratchpadSweepNeverTouchesTheCache) {
  // The GP cache's keys name a classic ArchConfig, not the machine, so
  // a non-classic sweep neither reads nor writes a cache it is handed.
  GpSolutionCache Cache;
  ThistleOptions O;
  O.MaxPermClassPairs = 8;
  LayerRunContext Run;
  Run.Cache = &Cache;
  const ThistleResult R = optimizeLayer(makeConvProblem(squareLayer()),
                                        spad4Machine(),
                                        TechParams::cgo45nm(), O, Run);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 0u);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(R.Stats.CacheHits + R.Stats.CacheMisses, 0u);
}

TEST(MultiCoDesign, RespectsAreaBudgetAndBeatsEyeriss) {
  // Capacity co-design of the 3-level machine at the Eyeriss area must
  // find a design at least as good as the fixed Eyeriss hierarchy (it
  // can rediscover it), and every reported capacity must be a power of
  // two within the budget.
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  Hierarchy H = Hierarchy::classic3Level(Arch, Tech);

  ThistleOptions Fixed;
  Fixed.MaxPermClassPairs = 8;
  ThistleResult FixedRes = optimizeLayer(P, H, Tech, Fixed);
  ASSERT_TRUE(FixedRes.Found);

  ThistleOptions Co = Fixed;
  Co.Mode = DesignMode::CoDesign;
  const double Area = eyerissAreaUm2(Tech);
  ThistleResult CoRes = optimizeLayer(P, H, Tech, Co, {}, Area);
  ASSERT_TRUE(CoRes.Found);
  EXPECT_TRUE(CoRes.Multi.Eval.Legal);
  EXPECT_LE(CoRes.Multi.Arch.areaUm2(Tech), Area * 1.0000001);
  for (unsigned Lv = 0; Lv + 1 < CoRes.Multi.Arch.numLevels(); ++Lv)
    EXPECT_TRUE(isPowerOfTwo(CoRes.Multi.Arch.Levels[Lv].CapacityWords));
  // Co-design at equal area should clearly beat the Eyeriss capacities
  // (Fig. 5's trend, reproduced through the multilevel path).
  EXPECT_LT(CoRes.Multi.Eval.EnergyPj, FixedRes.Multi.Eval.EnergyPj * 0.7);
}

TEST(MultiCoDesign, FourLevelCoDesignIsLegalAtEqualArea) {
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  TechParams Tech = TechParams::cgo45nm();
  Hierarchy H = Hierarchy::withScratchpad(eyerissArch(), Tech, 1024,
                                          eyerissArch().SramWords);
  ThistleOptions Co;
  Co.MaxPermClassPairs = 8;
  Co.Mode = DesignMode::CoDesign;
  const double Area = eyerissAreaUm2(Tech);
  ThistleResult R = optimizeLayer(P, H, Tech, Co, {}, Area);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Multi.Eval.Legal);
  EXPECT_LE(R.Multi.Arch.areaUm2(Tech), Area * 1.0000001);
  EXPECT_EQ(R.Multi.Arch.numLevels(), 4u);
  // The scratchpad occupancy must respect the co-designed capacity.
  EXPECT_LE(R.Multi.Eval.Profile.Occupancy[1],
            R.Multi.Arch.Levels[1].CapacityWords);
}

TEST(MultiGp, TwoLevelHierarchyWorks) {
  // The degenerate L=2 machine (registers + DRAM, fan-out below the
  // backing store) still optimizes: a single boundary, one permuted
  // level.
  Problem P = smallConvProblem();
  Hierarchy H;
  H.NumPEs = 16;
  H.MacEnergyPj = 2.2;
  H.FanoutLevel = 1;
  H.Levels = {{"RegisterFile", 4096, 0.25, 1e9},
              {"DRAM", 0, 128.0, 16.0}};
  ASSERT_TRUE(H.validate().empty());
  ThistleOptions O;
  O.MaxPermClassPairs = 6;
  ThistleResult R = optimizeLayer(P, H, TechParams::cgo45nm(), O);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Multi.Eval.Legal);
  EXPECT_EQ(R.Multi.Eval.Profile.Words.size(), 1u);
}

TEST(MultiGp, FanoutAtTopLevelWorks) {
  // F = L-1: every on-chip level is private to a PE; only DRAM is
  // shared.
  Problem P = smallConvProblem();
  Hierarchy H = testHierarchy(3, 2);
  ThistleOptions O;
  O.MaxPermClassPairs = 6;
  ThistleResult R = optimizeLayer(P, H, TechParams::cgo45nm(), O);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Multi.Eval.Legal);
}

// ---- Robustness: structured parse errors, validation, degradation ---------

#include "support/FaultInjection.h"

#include <chrono>

namespace {

/// Shorthand: parse and return the error message (empty on success).
std::string parseErrorOf(const std::string &Text) {
  Expected<Hierarchy> Parsed = parseHierarchy(Text);
  return Parsed.hasValue() ? std::string() : Parsed.status().message();
}

} // namespace

TEST(Hierarchy, ParseReportsLineNumbers) {
  // Each malformed input names the offending line.
  EXPECT_NE(parseErrorOf("pes zero\n").find("line 1"), std::string::npos);
  EXPECT_NE(parseErrorOf("pes 16\npes -2\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parseErrorOf("pes 16\nmac-pj nan\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parseErrorOf("pes 16\nfanout 0\n").find("line 2"),
            std::string::npos);
  // Truncated level line (name only, missing fields).
  EXPECT_NE(parseErrorOf("pes 16\nlevel OnlyName\n").find("line 2"),
            std::string::npos);
  // Malformed capacity token.
  EXPECT_NE(
      parseErrorOf("pes 16\nlevel RF 12cats 0.5 16\n").find("line 2"),
      std::string::npos);
  // Non-positive capacity.
  EXPECT_NE(parseErrorOf("pes 16\nlevel RF 0 0.5 16\n").find("line 2"),
            std::string::npos);
  // Negative access energy / non-positive bandwidth.
  EXPECT_NE(parseErrorOf("pes 16\nlevel RF 64 -0.5 16\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parseErrorOf("pes 16\nlevel RF 64 0.5 0\n").find("line 2"),
            std::string::npos);
  // Trailing junk after the fields.
  EXPECT_NE(
      parseErrorOf("pes 16\nlevel RF 64 0.5 16 extra\n").find("line 2"),
      std::string::npos);
  // Unknown directive.
  EXPECT_NE(parseErrorOf("pes 16\nwibble 3\n").find("line 2"),
            std::string::npos);
}

TEST(Hierarchy, ParseRejectsDuplicateLevelNames) {
  std::string Error = parseErrorOf("pes 16\n"
                                   "level RF 64 0.5 1e9\n"
                                   "level RF 1024 2.0 80\n"
                                   "level DRAM - 128 16\n");
  EXPECT_NE(Error.find("line 3"), std::string::npos);
  EXPECT_NE(Error.find("RF"), std::string::npos);
}

TEST(Hierarchy, ParseRejectsUnboundedInnerLevel) {
  // "-" (unbounded capacity) is only meaningful at the outermost level.
  std::string Error = parseErrorOf("pes 16\n"
                                   "level RF - 0.5 1e9\n"
                                   "level DRAM 1024 128 16\n");
  EXPECT_FALSE(Error.empty());
  EXPECT_NE(Error.find("line 2"), std::string::npos);
}

TEST(Hierarchy, ParseExpectedOverloadRoundTrips) {
  Expected<Hierarchy> Parsed = parseHierarchy("pes 128\n"
                                              "mac-pj 2.2\n"
                                              "fanout 1\n"
                                              "level RF 512 0.2 1e9\n"
                                              "level SRAM 65536 6.0 16\n"
                                              "level DRAM - 128.0 4\n");
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.status().toString();
  const Hierarchy &H = Parsed.value();
  EXPECT_EQ(H.NumPEs, 128);
  EXPECT_EQ(H.numLevels(), 3u);
  EXPECT_EQ(H.Levels[2].CapacityWords, 0); // Unbounded DRAM.
}

TEST(MultiGp, RejectsInvalidHierarchy) {
  Problem P = smallConvProblem();
  Hierarchy Bad; // Zero levels: validate() cannot pass.
  ThistleResult R =
      optimizeLayer(P, Bad, TechParams::cgo45nm(), ThistleOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  EXPECT_EQ(R.Report.total(), 0u);
}

TEST(MultiGp, RejectsCoDesignWithoutBudget) {
  Problem P = smallConvProblem();
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  ThistleOptions O;
  O.Mode = DesignMode::CoDesign;
  ThistleResult R = optimizeLayer(P, H, TechParams::cgo45nm(), O, {},
                                  /*AreaBudgetUm2=*/0.0);
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
}

TEST(MultiGp, RejectsTupleSpaceBeyondThePlanner) {
  // Every permuted level multiplies the tuple space by the class count;
  // past MaxSweepTuples the sweep is refused before any tuple is
  // enumerated, not planned into millions of report incidents.
  const Problem P = makeConvProblem(squareLayer());
  ThistleResult R = optimizeLayer(P, testHierarchy(10, 1),
                                  TechParams::cgo45nm(), ThistleOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  EXPECT_NE(R.InputStatus.message().find("tuples"), std::string::npos);
  EXPECT_EQ(R.Report.total(), 0u);
}

TEST(MultiGp, ExpiredDeadlineSkipsAllPairs) {
  Problem P = smallConvProblem();
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  ThistleOptions O;
  O.MaxPermClassPairs = 6;
  O.DeadlineAt = std::chrono::steady_clock::now() - std::chrono::hours(1);
  ThistleResult R = optimizeLayer(P, H, TechParams::cgo45nm(), O);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.InputStatus.isOk());
  EXPECT_TRUE(R.Report.DeadlineExpired);
  EXPECT_GT(R.Report.Skipped, 0u);
  EXPECT_EQ(R.Report.Skipped, R.Report.total());
}

TEST(MultiGp, FarFutureDeadlineMatchesUnboundedRun) {
  Problem P = smallConvProblem();
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  ThistleOptions O;
  O.MaxPermClassPairs = 6;
  ThistleResult Ref = optimizeLayer(P, H, TechParams::cgo45nm(), O);
  ASSERT_TRUE(Ref.Found);
  O.DeadlineAt = std::chrono::steady_clock::now() + std::chrono::hours(24);
  ThistleResult R = optimizeLayer(P, H, TechParams::cgo45nm(), O);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Multi.Eval.EnergyPj, Ref.Multi.Eval.EnergyPj);
  EXPECT_EQ(R.ModelObjective, Ref.ModelObjective);
  EXPECT_FALSE(R.Report.DeadlineExpired);
}

#if THISTLE_FAULT_INJECTION_ENABLED

namespace {

struct MultiFaultGuard {
  ~MultiFaultGuard() { fault::disarmAll(); }
};

} // namespace

TEST(MultiGp, PoisonedPairDegradesGracefully) {
  MultiFaultGuard G;
  Problem P = smallConvProblem();
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  ThistleOptions O;
  O.MaxPermClassPairs = 6;
  O.Threads = 1;

  fault::arm("thistle.pair", /*Key=*/0, /*MaxHits=*/1);
  ThistleResult Ref = optimizeLayer(P, H, TechParams::cgo45nm(), O);
  ASSERT_TRUE(Ref.Found); // Best of the surviving pairs.
  EXPECT_EQ(Ref.Report.Failed, 1u);
  const SweepIncident *Poisoned = nullptr;
  for (const SweepIncident &I : Ref.Report.Incidents)
    if (I.Outcome == TaskOutcome::Failed)
      Poisoned = &I;
  ASSERT_NE(Poisoned, nullptr);
  EXPECT_EQ(Poisoned->Index, 0u);
  EXPECT_NE(Poisoned->Detail.find("injected"), std::string::npos);

  for (unsigned Threads : {2u, 8u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    fault::arm("thistle.pair", /*Key=*/0, /*MaxHits=*/1);
    O.Threads = Threads;
    ThistleResult R = optimizeLayer(P, H, TechParams::cgo45nm(), O);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.Multi.Eval.EnergyPj, Ref.Multi.Eval.EnergyPj);
    EXPECT_EQ(R.ModelObjective, Ref.ModelObjective);
    EXPECT_EQ(R.Report.Failed, Ref.Report.Failed);
    EXPECT_EQ(R.Report.Solved, Ref.Report.Solved);
    ASSERT_EQ(R.Report.Incidents.size(), Ref.Report.Incidents.size());
    for (std::size_t I = 0; I < R.Report.Incidents.size(); ++I)
      EXPECT_EQ(R.Report.Incidents[I].Index, Ref.Report.Incidents[I].Index);
  }
}

TEST(Hierarchy, ParseFaultSiteInjects) {
  MultiFaultGuard G;
  fault::arm("parse.hierarchy", fault::AnyKey, /*MaxHits=*/1);
  Expected<Hierarchy> Parsed =
      parseHierarchy("pes 16\nlevel DRAM - 1 1\n");
  ASSERT_FALSE(Parsed.hasValue());
  EXPECT_EQ(Parsed.status().code(), StatusCode::ParseError);
  EXPECT_NE(Parsed.status().message().find("injected"), std::string::npos);
}

#endif // THISTLE_FAULT_INJECTION_ENABLED
