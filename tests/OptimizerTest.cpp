//===- tests/OptimizerTest.cpp - Thistle end-to-end integration tests -----===//

#include "ir/Builders.h"
#include "nestmodel/Evaluator.h"
#include "thistle/Network.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace thistle;

namespace {

ConvLayer smallConv() {
  ConvLayer L;
  L.Name = "test-conv";
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  return L;
}

ThistleOptions fastOptions() {
  ThistleOptions O;
  O.Solver.Tolerance = 1e-5;
  O.MaxPermClassPairs = 12; // Keep the integration tests quick.
  return O;
}

} // namespace

TEST(Optimizer, MatmulDataflowOnEyeriss) {
  Problem P = makeMatmulProblem(64, 64, 64);
  ThistleOptions O = fastOptions();
  O.UntiledIterNames = {};
  ThistleResult R =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Eval.Legal);
  EXPECT_TRUE(R.Map.validate(P).empty());

  // The optimized dataflow must beat the untiled mapping.
  EnergyModel E(TechParams::cgo45nm());
  EvalResult Untiled =
      evaluateMapping(P, Mapping::untiled(P), eyerissArch(), E);
  if (Untiled.Legal) {
    EXPECT_LT(R.Eval.EnergyPj, Untiled.EnergyPj);
  }
}

TEST(Optimizer, ConvDataflowEnergyInFig4Range) {
  Problem P = makeConvProblem(smallConv());
  ThistleResult R = optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(),
                                  fastOptions());
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Eval.Legal);
  // Fig. 4: Eyeriss-architecture dataflow optimization lands in the
  // 20-30 pJ/MAC band; allow generous slack for a small test layer.
  EXPECT_GT(R.Eval.EnergyPerMacPj, 15.0);
  EXPECT_LT(R.Eval.EnergyPerMacPj, 40.0);
  // The register-MAC floor (4 eps_R + eps_op) is a hard lower bound.
  EnergyModel E(TechParams::cgo45nm());
  double Floor = 4.0 * E.regAccessPj(512) + E.macPj();
  EXPECT_GE(R.Eval.EnergyPerMacPj, Floor - 1e-6);
}

TEST(Optimizer, StatsReflectPruning) {
  Problem P = makeConvProblem(smallConv());
  ThistleOptions O = fastOptions();
  O.MaxPermClassPairs = 4;
  ThistleResult R =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
  EXPECT_GT(R.Stats.PermClassesPerLevel, 0u);
  EXPECT_EQ(R.Stats.RawPermsPerLevel, 24u); // 4 tiled iterators.
  EXPECT_LT(R.Stats.PermClassesPerLevel, R.Stats.RawPermsPerLevel);
  // The square layer has the h/w symmetry: some pairs must be skipped.
  EXPECT_GT(R.Stats.PairsSkippedBySymmetry, 0u);
  EXPECT_GT(R.Stats.NewtonIterations, 0u);
  EXPECT_LE(R.Stats.PairsSolved, 4u);
}

TEST(Optimizer, CoDesignBeatsFixedArchOnEnergy) {
  Problem P = makeConvProblem(smallConv());
  TechParams Tech = TechParams::cgo45nm();

  ThistleOptions DataflowOpts = fastOptions();
  ThistleResult Fixed = optimizeLayer(P, eyerissArch(), Tech, DataflowOpts);
  ASSERT_TRUE(Fixed.Found);

  ThistleOptions CoOpts = fastOptions();
  CoOpts.Mode = DesignMode::CoDesign;
  ThistleResult Co = optimizeLayer(P, eyerissArch(), Tech, CoOpts,
                                   eyerissAreaUm2(Tech));
  ASSERT_TRUE(Co.Found);
  EXPECT_TRUE(Co.Eval.Legal);
  // The co-designed architecture must stay within the Eyeriss area.
  EXPECT_LE(Co.Arch.areaUm2(Tech), eyerissAreaUm2(Tech) * 1.0000001);
  // And improve (or match) the fixed-architecture energy (Fig. 5 trend).
  EXPECT_LE(Co.Eval.EnergyPj, Fixed.Eval.EnergyPj * 1.05);
}

TEST(Optimizer, CoDesignDelayFindsParallelism) {
  Problem P = makeConvProblem(smallConv());
  TechParams Tech = TechParams::cgo45nm();
  ThistleOptions O = fastOptions();
  O.Mode = DesignMode::CoDesign;
  O.Objective = SearchObjective::Delay;
  ThistleResult R =
      optimizeLayer(P, eyerissArch(), Tech, O, eyerissAreaUm2(Tech));
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Eval.Legal);
  // Orders-of-magnitude IPC requires many PEs (Fig. 8 trend): the delay
  // co-design should use substantially more than one PE.
  EXPECT_GT(R.Eval.MacIpc, 8.0);
  EXPECT_LE(R.Eval.MacIpc, static_cast<double>(R.Arch.NumPEs));
}

TEST(Optimizer, DelayDataflowOnEyerissReachesGoodIpc) {
  Problem P = makeConvProblem(smallConv());
  ThistleOptions O = fastOptions();
  O.Objective = SearchObjective::Delay;
  ThistleResult R =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
  ASSERT_TRUE(R.Found);
  // IPC is bounded by the PE count (168) and should use parallelism.
  EXPECT_GT(R.Eval.MacIpc, 4.0);
  EXPECT_LE(R.Eval.MacIpc, 168.0);
}

TEST(Optimizer, ResultIsThreadCountInvariant) {
  // The parallel pair sweep must be bit-identical at any worker count:
  // the sweep plan is fixed before fan-out and the winner reduction is a
  // total order on (objective, pair index).
  Problem P = makeConvProblem(smallConv());
  ThistleOptions O = fastOptions();
  O.Threads = 1;
  ThistleResult Ref =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
  ASSERT_TRUE(Ref.Found);
  for (unsigned Threads : {2u, 8u}) {
    O.Threads = Threads;
    ThistleResult R =
        optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.Eval.EnergyPj, Ref.Eval.EnergyPj);
    EXPECT_EQ(R.Eval.Cycles, Ref.Eval.Cycles);
    EXPECT_EQ(R.ModelObjective, Ref.ModelObjective);
    EXPECT_EQ(R.Map.Factors, Ref.Map.Factors);
    EXPECT_EQ(R.Map.DramPerm, Ref.Map.DramPerm);
    EXPECT_EQ(R.Map.PePerm, Ref.Map.PePerm);
    EXPECT_EQ(R.BestPePerm, Ref.BestPePerm);
    EXPECT_EQ(R.BestDramPerm, Ref.BestDramPerm);
    EXPECT_EQ(R.Arch.NumPEs, Ref.Arch.NumPEs);
    EXPECT_EQ(R.Arch.RegWordsPerPE, Ref.Arch.RegWordsPerPE);
    EXPECT_EQ(R.Arch.SramWords, Ref.Arch.SramWords);
    // Merged stats, not just the winner, must match.
    EXPECT_EQ(R.Stats.PairsTotal, Ref.Stats.PairsTotal);
    EXPECT_EQ(R.Stats.PairsSolved, Ref.Stats.PairsSolved);
    EXPECT_EQ(R.Stats.PairsSkippedBySymmetry,
              Ref.Stats.PairsSkippedBySymmetry);
    EXPECT_EQ(R.Stats.NewtonIterations, Ref.Stats.NewtonIterations);
    EXPECT_EQ(R.Stats.GpInfeasible, Ref.Stats.GpInfeasible);
    EXPECT_EQ(R.Stats.CandidatesEvaluated, Ref.Stats.CandidatesEvaluated);
  }
}

TEST(Optimizer, ReportsWinningPermutations) {
  Problem P = makeConvProblem(smallConv());
  ThistleResult R = optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(),
                                  fastOptions());
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.BestPePerm.size(), 4u);   // k, c, h, w.
  EXPECT_EQ(R.BestDramPerm.size(), 4u);
  EXPECT_GT(R.ModelObjective, 0.0);
  // The model estimate should be in the ballpark of the evaluated energy
  // (same counting rules, modulo rounding and halo bounds).
  EXPECT_GT(R.Eval.EnergyPj, 0.2 * R.ModelObjective);
  EXPECT_LT(R.Eval.EnergyPj, 5.0 * R.ModelObjective);
}

// ---- Robustness: validation, deadlines, graceful degradation --------------

#include "support/FaultInjection.h"

#include <chrono>

TEST(Optimizer, RejectsInvalidArchitecture) {
  Problem P = makeConvProblem(smallConv());
  ArchConfig Bad = eyerissArch();
  Bad.NumPEs = 0;
  ThistleResult R =
      optimizeLayer(P, Bad, TechParams::cgo45nm(), fastOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  // Nothing ran: the report is empty rather than full of failures.
  EXPECT_EQ(R.Report.total(), 0u);
}

TEST(Optimizer, RejectsNonPositiveAreaBudget) {
  Problem P = makeConvProblem(smallConv());
  ThistleOptions O = fastOptions();
  O.Mode = DesignMode::CoDesign;
  ThistleResult R = optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(),
                                  O, /*AreaBudgetUm2=*/0.0);
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
}

TEST(Optimizer, RejectsInputsWithTheirTexts) {
  // The whole diagnostic of every input check, on both overloads: what
  // the caller controls is checked once, before any GP is built.
  const Problem P = makeConvProblem(smallConv());
  const TechParams Tech = TechParams::cgo45nm();
  ThistleOptions Dataflow = fastOptions(), CoDesign = fastOptions();
  CoDesign.Mode = DesignMode::CoDesign;
  ArchConfig NoPEs = eyerissArch();
  NoPEs.NumPEs = 0;
  TechParams NoSigma = Tech, NoMacArea = Tech;
  NoSigma.SigmaRegPj = 0.0;
  NoMacArea.AreaMacUm2 = -1.0;
  const Hierarchy Machine = Hierarchy::classic3Level(eyerissArch(), Tech);
  const std::string Prefix = "invalid-argument: validating optimizer inputs: ";
  struct Case {
    ThistleResult R;
    std::string Want;
  } Cases[] = {
      {optimizeLayer(P, NoPEs, Tech, Dataflow),
       "fixed architecture needs positive capacities (RegWordsPerPE=512, "
       "SramWords=65536, NumPEs=0)"},
      {optimizeLayer(P, eyerissArch(), Tech, CoDesign, 0.0),
       "co-design area budget (um^2) must be positive and finite, got "
       "0.000000"},
      {optimizeLayer(P, eyerissArch(), NoSigma, Dataflow),
       "tech SigmaRegPj must be positive and finite, got 0.000000"},
      {optimizeLayer(P, eyerissArch(), NoMacArea, CoDesign, 1e6),
       "tech AreaMacUm2 must be positive and finite, got -1.000000"},
      {optimizeLayer(P, Machine, Tech, CoDesign, {}, 0.0),
       "co-design area budget (um^2) must be positive and finite, got "
       "0.000000"},
  };
  for (const Case &C : Cases) {
    EXPECT_EQ(C.R.InputStatus.toString(), Prefix + C.Want);
    EXPECT_FALSE(C.R.Found);
    EXPECT_EQ(C.R.Report.total(), 0u);
  }
  // The network driver runs the same check once; it reads no layer, so
  // its context names none.
  NetworkOptions NO;
  NO.Layer = Dataflow;
  const NetworkResult N = optimizeNetwork({smallConv()}, NoPEs, Tech, NO);
  EXPECT_EQ(N.InputStatus.toString(),
            "invalid-argument: validating network inputs: " + Cases[0].Want);
  EXPECT_EQ(N.Report.total(), 0u);
}

TEST(Optimizer, ExpiredDeadlineSkipsAllPairs) {
  Problem P = makeConvProblem(smallConv());
  ThistleOptions O = fastOptions();
  O.DeadlineAt = std::chrono::steady_clock::now() - std::chrono::hours(1);
  ThistleResult R =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.InputStatus.isOk()); // Inputs were fine; time was not.
  EXPECT_TRUE(R.Report.DeadlineExpired);
  EXPECT_EQ(R.Report.Skipped, R.Report.total());
  EXPECT_GT(R.Report.Skipped, 0u);
}

TEST(Optimizer, FarFutureDeadlineMatchesUnboundedRun) {
  Problem P = makeConvProblem(smallConv());
  ThistleOptions O = fastOptions();
  ThistleResult Ref =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
  ASSERT_TRUE(Ref.Found);
  O.DeadlineAt = std::chrono::steady_clock::now() + std::chrono::hours(24);
  ThistleResult R =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Eval.EnergyPj, Ref.Eval.EnergyPj);
  EXPECT_EQ(R.ModelObjective, Ref.ModelObjective);
  EXPECT_EQ(R.Map.Factors, Ref.Map.Factors);
  EXPECT_FALSE(R.Report.DeadlineExpired);
  // fastOptions caps the pair list, so the only skips are the cap's own
  // policy skips — identical to the unbounded-deadline reference.
  EXPECT_EQ(R.Report.Skipped, R.Report.SkippedByPolicy);
  EXPECT_EQ(R.Report.Skipped, Ref.Report.Skipped);
}

#if THISTLE_FAULT_INJECTION_ENABLED

namespace {

struct OptFaultGuard {
  ~OptFaultGuard() { fault::disarmAll(); }
};

} // namespace

TEST(Optimizer, PoisonedPairDegradesGracefully) {
  OptFaultGuard G;
  Problem P = makeConvProblem(smallConv());
  ThistleOptions O = fastOptions();
  O.Threads = 1;

  // Kill exactly pair task 0; the sweep must return the optimum over
  // the remaining pairs and name the loss in the report.
  fault::arm("thistle.pair", /*Key=*/0, /*MaxHits=*/1);
  ThistleResult Ref =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
  ASSERT_TRUE(Ref.Found);
  EXPECT_FALSE(Ref.Report.clean());
  EXPECT_EQ(Ref.Report.Failed, 1u);
  ASSERT_GE(Ref.Report.Incidents.size(), 1u);
  const SweepIncident *Poisoned = nullptr;
  for (const SweepIncident &I : Ref.Report.Incidents)
    if (I.Outcome == TaskOutcome::Failed)
      Poisoned = &I;
  ASSERT_NE(Poisoned, nullptr);
  EXPECT_EQ(Poisoned->Index, 0u);
  EXPECT_NE(Poisoned->Detail.find("injected"), std::string::npos);

  // The degraded result is bit-identical at every thread count: the
  // injection is keyed on the global task index, which does not depend
  // on the shard layout.
  for (unsigned Threads : {2u, 8u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    fault::arm("thistle.pair", /*Key=*/0, /*MaxHits=*/1);
    O.Threads = Threads;
    ThistleResult R =
        optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.Eval.EnergyPj, Ref.Eval.EnergyPj);
    EXPECT_EQ(R.ModelObjective, Ref.ModelObjective);
    EXPECT_EQ(R.Map.Factors, Ref.Map.Factors);
    EXPECT_EQ(R.Report.Failed, Ref.Report.Failed);
    EXPECT_EQ(R.Report.Solved, Ref.Report.Solved);
    ASSERT_EQ(R.Report.Incidents.size(), Ref.Report.Incidents.size());
    for (std::size_t I = 0; I < R.Report.Incidents.size(); ++I)
      EXPECT_EQ(R.Report.Incidents[I].Index, Ref.Report.Incidents[I].Index);
  }
}

TEST(Optimizer, CleanRunReportIsClean) {
  Problem P = makeConvProblem(smallConv());
  ThistleResult R = optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(),
                                  fastOptions());
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Report.clean());
  EXPECT_EQ(R.Report.Failed, 0u);
  // The pair cap's policy skips are recorded (so counts cover the whole
  // pruned pair universe) without making the sweep unclean.
  EXPECT_EQ(R.Report.Skipped, R.Report.SkippedByPolicy);
  EXPECT_EQ(R.Report.total(),
            R.Stats.PairsTotal - R.Stats.PairsSkippedBySymmetry);
  EXPECT_EQ(R.Stats.PairsSolved, R.Report.Solved + R.Report.Degraded);
}

// The accounting invariant the PairsSolved fix pins down: whatever a
// sweep loses — injected faults, an expired deadline, the pair cap —
// the stats must agree with the report, and the report must cover the
// full post-pruning pair universe. Historically PairsSolved was
// assigned the planned count before the sweep ran, so any lost pair
// broke the first equality.
TEST(Optimizer, StatsAgreeWithReportUnderFaults) {
  OptFaultGuard G;
  Problem P = makeConvProblem(smallConv());

  struct Case {
    const char *Label;
    bool Fault;
    bool ExpiredDeadline;
    unsigned Cap;
  } Cases[] = {
      {"injected fault", true, false, 12},
      {"expired deadline", false, true, 12},
      {"live pair cap", false, false, 3},
      {"fault under cap", true, false, 5},
  };
  for (const Case &C : Cases) {
    for (unsigned Threads : {1u, 8u}) {
      SCOPED_TRACE(std::string(C.Label) + ", " +
                   std::to_string(Threads) + " threads");
      ThistleOptions O = fastOptions();
      O.MaxPermClassPairs = C.Cap;
      O.Threads = Threads;
      if (C.ExpiredDeadline)
        O.DeadlineAt =
            std::chrono::steady_clock::now() - std::chrono::hours(1);
      if (C.Fault)
        fault::arm("thistle.pair", /*Key=*/1, /*MaxHits=*/1);
      ThistleResult R =
          optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(), O);
      fault::disarmAll();
      EXPECT_EQ(R.Stats.PairsSolved, R.Report.Solved + R.Report.Degraded);
      EXPECT_EQ(R.Report.total(),
                R.Stats.PairsTotal - R.Stats.PairsSkippedBySymmetry);
      EXPECT_LE(R.Stats.PairsSolved, R.Stats.PairsPlanned);
      EXPECT_EQ(R.Stats.PairsPlanned + R.Report.SkippedByPolicy,
                R.Stats.PairsTotal - R.Stats.PairsSkippedBySymmetry);
      if (C.Fault) {
        EXPECT_EQ(R.Report.Failed, 1u);
        EXPECT_LT(R.Stats.PairsSolved, R.Stats.PairsPlanned);
      }
      if (C.ExpiredDeadline) {
        EXPECT_TRUE(R.Report.DeadlineExpired);
        EXPECT_EQ(R.Stats.PairsSolved, 0u);
      }
      if (C.Cap < 12) {
        EXPECT_GT(R.Report.SkippedByPolicy, 0u);
      }
    }
  }
}

#endif // THISTLE_FAULT_INJECTION_ENABLED
