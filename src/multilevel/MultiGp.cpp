//===- multilevel/MultiGp.cpp - L-level GP sweep --------------------------===//

#include "multilevel/MultiGp.h"

#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/PairSweep.h"
#include "thistle/PermutationSpace.h"
#include "thistle/Rounding.h"

#include <algorithm>
#include <cmath>
#include <exception>

using namespace thistle;

MultiResult thistle::optimizeHierarchy(const Problem &Prob,
                                       const Hierarchy &H,
                                       const MultiOptions &Options) {
  {
    MultiResult Invalid;
    std::string HierErr = H.validate();
    if (!HierErr.empty()) {
      Invalid.InputStatus = Status::invalidArgument(std::move(HierErr))
                                .withContext("validating hierarchy");
      return Invalid;
    }
    if (Options.CoDesignCapacities &&
        !(Options.AreaBudgetUm2 > 0.0 &&
          std::isfinite(Options.AreaBudgetUm2))) {
      Invalid.InputStatus =
          Status::invalidArgument(
              "capacity co-design needs a positive finite area budget, "
              "got " + std::to_string(Options.AreaBudgetUm2))
              .withContext("validating multilevel options");
      return Invalid;
    }
  }
  const unsigned L = H.numLevels();
  const unsigned NumIters = Prob.numIterators();
  MultiResult Result;

  // Tiled iterators (extent > 1, not named untiled).
  std::vector<unsigned> Tiled;
  for (unsigned I = 0; I < NumIters; ++I) {
    const Iterator &It = Prob.iterators()[I];
    if (It.Extent <= 1)
      continue;
    if (std::find(Options.UntiledIterNames.begin(),
                  Options.UntiledIterNames.end(),
                  It.Name) == Options.UntiledIterNames.end())
      Tiled.push_back(I);
  }

  // Permutation classes shared by every permuted level; combinations are
  // spread evenly under the cap.
  std::vector<PermClass> Classes = enumeratePermClasses(Prob, Tiled);
  const unsigned NumSlots = L - 1;
  double TotalCombos = std::pow(static_cast<double>(Classes.size()),
                                static_cast<double>(NumSlots));
  std::size_t Combos = static_cast<std::size_t>(
      std::min<double>(TotalCombos, Options.MaxPermCombos));

  // One shard-local accumulator of the combo sweep: the local winner plus
  // the solver counters. Combos fold into these independently and the
  // shards merge in combo order with a strict minimum, so the reduction
  // reproduces the serial first-minimum winner at every thread count
  // (each combo's Tried budget is already per-combo, and the serial
  // incumbent never pruned later combos).
  struct ComboAcc {
    RoundedHierarchyDesign Design;
    double ModelObjective = 0.0;
    double BestObj = 0.0;
    unsigned CombosSolved = 0;
    unsigned GpInfeasible = 0;
    SweepReport Report;
  };

  std::chrono::steady_clock::time_point DeadlineAt;
  const bool HasDeadline =
      resolveSweepDeadline(Options.Deadline, Options.DeadlineAt, DeadlineAt);

  // What every combo's GP shares: spatial stencil unrolling on, as the
  // pair sweep builds.
  HierarchyGpSpec Base;
  Base.Mode = Options.CoDesignCapacities ? DesignMode::CoDesign
                                         : DesignMode::DataflowOnly;
  Base.Objective = Options.Objective;
  Base.TiledIters = Tiled;
  Base.Tech = Options.Tech;
  Base.AreaBudgetUm2 = Options.AreaBudgetUm2;
  RoundingOptions Rounding;
  Rounding.NumCandidates = Options.NumCandidates;
  Rounding.MaxMappingCandidates = Options.MaxMappingCandidates;
  Rounding.Evaluator = Options.Evaluator;

  // The build -> solve -> halo fallback -> extract -> round chain of one
  // combination, as runPairTask runs one pair; runCombo below wraps it
  // with the deadline/fault/exception guards.
  auto comboBody = [&](ComboAcc &Local, std::size_t Combo,
                       std::size_t FullIndex) {
    // Level 1's class is the most significant digit, as the pair sweep
    // orders (PE class, DRAM class), so ties break alike.
    HierarchyGpSpec Spec = Base;
    Spec.Perms.resize(L);
    std::size_t Index = FullIndex;
    for (unsigned Slot = L; Slot-- > 1;) {
      Spec.Perms[Slot] = Classes[Index % Classes.size()].Representative;
      Index /= Classes.size();
    }

    GpSolveReport Solve;
    GpBuild Build = buildGp(Prob, H, Spec);
    GpSolution Sol = solveGpWithRetry(Build.Gp, Options.Solver, &Solve);
    unsigned Attempts = Solve.attempts();
    if (!Sol.Feasible) {
      // The drop-negative halo bound can reject tiny register files
      // that are actually feasible; retry with the product bound.
      Spec.Halo = HaloBound::ProductOfTerms;
      Build = buildGp(Prob, H, Spec);
      GpSolveReport Fallback;
      Sol = solveGpWithRetry(Build.Gp, Options.Solver, &Fallback);
      Attempts += Fallback.attempts();
    }
    ++Local.CombosSolved;
    telemetry::count("multigp.combos.solved");
    if (!Sol.Feasible || Sol.Outcome == SolveOutcome::NonFinite) {
      ++Local.GpInfeasible;
      telemetry::count("multigp.combos.infeasible");
      Local.Report.record(Sol.Outcome == SolveOutcome::Infeasible
                              ? TaskOutcome::Infeasible
                              : TaskOutcome::Failed,
                          Combo, FullIndex, 0, Attempts,
                          Sol.Failure.empty()
                              ? std::string(solveOutcomeName(Sol.Outcome))
                              : Sol.Failure);
      return;
    }
    // Feasible but unconverged iterates are still rounded (Degraded),
    // exactly as the sweep has always done.
    Local.Report.record(Sol.Converged ? TaskOutcome::Solved
                                      : TaskOutcome::Degraded,
                        Combo, FullIndex, 0, Attempts,
                        Sol.Converged ? std::string() : Sol.Failure);

    RoundedHierarchyDesign Design = roundSolution(
        Prob, H, Spec, extractSolution(H, Build, Sol), Rounding);
    if (!Design.Found)
      return;
    double Obj = objectiveValue(Design.Eval, Options.Objective);
    if (!Local.Design.Found || Obj < Local.BestObj) {
      Local.Design = std::move(Design);
      Local.ModelObjective = Sol.Objective;
      Local.BestObj = Obj;
    }
  };

  auto runCombo = [&](ComboAcc &Local, std::size_t Combo) {
    // Spread combo indices across the full space when capped.
    const std::size_t FullIndex = static_cast<std::size_t>(
        TotalCombos <= Options.MaxPermCombos
            ? static_cast<double>(Combo)
            : std::floor(static_cast<double>(Combo) * TotalCombos /
                         static_cast<double>(Combos)));
    telemetry::TraceScope ComboSpan("multigp.combo", Combo);

    if (HasDeadline && std::chrono::steady_clock::now() >= DeadlineAt) {
      Local.Report.DeadlineExpired = true;
      Local.Report.record(TaskOutcome::Skipped, Combo, FullIndex, 0, 0,
                          "deadline expired before the combo was attempted");
      return;
    }
    if (fault::shouldFail("multigp.combo",
                          static_cast<std::int64_t>(Combo))) {
      Local.Report.record(TaskOutcome::Failed, Combo, FullIndex, 0, 0,
                          "injected fault at site multigp.combo");
      return;
    }
    try {
      comboBody(Local, Combo, FullIndex);
    } catch (const std::exception &E) {
      Local.Report.record(TaskOutcome::Failed, Combo, FullIndex, 0, 0,
                          std::string("exception: ") + E.what());
    }
  };

  telemetry::beginEpoch();
  telemetry::TraceScope SweepSpan("multigp.optimize_hierarchy");
  telemetry::count("multigp.sweeps");
  ThreadPool Pool(Options.Threads);
  ComboAcc Best = parallelReduce(
      Pool, Combos, ComboAcc(),
      [&](ComboAcc &Local, std::size_t Combo) { runCombo(Local, Combo); },
      [](ComboAcc &Acc, ComboAcc &&Local) {
        Acc.CombosSolved += Local.CombosSolved;
        Acc.GpInfeasible += Local.GpInfeasible;
        Acc.Report.merge(std::move(Local.Report));
        if (Local.Design.Found &&
            (!Acc.Design.Found || Local.BestObj < Acc.BestObj)) {
          Acc.Design = std::move(Local.Design);
          Acc.ModelObjective = Local.ModelObjective;
          Acc.BestObj = Local.BestObj;
        }
      });
  if (telemetry::traceEnabled())
    SweepSpan.setDetail("combos=" + std::to_string(Combos) + " solved=" +
                        std::to_string(Best.Report.Solved) + " degraded=" +
                        std::to_string(Best.Report.Degraded));
  Result.CombosSolved = Best.CombosSolved;
  Result.GpInfeasible = Best.GpInfeasible;
  Result.Report = std::move(Best.Report);
  if (Best.Design.Found) {
    Result.Found = true;
    Result.Map = std::move(Best.Design.Map);
    Result.Eval = std::move(Best.Design.Eval);
    Result.Arch = std::move(Best.Design.Arch);
    Result.ModelObjective = Best.ModelObjective;
  }
  return Result;
}
