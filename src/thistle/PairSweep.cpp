//===- thistle/PairSweep.cpp - Shared perm-class pair sweep core ----------===//

#include "thistle/PairSweep.h"

#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/GpCache.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <exception>
#include <iterator>
#include <tuple>
#include <utility>

using namespace thistle;

namespace {

/// Per-shard state of one layer: the best design one worker saw plus its
/// stat deltas. Shards never share state on the hot path; accumulators
/// are merged in shard order once the grid drains.
struct SweepAccumulator {
  bool Found = false;
  double Obj = 0.0;
  std::size_t Task = 0; ///< The winner's index in the plan.
  RoundedDesign Design; ///< The winner on classic3.
  RoundedHierarchyDesign Multi; ///< The winner on any other machine.
  double ModelObjective = 0.0;
  unsigned NewtonIterations = 0;
  unsigned GpInfeasible = 0;
  std::size_t CandidatesEvaluated = 0;
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  SweepReport Report;
};

/// One layer's share of a grid: the cache it reads and writes (null off
/// classic3) with its key material, formatted once, and the run-wide
/// number of its first task.
struct GridLayer {
  const PairSweepContext &Ctx;
  GpSolutionCache *Cache;
  GpCacheKeyMaterial Keys;
  std::size_t FirstTask;
};

/// The deterministic winner order, lexicographic on (objective, task
/// index): on classic3, (objective, QI, SI). It reproduces the
/// sequential sweep exactly, where a later task only displaced the
/// incumbent on a strictly smaller objective.
bool pairWinsOver(double Obj, std::size_t TaskIdx,
                  const SweepAccumulator &Acc) {
  return !Acc.Found || std::tie(Obj, TaskIdx) < std::tie(Acc.Obj, Acc.Task);
}

/// Replays a cached pair outcome into the accumulator: the same report
/// record, stat deltas, telemetry counts and winner update the miss
/// path would have produced, without building or solving the GP.
void replayCacheEntry(const GpCacheEntry &Entry, const PairTask &Task,
                      std::size_t TaskIdx, SweepAccumulator &Acc) {
  Acc.NewtonIterations += Entry.NewtonIterations;
  if (Entry.GpInfeasible)
    ++Acc.GpInfeasible;
  Acc.Report.record(Entry.Outcome, TaskIdx, Task.QI, Task.SI,
                    Entry.Attempts, Entry.Detail);
  if (Entry.Outcome != TaskOutcome::Solved &&
      Entry.Outcome != TaskOutcome::Degraded)
    return;
  telemetry::count("thistle.pairs.solved");
  Acc.CandidatesEvaluated += Entry.Design.CandidatesTried;
  if (telemetry::metricsEnabled())
    telemetry::count("thistle.rounding.candidates",
                     Entry.Design.CandidatesTried);
  if (!Entry.Design.Found)
    return;
  if (telemetry::metricsEnabled() && Entry.ModelObjective > 0.0)
    telemetry::observe("thistle.rounding.rel_delta",
                       (Entry.Obj - Entry.ModelObjective) /
                           Entry.ModelObjective);
  if (pairWinsOver(Entry.Obj, TaskIdx, Acc)) {
    Acc.Found = true;
    Acc.Obj = Entry.Obj;
    Acc.Task = TaskIdx;
    Acc.Design = Entry.Design;
    Acc.ModelObjective = Entry.ModelObjective;
  }
}

/// The permutation of every level of \p Task: Perms[l] for 1 <= l < L,
/// as HierarchyGpSpec::Perms holds them.
std::vector<std::vector<unsigned>> taskPerms(const LayerSweepPlan &Plan,
                                             const PairTask &Task,
                                             unsigned NumLevels) {
  std::vector<std::vector<unsigned>> Perms(NumLevels);
  Perms[1] = Plan.Classes[Task.QI].Representative;
  for (std::size_t M = 0; M < Task.Middle.size(); ++M)
    Perms[M + 2] = Plan.Classes[Task.Middle[M]].Representative;
  Perms[NumLevels - 1] = Plan.Classes[Task.SI].Representative;
  return Perms;
}

} // namespace

LayerSweepPlan thistle::planLayerSweep(const Problem &Prob,
                                       const ThistleOptions &Options,
                                       unsigned PermutedLevels) {
  LayerSweepPlan Plan;
  // The tiled iterators: extent > 1 and not in the untiled list.
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    const Iterator &It = Prob.iterators()[I];
    if (It.Extent > 1 && std::find(Options.UntiledIterNames.begin(),
                                   Options.UntiledIterNames.end(),
                                   It.Name) == Options.UntiledIterNames.end())
      Plan.TiledIters.push_back(I);
  }

  // The class enumeration is a function of the problem and the tiled
  // iterator set only, so every permuted level shares it.
  Plan.Classes = enumeratePermClasses(Prob, Plan.TiledIters);
  for (const PermClass &C : Plan.Classes)
    Plan.RawPermsPerLevel += C.MemberCount;
  const std::size_t NumClasses = Plan.Classes.size();
  std::uint64_t Tuples = 1;
  for (unsigned L = 0; L < PermutedLevels; ++L) {
    Tuples *= NumClasses;
    if (Tuples > MaxSweepTuples)
      return Plan;
  }

  const std::vector<ProblemSymmetry> Symmetries = findProblemSymmetries(Prob);

  // Symmetry pruning (the paper's H/W pruning) skips a tuple if a problem
  // symmetry maps it to a lexicographically smaller tuple (its mirror
  // image was/will be solved instead). The comparison is lexicographic
  // from level 1 outward, so it only needs each class's image under
  // each symmetry ordered against the class itself, computed once per
  // class here.
  std::vector<std::vector<std::strong_ordering>> MappedOrder(
      Symmetries.size());
  for (std::size_t K = 0; K < Symmetries.size(); ++K)
    for (const PermClass &C : Plan.Classes)
      MappedOrder[K].push_back(
          C.Signature.mapped(Symmetries[K].IterMap,
                             Symmetries[K].TensorMap) <=> C.Signature);

  // Pruning and the cap depend on the enumeration order, so the task
  // list is fixed here, before any fan-out. Digits is an odometer over
  // the tuples in lexicographic order, level 1's class first.
  std::vector<std::size_t> Digits(PermutedLevels, 0);
  std::vector<PairTask> Survivors;
  for (std::uint64_t T = 0; T < Tuples; ++T) {
    const bool Pruned = std::any_of(
        MappedOrder.begin(), MappedOrder.end(), [&](const auto &Order) {
          for (std::size_t D : Digits)
            if (Order[D] != 0)
              return Order[D] < 0;
          return false;
        });
    if (!Pruned) {
      PairTask Task{Digits.front(), Digits.back(), {}};
      if (Digits.size() > 2)
        Task.Middle.assign(Digits.begin() + 1, Digits.end() - 1);
      Survivors.push_back(std::move(Task));
    }
    // Advance: the outermost level's class is the least significant.
    for (std::size_t L = PermutedLevels; L-- > 0 && ++Digits[L] == NumClasses;)
      Digits[L] = 0;
  }
  Plan.PairsTotal = static_cast<unsigned>(Tuples);
  Plan.PairsSkippedBySymmetry =
      static_cast<unsigned>(Tuples - Survivors.size());

  const std::size_t Cap = Options.MaxPermClassPairs
                              ? Options.MaxPermClassPairs
                              : NumClasses * NumClasses;
  if (Survivors.size() <= Cap) {
    Plan.Pairs = std::move(Survivors);
    return Plan;
  }
  // Under the cap, planned task i is survivor floor(i*N/Cap): the plan
  // spreads evenly over the survivors.
  for (std::size_t I = 0; I < Cap; ++I)
    Plan.Pairs.push_back(std::move(Survivors[I * Survivors.size() / Cap]));
  Plan.Capped = static_cast<unsigned>(Survivors.size() - Cap);
  return Plan;
}

std::chrono::steady_clock::time_point
thistle::sweepDeadline(const ThistleOptions &Options) {
  if (Options.DeadlineAt != std::chrono::steady_clock::time_point{} ||
      Options.Deadline.count() <= 0)
    return Options.DeadlineAt;
  return std::chrono::steady_clock::now() + Options.Deadline;
}

namespace {

/// Runs one planned task of \p Layer end to end, folding its outcome
/// into \p Acc. Never throws: failures become report incidents.
void runPairTask(const GridLayer &Layer,
                 std::chrono::steady_clock::time_point DeadlineAt,
                 std::size_t TaskIdx, SweepAccumulator &Acc) {
  const PairSweepContext &Ctx = Layer.Ctx;
  const LayerSweepPlan &Plan = Ctx.Plan;
  const ThistleOptions &Options = Ctx.Options;
  const PairTask &Task = Plan.Pairs[TaskIdx];
  telemetry::TraceScope PairSpan("thistle.pair", Layer.FirstTask + TaskIdx);

  // The thistle.deadline site expires the deadline for one task, as a
  // clock past it would.
  if (DeadlineAt != std::chrono::steady_clock::time_point{} &&
      (fault::shouldFail("thistle.deadline",
                         static_cast<std::int64_t>(TaskIdx)) ||
       std::chrono::steady_clock::now() >= DeadlineAt)) {
    Acc.Report.DeadlineExpired = true;
    Acc.Report.record(TaskOutcome::Skipped, TaskIdx, Task.QI, Task.SI, 0,
                      "deadline expired before the pair was attempted");
    return;
  }
  if (fault::shouldFail("thistle.pair",
                        static_cast<std::int64_t>(TaskIdx))) {
    Acc.Report.record(TaskOutcome::Failed, TaskIdx, Task.QI, Task.SI, 0,
                      "injected fault at site thistle.pair");
    return;
  }

  // Cache hit: replay the recorded outcome and skip the solve.
  // Deadline- and fault-killed tasks never reach the insert below, so
  // what is replayed is always a genuinely computed outcome.
  std::string Key;
  if (Layer.Cache) {
    Key = gpCacheKey(Layer.Keys, Plan.Classes[Task.QI].Representative,
                     Plan.Classes[Task.SI].Representative);
    GpCacheEntry Hit;
    if (Layer.Cache->lookup(Key, Hit)) {
      ++Acc.CacheHits;
      telemetry::count("thistle.cache.hit");
      if (telemetry::traceEnabled())
        PairSpan.setDetail(std::string("cache-hit ") +
                           taskOutcomeName(Hit.Outcome));
      replayCacheEntry(Hit, Task, TaskIdx, Acc);
      return;
    }
    ++Acc.CacheMisses;
    telemetry::count("thistle.cache.miss");
  }

  try {
    HierarchyGpSpec Spec;
    Spec.Mode = Options.Mode;
    Spec.Objective = Options.Objective;
    Spec.Perms = taskPerms(Plan, Task, Ctx.Machine.numLevels());
    Spec.TiledIters = Plan.TiledIters;
    Spec.SpatialUntiled = Options.SpatialUntiled;
    Spec.Tech = Ctx.Tech;
    Spec.AreaBudgetUm2 = Ctx.AreaBudgetUm2;

    GpCacheEntry Entry;
    unsigned TaskNewton = 0;

    GpSolveReport Solve;
    GpBuild Build = buildGp(Ctx.Prob, Ctx.Machine, Spec);
    GpSolution Solution =
        solveGpWithRetry(Build.Gp, Options.Solver, &Solve);
    TaskNewton += Solution.NewtonIterations;
    unsigned Attempts = Solve.attempts();
    if (!Solution.Feasible) {
      // The drop-negative halo bound can reject tiny register files
      // that are actually feasible; retry with the product bound,
      // which is exact in the small-tile regime.
      Spec.Halo = HaloBound::ProductOfTerms;
      Build = buildGp(Ctx.Prob, Ctx.Machine, Spec);
      GpSolveReport Fallback;
      Solution = solveGpWithRetry(Build.Gp, Options.Solver, &Fallback);
      TaskNewton += Solution.NewtonIterations;
      Attempts += Fallback.attempts();
    }
    Acc.NewtonIterations += TaskNewton;
    Entry.NewtonIterations = TaskNewton;
    Entry.Attempts = Attempts;

    if (!Solution.Feasible ||
        Solution.Outcome == SolveOutcome::NonFinite) {
      // Keep the historical stat for ANY task that yields no feasible
      // iterate, whatever the cause, so Stats stay comparable.
      ++Acc.GpInfeasible;
      Entry.GpInfeasible = true;
      TaskOutcome Outcome =
          Solution.Outcome == SolveOutcome::Infeasible
              ? TaskOutcome::Infeasible
              : TaskOutcome::Failed;
      Entry.Outcome = Outcome;
      Entry.Detail = Solution.Failure.empty()
                         ? std::string(solveOutcomeName(Solution.Outcome))
                         : Solution.Failure;
      Acc.Report.record(Outcome, TaskIdx, Task.QI, Task.SI, Attempts,
                        Entry.Detail);
      if (telemetry::traceEnabled())
        PairSpan.setDetail(taskOutcomeName(Outcome));
      if (Layer.Cache)
        Layer.Cache->insert(Key, std::move(Entry));
      return;
    }
    // Feasible but not converged: accept the best iterate (as the
    // sweep always has), flagged Degraded in the report.
    Entry.Outcome = Solution.Converged ? TaskOutcome::Solved
                                       : TaskOutcome::Degraded;
    Entry.Detail = Solution.Converged ? std::string() : Solution.Failure;
    Acc.Report.record(Entry.Outcome, TaskIdx, Task.QI, Task.SI, Attempts,
                      Entry.Detail);

    if (telemetry::traceEnabled())
      PairSpan.setDetail(
          std::string(Solution.Converged ? "solved" : "degraded") +
          " attempts=" + std::to_string(Attempts));
    telemetry::count("thistle.pairs.solved");

    RealSolution Real = extractSolution(Ctx.Machine, Build, Solution);
    RoundedHierarchyDesign Design =
        roundSolution(Ctx.Prob, Ctx.Machine, Spec, Real, Options.Rounding);
    Acc.CandidatesEvaluated += Design.CandidatesTried;
    if (telemetry::metricsEnabled())
      telemetry::count("thistle.rounding.candidates",
                       Design.CandidatesTried);
    Entry.ModelObjective = Real.Objective;
    bool Wins = false;
    if (Design.Found) {
      const double Obj = objectiveValue(Design.Eval, Options.Objective);
      // The rounding gap: how much the integer design lost (or, rarely,
      // gained) relative to the relaxed GP optimum for this task.
      if (telemetry::metricsEnabled() && Real.Objective > 0.0)
        telemetry::observe("thistle.rounding.rel_delta",
                           (Obj - Real.Objective) / Real.Objective);
      Entry.Obj = Obj;
      Wins = pairWinsOver(Obj, TaskIdx, Acc);
      if (Wins) {
        Acc.Found = true;
        Acc.Obj = Obj;
        Acc.Task = TaskIdx;
        Acc.ModelObjective = Real.Objective;
      }
    }
    if (!Ctx.Classic) {
      if (Wins)
        Acc.Multi = std::move(Design);
      return;
    }
    RoundedDesign Classic = classicDesign(Ctx.Prob, *Ctx.Classic, Design);
    if (Layer.Cache) {
      Entry.Design = Classic;
      Layer.Cache->insert(Key, std::move(Entry));
    }
    if (Wins)
      Acc.Design = std::move(Classic);
  } catch (const std::exception &E) {
    Acc.Report.record(TaskOutcome::Failed, TaskIdx, Task.QI, Task.SI, 0,
                      std::string("exception: ") + E.what());
  }
}

/// Joins the next shard (ascending task order) into \p A.
void mergePairAccumulators(SweepAccumulator &A, SweepAccumulator &&B) {
  A.NewtonIterations += B.NewtonIterations;
  A.GpInfeasible += B.GpInfeasible;
  A.CandidatesEvaluated += B.CandidatesEvaluated;
  A.CacheHits += B.CacheHits;
  A.CacheMisses += B.CacheMisses;
  A.Report.merge(std::move(B.Report));
  if (B.Found && pairWinsOver(B.Obj, B.Task, A)) {
    A.Found = true;
    A.Obj = B.Obj;
    A.Task = B.Task;
    A.Design = std::move(B.Design);
    A.Multi = std::move(B.Multi);
    A.ModelObjective = B.ModelObjective;
  }
}

/// Assembles a layer's result from its drained accumulator: stats
/// (PairsSolved derived from the report outcomes), the report with the
/// plan's capped tuples, and the winning design.
void finishLayerResult(const LayerSweepPlan &Plan, SweepAccumulator &&Total,
                       ThistleResult &Result) {
  Result.Stats.PermClassesPerLevel =
      static_cast<unsigned>(Plan.Classes.size());
  Result.Stats.RawPermsPerLevel = Plan.RawPermsPerLevel;
  Result.Stats.PairsTotal = Plan.PairsTotal;
  Result.Stats.PairsSkippedBySymmetry = Plan.PairsSkippedBySymmetry;
  Result.Stats.PairsPlanned = static_cast<unsigned>(Plan.Pairs.size());
  Result.Stats.NewtonIterations = Total.NewtonIterations;
  Result.Stats.GpInfeasible = Total.GpInfeasible;
  Result.Stats.CandidatesEvaluated = Total.CandidatesEvaluated;
  Result.Stats.CacheHits = Total.CacheHits;
  Result.Stats.CacheMisses = Total.CacheMisses;
  Result.Report = std::move(Total.Report);
  // Capped tuples take the indices after the planned tasks, so their one
  // incident, which names the first and last, keeps the incident list in
  // ascending task order.
  if (Plan.Capped) {
    const std::size_t First = Plan.Pairs.size();
    Result.Report.recordPolicySkip(
        First, First, First + Plan.Capped - 1,
        std::to_string(Plan.Capped) +
            " tuples dropped by the MaxPermClassPairs pair cap",
        Plan.Capped);
  }
  // The fixed accounting: PairsSolved counts what actually produced an
  // iterate (clean or degraded), not what was planned.
  Result.Stats.PairsSolved = Result.Report.Solved + Result.Report.Degraded;
  if (Total.Found) {
    const PairTask &Best = Plan.Pairs[Total.Task];
    Result.Found = true;
    Result.Arch = Total.Design.Arch;
    Result.Map = std::move(Total.Design.Map);
    Result.Eval = Total.Design.Eval;
    Result.Multi = std::move(Total.Multi);
    Result.ModelObjective = Total.ModelObjective;
    Result.BestPePerm = Plan.Classes[Best.QI].Representative;
    Result.BestDramPerm = Plan.Classes[Best.SI].Representative;
  }
}

} // namespace

Status thistle::checkSweepInputs(const ThistleOptions &Options,
                                 const ArchConfig *Classic,
                                 const TechParams &Tech,
                                 double AreaBudgetUm2) {
  // The last four bound the co-design area only.
  const std::pair<double, const char *> Positive[] = {
      {Tech.SigmaRegPj, "tech SigmaRegPj"},
      {Tech.SigmaSramPj, "tech SigmaSramPj"},
      {AreaBudgetUm2, "co-design area budget (um^2)"},
      {Tech.AreaRegWordUm2, "tech AreaRegWordUm2"},
      {Tech.AreaSramWordUm2, "tech AreaSramWordUm2"},
      {Tech.AreaMacUm2, "tech AreaMacUm2"}};
  const bool CoDesign = Options.Mode == DesignMode::CoDesign;
  for (std::size_t I = 0; I < (CoDesign ? std::size(Positive) : 2); ++I)
    if (const auto &[Value, What] = Positive[I];
        !(Value > 0.0) || !std::isfinite(Value))
      return Status::invalidArgument(std::string(What) +
                                     " must be positive and finite, got " +
                                     std::to_string(Value));
  if (!CoDesign && Classic &&
      (Classic->RegWordsPerPE <= 0 || Classic->SramWords <= 0 ||
       Classic->NumPEs <= 0))
    return Status::invalidArgument(
        "fixed architecture needs positive capacities (RegWordsPerPE=" +
        std::to_string(Classic->RegWordsPerPE) +
        ", SramWords=" + std::to_string(Classic->SramWords) +
        ", NumPEs=" + std::to_string(Classic->NumPEs) + ")");
  return Status::ok();
}

std::vector<ThistleResult>
thistle::runPairSweep(const std::vector<PairSweepContext> &Layers,
                      const PairSweepGrid &Grid) {
  std::vector<GridLayer> Shares;
  Shares.reserve(Layers.size());
  std::size_t Next = Grid.FirstTask;
  for (const PairSweepContext &Ctx : Layers) {
    GridLayer Share{Ctx, Ctx.Classic ? Grid.Cache : nullptr, {}, Next};
    if (Share.Cache)
      Share.Keys = gpCacheKeyMaterial(Ctx.Prob, Ctx.Options, *Ctx.Classic,
                                      Ctx.Tech, Ctx.AreaBudgetUm2,
                                      Ctx.Plan.TiledIters);
    Shares.push_back(std::move(Share));
    Next += Ctx.Plan.Pairs.size();
  }

  using GridAccumulator = std::vector<SweepAccumulator>;
  GridAccumulator Total = parallelReduce(
      Grid.Pool, Next - Grid.FirstTask, GridAccumulator(Layers.size()),
      [&](GridAccumulator &Acc, std::size_t I) {
        // The shard partition is a pure function of the task number, so
        // every shard of every grid agrees on ownership without
        // coordination.
        const std::size_t Task = Grid.FirstTask + I;
        if (Task % Grid.ShardCount != Grid.ShardIndex)
          return;
        // The task belongs to the last layer that starts at or before it.
        const auto Owner =
            std::upper_bound(Shares.begin(), Shares.end(), Task,
                             [](std::size_t T, const GridLayer &L) {
                               return T < L.FirstTask;
                             }) -
            1;
        runPairTask(*Owner, Grid.DeadlineAt, Task - Owner->FirstTask,
                    Acc[Owner - Shares.begin()]);
      },
      [](GridAccumulator &A, GridAccumulator &&B) {
        for (std::size_t L = 0; L < A.size(); ++L)
          mergePairAccumulators(A[L], std::move(B[L]));
      });

  std::vector<ThistleResult> Results(Layers.size());
  for (std::size_t L = 0; L < Layers.size(); ++L)
    finishLayerResult(Layers[L].Plan, std::move(Total[L]), Results[L]);
  return Results;
}
