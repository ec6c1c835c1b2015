//===- thistle/Optimizer.cpp - Thistle design-space optimizer -------------===//

#include "thistle/Optimizer.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/PairSweep.h"

#include <optional>
#include <string>
#include <utility>

using namespace thistle;

const char *thistle::modeName(DesignMode Mode) {
  return Mode == DesignMode::CoDesign ? "codesign" : "dataflow";
}

const char *thistle::objectiveName(SearchObjective Objective) {
  return Objective == SearchObjective::Energy  ? "energy"
         : Objective == SearchObjective::Delay ? "delay"
                                               : "edp";
}

bool thistle::parseMode(std::string_view Name, DesignMode &Out) {
  for (DesignMode Mode : {DesignMode::DataflowOnly, DesignMode::CoDesign})
    if (Name == modeName(Mode)) {
      Out = Mode;
      return true;
    }
  return false;
}

bool thistle::parseObjective(std::string_view Name, SearchObjective &Out) {
  for (SearchObjective Objective :
       {SearchObjective::Energy, SearchObjective::Delay,
        SearchObjective::EnergyDelayProduct})
    if (Name == objectiveName(Objective)) {
      Out = Objective;
      return true;
    }
  return false;
}

ThistleResult thistle::optimizeLayer(const Problem &Prob,
                                     const ArchConfig &Arch,
                                     const TechParams &Tech,
                                     const ThistleOptions &Options,
                                     double AreaBudgetUm2) {
  return optimizeLayer(Prob, Arch, Tech, Options, LayerRunContext{},
                       AreaBudgetUm2);
}

namespace {

/// The sweep of one layer on \p Machine; \p Classic is its ArchConfig
/// when Machine is classic3Level(*Classic, Tech), else null.
ThistleResult sweepLayer(const Problem &Prob, const Hierarchy &Machine,
                         const ArchConfig *Classic, const TechParams &Tech,
                         const ThistleOptions &Options,
                         const LayerRunContext &Run, double AreaBudgetUm2) {
  ThistleResult Result;

  // Validate the user-reachable inputs once, before any GP is built.
  // The per-task permutations come from our own enumeration, so an
  // empty-permutation spec covers everything the caller controls. Only
  // classic3 has an ArchConfig to check; another machine checks itself,
  // and the probe's default one passes.
  if (!Classic)
    if (std::string Error = Machine.validate(); !Error.empty()) {
      Result.InputStatus = Status::invalidArgument(std::move(Error))
                               .withContext("validating hierarchy");
      return Result;
    }
  {
    GpBuildSpec Probe;
    Probe.Mode = Options.Mode;
    Probe.Objective = Options.Objective;
    Probe.TiledIters = tiledIterators(Prob, Options);
    if (Classic)
      Probe.Arch = *Classic;
    Probe.Tech = Tech;
    Probe.AreaBudgetUm2 = AreaBudgetUm2;
    Result.InputStatus = validateGpBuildSpec(Prob, Probe)
                             .withContext("validating optimizer inputs");
    if (!Result.InputStatus.isOk())
      return Result;
  }

  LayerSweepPlan Plan =
      planLayerSweep(Prob, Options, Machine.numLevels() - 1);
  if (Plan.PairsTotal == 0) {
    Result.InputStatus =
        Status::invalidArgument(
            std::to_string(Plan.Classes.size()) + " classes on each of " +
            std::to_string(Machine.numLevels() - 1) +
            " permuted levels make more than " +
            std::to_string(MaxSweepTuples) + " tuples to plan")
            .withContext("planning the sweep");
    return Result;
  }

  PairSweepContext Ctx{Prob, Plan, Options, Machine, Classic, Tech,
                       AreaBudgetUm2};
  Ctx.Cache = Classic ? Run.Cache : nullptr;
  if (Ctx.Cache)
    Ctx.CacheKeys = gpCacheKeyMaterial(Prob, Options, *Classic, Tech,
                                       AreaBudgetUm2, Plan.TiledIters);
  Ctx.HasDeadline = resolveSweepDeadline(Options.Deadline,
                                         Options.DeadlineAt, Ctx.DeadlineAt);

  telemetry::beginEpoch();
  telemetry::TraceScope SweepSpan("thistle.optimize_layer");
  telemetry::count("thistle.sweeps");
  std::optional<ThreadPool> OwnPool;
  if (!Run.Pool)
    OwnPool.emplace(Options.Threads);
  ThreadPool &Pool = Run.Pool ? *Run.Pool : *OwnPool;
  SweepAccumulator Total = parallelReduce(
      Pool, Plan.Pairs.size(), SweepAccumulator{},
      [&Ctx](SweepAccumulator &Acc, std::size_t TaskIdx) {
        runPairTask(Ctx, TaskIdx, Acc);
      },
      [](SweepAccumulator &A, SweepAccumulator &&B) {
        mergePairAccumulators(A, std::move(B));
      });
  if (telemetry::traceEnabled())
    SweepSpan.setDetail("pairs=" + std::to_string(Plan.Pairs.size()) +
                        " solved=" + std::to_string(Total.Report.Solved) +
                        " degraded=" +
                        std::to_string(Total.Report.Degraded));

  finishLayerResult(Plan, std::move(Total), Result);
  return Result;
}

} // namespace

ThistleResult thistle::optimizeLayer(const Problem &Prob,
                                     const ArchConfig &Arch,
                                     const TechParams &Tech,
                                     const ThistleOptions &Options,
                                     const LayerRunContext &Run,
                                     double AreaBudgetUm2) {
  return sweepLayer(Prob, Hierarchy::classic3Level(Arch, Tech), &Arch, Tech,
                    Options, Run, AreaBudgetUm2);
}

ThistleResult thistle::optimizeLayer(const Problem &Prob,
                                     const Hierarchy &Machine,
                                     const TechParams &Tech,
                                     const ThistleOptions &Options,
                                     const LayerRunContext &Run,
                                     double AreaBudgetUm2) {
  return sweepLayer(Prob, Machine, nullptr, Tech, Options, Run,
                    AreaBudgetUm2);
}
