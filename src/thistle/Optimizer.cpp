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

/// The sweep of one layer on \p Machine, a grid of one; \p Classic is
/// its ArchConfig when Machine is classic3Level(*Classic, Tech), else
/// null.
ThistleResult sweepLayer(const Problem &Prob, const Hierarchy &Machine,
                         const ArchConfig *Classic, const TechParams &Tech,
                         const ThistleOptions &Options,
                         const LayerRunContext &Run, double AreaBudgetUm2) {
  ThistleResult Result;
  // Validate what the caller controls once, before any GP is built.
  if (!Classic)
    if (std::string Error = Machine.validate(); !Error.empty()) {
      Result.InputStatus = Status::invalidArgument(std::move(Error))
                               .withContext("validating hierarchy");
      return Result;
    }
  Result.InputStatus = checkSweepInputs(Options, Classic, Tech, AreaBudgetUm2)
                           .withContext("validating optimizer inputs");
  if (!Result.InputStatus.isOk())
    return Result;

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
  const auto DeadlineAt = sweepDeadline(Options);

  telemetry::beginEpoch();
  telemetry::TraceScope SweepSpan("thistle.optimize_layer");
  telemetry::count("thistle.sweeps");
  std::optional<ThreadPool> OwnPool;
  if (!Run.Pool)
    OwnPool.emplace(Options.Threads);
  Result = std::move(
      runPairSweep({{Prob, Plan, Options, Machine, Classic, Tech,
                     AreaBudgetUm2}},
                   {Run.Pool ? *Run.Pool : *OwnPool, Run.Cache, DeadlineAt})
          .front());
  if (telemetry::traceEnabled())
    SweepSpan.setDetail("pairs=" + std::to_string(Plan.Pairs.size()) +
                        " solved=" + std::to_string(Result.Report.Solved) +
                        " degraded=" +
                        std::to_string(Result.Report.Degraded));
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
