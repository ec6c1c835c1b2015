//===- thistle/Job.cpp - One optimization request, run end to end ---------===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "thistle/Job.h"

#include "nestmodel/CostEvaluator.h"
#include "support/ThreadPool.h"

#include <fstream>
#include <sstream>
#include <utility>

using namespace thistle;

namespace {

void refuse(JobResult &R, std::string Error) {
  R.ExitCode = 2;
  R.Error = std::move(Error);
}

/// The sweep and result sections of one design's sweep, and its exit
/// code: 3 without a design, else 0 for a clean sweep, 1 for a degraded.
template <typename EvalT>
void finishSweep(JobResult &R, SweepReport &&Sweep, bool Found,
                 const EvalT &Eval) {
  RunReport &RR = R.Report;
  RR.HasSweep = true;
  RR.Sweep = std::move(Sweep);
  R.ExitCode = !Found ? 3 : RR.Sweep.clean() ? 0 : 1;
  if (!Found)
    return;
  RR.Found = true;
  RR.EnergyPj = Eval.EnergyPj;
  RR.EnergyPerMacPj = Eval.EnergyPerMacPj;
  RR.Cycles = Eval.Cycles;
  RR.MacIpc = Eval.MacIpc;
  RR.EdpPjCycles = Eval.EdpPjCycles;
}

/// Resolves the non-classic machine \p J names into R.Machine; returns
/// the exit-2 text when it cannot.
std::string resolveMachine(const Job &J, JobResult &R) {
  if (J.HierarchySpec == "spad4") {
    R.Machine = Hierarchy::withScratchpad(J.Arch, TechParams::cgo45nm(),
                                          /*SpadWords=*/512, J.Arch.SramWords);
    return {};
  }
  std::ifstream In(J.HierarchySpec);
  if (!In)
    return "cannot open hierarchy file '" + J.HierarchySpec + "'";
  std::ostringstream Text;
  Text << In.rdbuf();
  Expected<Hierarchy> H = parseHierarchy(Text.str());
  if (!H)
    return J.HierarchySpec + ": " + H.status().message();
  R.Machine = H.takeValue();
  return {};
}

void runLayer(const Job &J, const LayerRunContext &Run, JobResult &R) {
  const Problem Prob = makeConvProblem(J.Layers.front());
  const TechParams Tech = TechParams::cgo45nm();
  if (J.HierarchySpec == ClassicHierarchy)
    R.Layer = optimizeLayer(Prob, J.Arch, Tech, J.Options, Run, J.AreaBudget);
  else if (std::string Error = resolveMachine(J, R); !Error.empty())
    return refuse(R, std::move(Error));
  else
    R.Layer =
        optimizeLayer(Prob, *R.Machine, Tech, J.Options, Run, J.AreaBudget);
  if (!R.Layer.InputStatus.isOk())
    return refuse(R, R.Layer.InputStatus.toString());
  if (R.Machine)
    finishSweep(R, std::move(R.Layer.Report), R.Layer.Found,
                R.Layer.Multi.Eval);
  else
    finishSweep(R, std::move(R.Layer.Report), R.Layer.Found, R.Layer.Eval);
}

/// Every layer on its own; the result block holds the total energy only
/// (the per-design metrics differ per layer).
void runPipeline(const Job &J, const LayerRunContext &Run,
                 const PipelineStageFn &OnStage, JobResult &R) {
  R.Report.HasSweep = true;
  double TotalUj = 0.0;
  for (const ConvLayer &L : J.Layers) {
    ThistleResult LR =
        optimizeLayer(makeConvProblem(L), J.Arch, TechParams::cgo45nm(),
                      J.Options, Run, J.AreaBudget);
    if (!LR.InputStatus.isOk())
      return refuse(R, L.Name + ": " + LR.InputStatus.toString());
    if (OnStage)
      OnStage(L, LR);
    if (!LR.Report.clean())
      R.ExitCode = 1;
    R.Report.Sweep.merge(std::move(LR.Report));
    if (LR.Found) {
      R.Report.Found = true;
      TotalUj += LR.Eval.EnergyPj * 1e-6;
    }
  }
  R.Report.EnergyPj = TotalUj * 1e6;
}

void runNetwork(const Job &J, const LayerRunContext &Run, JobResult &R) {
  NetworkOptions NO;
  NO.Layer = J.Options;
  NO.Run = Run;
  NO.ShardIndex = J.ShardIndex;
  NO.ShardCount = J.ShardCount;
  R.Network = optimizeNetwork(J.Layers, J.Arch, TechParams::cgo45nm(), NO,
                              J.AreaBudget);
  NetworkResult &N = R.Network;
  if (!N.InputStatus.isOk())
    return refuse(R, N.InputStatus.toString());

  RunReport &RR = R.Report;
  RR.HasSweep = true;
  RR.Sweep = std::move(N.Report);
  RR.Found = N.Found;
  RunReportNetwork &Network = RR.Network;
  Network.Present = true;
  Network.LayersTotal = N.Stats.LayersTotal;
  Network.LayersFound = N.LayersFound;
  Network.UniqueShapes = N.Stats.UniqueShapes;
  Network.CacheEnabled = Run.Cache != nullptr;
  Network.CacheHits = N.Stats.CacheHits;
  Network.CacheMisses = N.Stats.CacheMisses;
  Network.ArchCandidates = N.Stats.ArchCandidates;
  Network.SummedObjective = N.Totals.SummedObjective;
  Network.TotalEnergyPj = N.Totals.EnergyPj;
  Network.TotalCycles = N.Totals.Cycles;
  Network.TotalEdpPjCycles = N.Totals.EdpPjCycles;
  Network.EnergyPerMacPj = N.Totals.EnergyPerMacPj;
  Network.Macs = static_cast<std::uint64_t>(N.Totals.Macs);
  for (const NetworkLayerResult &L : N.Layers) {
    RunReportNetworkLayer Row;
    Row.Name = L.Name;
    Row.ShapeIndex = L.ShapeIndex;
    Row.Multiplicity = L.Multiplicity;
    Row.Deduplicated = L.Deduplicated;
    Row.Found = L.Result.Found;
    if (L.Result.Found) {
      Row.EnergyPj = L.Result.Eval.EnergyPj;
      Row.Cycles = L.Result.Eval.Cycles;
    }
    Network.Layers.push_back(std::move(Row));
  }
  // The network totals double as the run's result block: the pipeline
  // energy/delay on the selected architecture.
  RR.EnergyPj = N.Totals.EnergyPj;
  RR.EnergyPerMacPj = N.Totals.EnergyPerMacPj;
  RR.Cycles = N.Totals.Cycles;
  RR.EdpPjCycles = N.Totals.EdpPjCycles;

  // A shard owns only its slice of the task grid, so missing layers and
  // empty sweeps are by design; its exit reflects its own slice's sweep
  // health, and the merge run applies the whole-network criteria.
  if (J.ShardCount > 1)
    R.ExitCode = RR.Sweep.clean() ? 0 : 1;
  else if (N.LayersFound == 0)
    R.ExitCode = 3;
  else
    R.ExitCode = RR.Sweep.clean() && N.Found ? 0 : 1;
}

} // namespace

void thistle::resolveAreaBudget(Job &J) {
  if (J.Options.Mode == DesignMode::CoDesign && J.AreaBudget == 0.0)
    J.AreaBudget = eyerissAreaUm2(TechParams::cgo45nm());
}

std::string thistle::validateJob(const Job &J) {
  if (J.HierarchySpec == ClassicHierarchy)
    return {};
  if (J.Kind != JobKind::Layer)
    return "--hierarchy works on a single layer";
  if (J.Options.Mode == DesignMode::CoDesign)
    return "--hierarchy fixes the machine; use --mode dataflow";
  return {};
}

RunReport thistle::jobReport(const Job &J, const ThreadPool *Pool) {
  RunReport RR;
  RR.Workload = J.Name;
  RR.Mode = modeName(J.Options.Mode);
  RR.Objective = objectiveName(J.Options.Objective);
  RR.Hierarchy = J.HierarchySpec;
  RR.Threads = Pool                ? Pool->numWorkers()
               : J.Options.Threads ? J.Options.Threads
                                   : ThreadPool::defaultWorkerCount();
  if (const CostEvaluator *E = J.Options.Rounding.Evaluator) {
    RR.Evaluator.Backend = E->name();
    RR.Evaluator.CrossCheck =
        dynamic_cast<const CrossCheckEvaluator *>(E) != nullptr;
  }
  return RR;
}

JobResult thistle::runJob(const Job &J, GpSolutionCache *Cache,
                          ThreadPool *Pool, const PipelineStageFn &OnStage) {
  JobResult R;
  R.Report = jobReport(J, Pool);
  if (std::string Error = validateJob(J); !Error.empty()) {
    refuse(R, std::move(Error));
  } else {
    const LayerRunContext Run{Cache, Pool};
    switch (J.Kind) {
    case JobKind::Layer:
      runLayer(J, Run, R);
      break;
    case JobKind::Pipeline:
      runPipeline(J, Run, OnStage, R);
      break;
    case JobKind::Network:
      runNetwork(J, Run, R);
      break;
    }
  }
  R.Report.ExitCode = R.ExitCode;
  return R;
}
