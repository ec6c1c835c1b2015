//===- thistle/Network.cpp - Network-level co-design driver ---------------===//

#include "thistle/Network.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/PairSweep.h"

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

using namespace thistle;

namespace {

/// Identity of an architecture candidate: the co-design parameters plus
/// the bandwidths (everything the dataflow re-sweep reads).
using ArchKey =
    std::tuple<std::int64_t, std::int64_t, std::int64_t, double, double>;

ArchKey archKey(const ArchConfig &A) {
  return {A.NumPEs, A.RegWordsPerPE, A.SramWords, A.DramBandwidth,
          A.SramBandwidth};
}

/// One unique layer shape of the network.
struct UniqueShape {
  ConvLayer Layer; ///< First occurrence (canonical copy).
  Problem Prob;
  std::size_t Multiplicity = 0;
};

/// The per-shape accumulators of one sweep phase. Cells are indexed by
/// (cell, shape) and only merged cell-wise in shard order, so the phase
/// result is bit-identical at every worker count.
using PhaseAccumulator = std::vector<SweepAccumulator>;

void joinPhaseAccumulators(PhaseAccumulator &A, PhaseAccumulator &&B) {
  for (std::size_t I = 0; I < A.size(); ++I)
    mergePairAccumulators(A[I], std::move(B[I]));
}

/// Maps a phase-global task index onto its shape via the prefix-sum
/// offsets (Offsets.back() is the phase task total).
std::size_t shapeOfTask(const std::vector<std::size_t> &Offsets,
                        std::size_t TaskIdx) {
  std::size_t S = 0;
  while (S + 1 < Offsets.size() - 1 && TaskIdx >= Offsets[S + 1])
    ++S;
  return S;
}

/// Sums a found layer result into the running totals.
void addToTotals(const ThistleResult &R, const ConvLayer &L,
                 SearchObjective Objective, NetworkTotals &T) {
  T.EnergyPj += R.Eval.EnergyPj;
  T.Cycles += R.Eval.Cycles;
  T.Macs += L.numMacs();
  T.SummedObjective += objectiveValue(R.Eval, Objective);
}

} // namespace

NetworkResult thistle::optimizeNetwork(const std::vector<ConvLayer> &Layers,
                                       const ArchConfig &Arch,
                                       const TechParams &Tech,
                                       const NetworkOptions &Options,
                                       double AreaBudgetUm2) {
  NetworkResult Result;
  Result.Arch = Arch;
  Result.Stats.LayersTotal = Layers.size();

  if (Layers.empty()) {
    // The explicit zero-work path: the report stays empty (its summary
    // reads "0 pairs: nothing attempted") and the status names the cause
    // instead of a silent Found=false.
    Result.InputStatus = Status::invalidArgument(
        "network has no layers; 0 tasks: nothing attempted");
    return Result;
  }
  if (Options.ShardCount == 0 ||
      Options.ShardIndex >= Options.ShardCount) {
    Result.InputStatus = Status::invalidArgument(
        "shard " + std::to_string(Options.ShardIndex + 1) + "/" +
        std::to_string(Options.ShardCount) +
        " is not a valid 1-of-N partition");
    return Result;
  }
  for (const ConvLayer &L : Layers)
    if (Status S = L.validate(); !S.isOk()) {
      Result.InputStatus = std::move(S.withContext("validating network"));
      return Result;
    }

  // Deduplicate identical shapes: repeated blocks (ResNet basic blocks,
  // Yolo's stacked 3x3 stages) are solved once and their winner shared.
  std::vector<UniqueShape> Shapes;
  std::unordered_map<std::string, std::size_t> ShapeIndexByKey;
  Result.Layers.reserve(Layers.size());
  for (const ConvLayer &L : Layers) {
    std::string Key = L.shapeKey();
    auto [It, Inserted] =
        ShapeIndexByKey.emplace(std::move(Key), Shapes.size());
    if (Inserted)
      Shapes.push_back(UniqueShape{L, makeConvProblem(L), 0});
    ++Shapes[It->second].Multiplicity;
    NetworkLayerResult LR;
    LR.Name = L.Name;
    LR.ShapeIndex = It->second;
    LR.Deduplicated = !Inserted;
    Result.Layers.push_back(std::move(LR));
  }
  for (NetworkLayerResult &LR : Result.Layers)
    LR.Multiplicity = Shapes[LR.ShapeIndex].Multiplicity;
  Result.Stats.UniqueShapes = Shapes.size();

  // Validate every unique shape up front, before any GP is built, so a
  // bad layer fails the whole run with its name instead of surfacing as
  // mid-sweep incidents.
  for (std::size_t S = 0; S < Shapes.size(); ++S) {
    GpBuildSpec Probe;
    Probe.Mode = Options.Layer.Mode;
    Probe.Objective = Options.Layer.Objective;
    Probe.TiledIters = tiledIterators(Shapes[S].Prob, Options.Layer);
    Probe.Arch = Arch;
    Probe.Tech = Tech;
    Probe.AreaBudgetUm2 = AreaBudgetUm2;
    Status St = validateGpBuildSpec(Shapes[S].Prob, Probe)
                    .withContext("validating network layer '" +
                                 Shapes[S].Layer.Name + "'");
    if (!St.isOk()) {
      Result.InputStatus = std::move(St);
      return Result;
    }
  }

  // Phase plans and the global task grid: Offsets[S] is the first global
  // task index of shape S, Offsets.back() the phase task total.
  std::vector<LayerSweepPlan> Plans;
  Plans.reserve(Shapes.size());
  std::vector<std::size_t> Offsets(1, 0);
  for (const UniqueShape &U : Shapes) {
    Plans.push_back(planLayerSweep(U.Prob, Options.Layer));
    Offsets.push_back(Offsets.back() + Plans.back().Pairs.size());
  }
  const std::size_t PhaseTasks = Offsets.back();

  // One deadline for the whole network run, resolved once so phase 2
  // shares the instant instead of restarting the clock.
  std::chrono::steady_clock::time_point DeadlineAt;
  const bool HasDeadline = resolveSweepDeadline(
      Options.Layer.Deadline, Options.Layer.DeadlineAt, DeadlineAt);

  telemetry::beginEpoch();
  telemetry::TraceScope NetSpan("thistle.optimize_network");
  telemetry::count("thistle.networks");
  std::optional<ThreadPool> OwnPool;
  if (!Options.Pool)
    OwnPool.emplace(Options.Layer.Threads);
  ThreadPool &Pool = Options.Pool ? *Options.Pool : *OwnPool;

  // Runs one phase: \p Opts/\p PhaseArch/\p PhaseBudget applied to every
  // unique shape, cells of \p Cells many repetitions of the shape grid
  // (phase 1 has one cell, phase 2 one per candidate). Returns the
  // per-(cell, shape) accumulators, merged deterministically.
  auto runPhase = [&](const ThistleOptions &Opts,
                      const std::vector<ArchConfig> &CellArchs,
                      double PhaseBudget, std::size_t SpanBase) {
    const std::size_t Cells = CellArchs.size();
    std::vector<Hierarchy> CellMachines;
    for (const ArchConfig &A : CellArchs)
      CellMachines.push_back(Hierarchy::classic3Level(A, Tech));
    std::vector<PairSweepContext> Ctxs;
    Ctxs.reserve(Cells * Shapes.size());
    for (std::size_t Cell = 0; Cell < Cells; ++Cell)
      for (std::size_t S = 0; S < Shapes.size(); ++S) {
        PairSweepContext Ctx{Shapes[S].Prob,      Plans[S],
                             Opts,                CellMachines[Cell],
                             &CellArchs[Cell],    Tech,
                             PhaseBudget};
        Ctx.Cache = Options.Cache;
        if (Ctx.Cache)
          Ctx.CacheKeys = gpCacheKeyMaterial(Shapes[S].Prob, Opts,
                                             CellArchs[Cell], Tech,
                                             PhaseBudget, Plans[S].TiledIters);
        Ctx.HasDeadline = HasDeadline;
        Ctx.DeadlineAt = DeadlineAt;
        Ctx.SpanIndexBase = SpanBase + Cell * PhaseTasks + Offsets[S];
        Ctxs.push_back(std::move(Ctx));
      }
    return parallelReduce(
        Pool, Cells * PhaseTasks,
        PhaseAccumulator(Cells * Shapes.size()),
        [&](PhaseAccumulator &Acc, std::size_t TaskIdx) {
          const std::size_t Cell = TaskIdx / PhaseTasks;
          const std::size_t Rem = TaskIdx % PhaseTasks;
          // The shard partition is a pure function of the global task
          // index (phase span base + cell + offset), so every shard of
          // every phase agrees on ownership without coordination.
          if (Options.ShardCount > 1 &&
              (SpanBase + Cell * PhaseTasks + Rem) % Options.ShardCount !=
                  Options.ShardIndex)
            return;
          const std::size_t S = shapeOfTask(Offsets, Rem);
          runPairTask(Ctxs[Cell * Shapes.size() + S], Rem - Offsets[S],
                      Acc[Cell * Shapes.size() + S]);
        },
        joinPhaseAccumulators);
  };

  // Harvests one phase cell into per-shape ThistleResults, folding the
  // cache traffic and the shape reports into the network-level stats.
  auto finishCell = [&](PhaseAccumulator &Acc, std::size_t Cell) {
    std::vector<ThistleResult> ShapeResults(Shapes.size());
    for (std::size_t S = 0; S < Shapes.size(); ++S) {
      SweepAccumulator &Cur = Acc[Cell * Shapes.size() + S];
      Result.Stats.CacheHits += Cur.CacheHits;
      Result.Stats.CacheMisses += Cur.CacheMisses;
      finishLayerResult(Plans[S], std::move(Cur), ShapeResults[S]);
      Result.Report.merge(SweepReport(ShapeResults[S].Report));
    }
    return ShapeResults;
  };

  // Phase 1: sweep every unique shape under the input architecture (and,
  // in CoDesign mode, the area budget).
  PhaseAccumulator Phase1 =
      runPhase(Options.Layer, {Arch}, AreaBudgetUm2, 0);
  Result.Stats.PairsPlanned += static_cast<unsigned>(PhaseTasks);
  std::vector<ThistleResult> Selected = finishCell(Phase1, 0);

  // Phase 2 (CoDesign): the distinct per-shape winning architectures
  // become candidates; every candidate is scored by re-optimizing each
  // shape's dataflow under it, and the smallest summed objective over
  // all input layers wins. Ties break on candidate order (first
  // appearance over shapes), which is itself deterministic.
  if (Options.Layer.Mode == DesignMode::CoDesign) {
    std::vector<ArchConfig> CandidateArchs;
    for (const ThistleResult &R : Selected) {
      if (!R.Found)
        continue;
      bool Known = false;
      for (const ArchConfig &A : CandidateArchs)
        Known = Known || archKey(A) == archKey(R.Arch);
      if (!Known)
        CandidateArchs.push_back(R.Arch);
    }
    Result.Stats.ArchCandidates =
        static_cast<unsigned>(CandidateArchs.size());

    if (!CandidateArchs.empty()) {
      ThistleOptions Phase2Opts = Options.Layer;
      Phase2Opts.Mode = DesignMode::DataflowOnly;
      PhaseAccumulator Phase2 =
          runPhase(Phase2Opts, CandidateArchs, 0.0, PhaseTasks);
      Result.Stats.PairsPlanned +=
          static_cast<unsigned>(CandidateArchs.size() * PhaseTasks);

      Result.Candidates.reserve(CandidateArchs.size());
      std::size_t BestCand = 0;
      std::vector<ThistleResult> BestResults;
      for (std::size_t Cand = 0; Cand < CandidateArchs.size(); ++Cand) {
        std::vector<ThistleResult> CandResults = finishCell(Phase2, Cand);
        NetworkArchCandidate Score;
        Score.Arch = CandidateArchs[Cand];
        Score.AllLayersFound = true;
        for (std::size_t S = 0; S < Shapes.size(); ++S) {
          if (!CandResults[S].Found) {
            Score.AllLayersFound = false;
            continue;
          }
          Score.LayersFound += Shapes[S].Multiplicity;
          Score.SummedObjective +=
              static_cast<double>(Shapes[S].Multiplicity) *
              objectiveValue(CandResults[S].Eval, Options.Layer.Objective);
        }
        // Selection order: complete candidates by (objective, index);
        // if none is complete, the one covering the most layers.
        bool Wins;
        if (Result.Candidates.empty())
          Wins = true;
        else if (Score.AllLayersFound !=
                 Result.Candidates[BestCand].AllLayersFound)
          Wins = Score.AllLayersFound;
        else if (Score.AllLayersFound)
          Wins = Score.SummedObjective <
                 Result.Candidates[BestCand].SummedObjective;
        else
          Wins = Score.LayersFound >
                 Result.Candidates[BestCand].LayersFound;
        Result.Candidates.push_back(std::move(Score));
        if (Wins) {
          BestCand = Cand;
          BestResults = std::move(CandResults);
        }
      }
      Result.Arch = CandidateArchs[BestCand];
      Selected = std::move(BestResults);
    }
  }

  // Distribute the selected per-shape results onto the input layers and
  // accumulate the network totals. Dedup copies share the winner but
  // carry an empty report and zero stats, so summing per-layer numbers
  // counts each shape's sweep exactly once.
  for (NetworkLayerResult &LR : Result.Layers) {
    LR.Result = Selected[LR.ShapeIndex];
    if (LR.Deduplicated) {
      LR.Result.Report = SweepReport();
      LR.Result.Stats = ThistleStats();
    }
    if (LR.Result.Found) {
      ++Result.LayersFound;
      addToTotals(LR.Result, Shapes[LR.ShapeIndex].Layer,
                  Options.Layer.Objective, Result.Totals);
    }
  }
  Result.Found = Result.LayersFound == Layers.size();
  Result.Totals.EdpPjCycles = Result.Totals.EnergyPj * Result.Totals.Cycles;
  if (Result.Totals.Macs > 0)
    Result.Totals.EnergyPerMacPj =
        Result.Totals.EnergyPj / static_cast<double>(Result.Totals.Macs);
  Result.Stats.PairsSolved = Result.Report.Solved + Result.Report.Degraded;

  if (telemetry::traceEnabled())
    NetSpan.setDetail(
        "layers=" + std::to_string(Layers.size()) +
        " shapes=" + std::to_string(Shapes.size()) +
        " found=" + std::to_string(Result.LayersFound) +
        " candidates=" + std::to_string(Result.Stats.ArchCandidates));
  return Result;
}
