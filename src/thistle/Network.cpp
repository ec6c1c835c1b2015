//===- thistle/Network.cpp - Network-level co-design driver ---------------===//

#include "thistle/Network.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/PairSweep.h"

#include <iterator>
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

  // Validate what the caller controls up front, before any GP is built,
  // so bad inputs fail the whole run instead of surfacing as mid-sweep
  // incidents.
  if (Status St = checkSweepInputs(Options.Layer, &Arch, Tech, AreaBudgetUm2);
      !St.isOk()) {
    Result.InputStatus = std::move(St.withContext("validating network inputs"));
    return Result;
  }

  std::vector<LayerSweepPlan> Plans;
  Plans.reserve(Shapes.size());
  std::size_t PhaseTasks = 0;
  for (const UniqueShape &U : Shapes) {
    Plans.push_back(planLayerSweep(U.Prob, Options.Layer));
    PhaseTasks += Plans.back().Pairs.size();
  }

  telemetry::beginEpoch();
  telemetry::TraceScope NetSpan("thistle.optimize_network");
  telemetry::count("thistle.networks");
  std::optional<ThreadPool> OwnPool;
  if (!Options.Run.Pool)
    OwnPool.emplace(Options.Layer.Threads);
  // One deadline for the whole network run, resolved once so phase 2
  // shares the instant instead of restarting the clock.
  PairSweepGrid Grid{Options.Run.Pool ? *Options.Run.Pool : *OwnPool,
                     Options.Run.Cache,
                     sweepDeadline(Options.Layer),
                     0,
                     Options.ShardIndex,
                     Options.ShardCount};

  // Runs one phase: \p Opts and \p Budget applied to every unique shape
  // under each of \p Archs, as one grid of (architecture, shape) layers
  // numbered from \p FirstTask. Returns their results in that order and
  // folds their reports and cache traffic into the network's.
  auto runPhase = [&](const ThistleOptions &Opts,
                      const std::vector<ArchConfig> &Archs, double Budget,
                      std::size_t FirstTask) {
    std::vector<Hierarchy> Machines;
    for (const ArchConfig &A : Archs)
      Machines.push_back(Hierarchy::classic3Level(A, Tech));
    std::vector<PairSweepContext> Sweeps;
    Sweeps.reserve(Archs.size() * Shapes.size());
    for (std::size_t A = 0; A < Archs.size(); ++A)
      for (std::size_t S = 0; S < Shapes.size(); ++S)
        Sweeps.push_back({Shapes[S].Prob, Plans[S], Opts, Machines[A],
                          &Archs[A], Tech, Budget});
    Grid.FirstTask = FirstTask;
    std::vector<ThistleResult> Results = runPairSweep(Sweeps, Grid);
    for (const ThistleResult &R : Results) {
      Result.Stats.CacheHits += R.Stats.CacheHits;
      Result.Stats.CacheMisses += R.Stats.CacheMisses;
      Result.Report.merge(SweepReport(R.Report));
    }
    Result.Stats.PairsPlanned +=
        static_cast<unsigned>(Archs.size() * PhaseTasks);
    return Results;
  };

  // Phase 1: sweep every unique shape under the input architecture (and,
  // in CoDesign mode, the area budget).
  std::vector<ThistleResult> Selected =
      runPhase(Options.Layer, {Arch}, AreaBudgetUm2, 0);

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
      std::vector<ThistleResult> Phase2 =
          runPhase(Phase2Opts, CandidateArchs, 0.0, PhaseTasks);

      Result.Candidates.reserve(CandidateArchs.size());
      std::size_t BestCand = 0;
      for (std::size_t Cand = 0; Cand < CandidateArchs.size(); ++Cand) {
        const ThistleResult *CandResults = &Phase2[Cand * Shapes.size()];
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
        if (Wins)
          BestCand = Cand;
      }
      Result.Arch = CandidateArchs[BestCand];
      const auto Best = Phase2.begin() + BestCand * Shapes.size();
      Selected.assign(std::make_move_iterator(Best),
                      std::make_move_iterator(Best + Shapes.size()));
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
