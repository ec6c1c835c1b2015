//===- thistle/PairSweep.h - Shared perm-class pair sweep core --*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The perm-class pair sweep factored out of optimizeLayer so the
/// network driver (thistle/Network.cpp) can fan the tasks of many layers
/// into one global grid: the fixed sweep plan (enumeration, symmetry
/// pruning, pair cap), the per-task solve chain (cache lookup, or build
/// -> retry-ladder solve -> halo fallback -> extract -> round), the
/// deterministic shard accumulator, and the
/// result assembly. optimizeLayer is a thin wrapper around these pieces;
/// their behavior on a single layer is bit-identical to the
/// pre-refactoring implementation.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_PAIRSWEEP_H
#define THISTLE_THISTLE_PAIRSWEEP_H

#include "thistle/GpCache.h"
#include "thistle/Optimizer.h"
#include "thistle/PermutationSpace.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace thistle {

/// One (PE-perm, DRAM-perm) class pair scheduled for a GP solve.
struct PairTask {
  std::size_t QI, SI;
};

/// The fixed plan of one layer's pair sweep, computed serially before
/// fan-out so the parallel sweep solves exactly the sequential pair set.
struct LayerSweepPlan {
  std::vector<unsigned> TiledIters;
  std::vector<PermClass> Classes;
  std::vector<PairTask> Pairs;
  unsigned PairsTotal = 0;
  unsigned PairsSkippedBySymmetry = 0;
  unsigned RawPermsPerLevel = 0;
  /// Pairs dropped by Options.MaxPermClassPairs, pre-recorded as policy
  /// skips with task indices following the planned tasks; merged into
  /// the sweep report after the fan-out so outcome counts sum to
  /// PairsTotal - PairsSkippedBySymmetry at any cap.
  SweepReport CappedReport;
};

/// Tiled iterators of \p Prob: extent > 1 and not in the untiled list.
std::vector<unsigned> tiledIterators(const Problem &Prob,
                                     const ThistleOptions &Options);

/// Enumerates, prunes and caps the pair tasks for \p Prob.
LayerSweepPlan planLayerSweep(const Problem &Prob,
                              const ThistleOptions &Options);

/// Per-shard sweep state: the best design seen by one worker plus its
/// stat deltas. Shards never share state on the hot path; accumulators
/// are merged in shard order once the sweep drains.
struct SweepAccumulator {
  bool Found = false;
  double Obj = 0.0;
  std::size_t QI = 0, SI = 0;
  RoundedDesign Design;
  double ModelObjective = 0.0;
  unsigned NewtonIterations = 0;
  unsigned GpInfeasible = 0;
  std::size_t CandidatesEvaluated = 0;
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  SweepReport Report;
};

/// Everything one pair task reads; const-shared across workers.
struct PairSweepContext {
  const Problem &Prob;
  const LayerSweepPlan &Plan;
  const ThistleOptions &Options;
  const ArchConfig &Arch;
  const TechParams &Tech;
  double AreaBudgetUm2 = 0.0;
  /// Optional shared solution cache (see thistle/GpCache.h).
  GpSolutionCache *Cache = nullptr;
  /// The sweep's cache key material (gpCacheKeyMaterial over the fields
  /// above); formatted once, where the context is built, when Cache is
  /// set.
  GpCacheKeyMaterial CacheKeys{};
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point DeadlineAt{};
  /// Added to the task index for telemetry span indexing, so several
  /// layer sweeps sharing one epoch (the network driver) keep globally
  /// ordered span indices.
  std::size_t SpanIndexBase = 0;
};

/// Runs one planned pair task end to end, folding its outcome into
/// \p Acc. Never throws: failures become report incidents.
void runPairTask(const PairSweepContext &Ctx, std::size_t TaskIdx,
                 SweepAccumulator &Acc);

/// The deterministic winner order: lexicographic on (objective, QI, SI).
bool pairWinsOver(double Obj, std::size_t QI, std::size_t SI,
                  const SweepAccumulator &Acc);

/// Joins the next shard (ascending task order) into \p A.
void mergePairAccumulators(SweepAccumulator &A, SweepAccumulator &&B);

/// Resolves the two deadline options into one absolute instant; false
/// when no deadline is configured.
bool resolveSweepDeadline(std::chrono::milliseconds Relative,
                          std::chrono::steady_clock::time_point Absolute,
                          std::chrono::steady_clock::time_point &Out);

/// Assembles a ThistleResult from a drained sweep: stats (PairsSolved
/// derived from the report outcomes), the merged report including the
/// plan's capped-pair skips, and the winning design.
void finishLayerResult(const LayerSweepPlan &Plan, SweepAccumulator &&Total,
                       ThistleResult &Result);

} // namespace thistle

#endif // THISTLE_THISTLE_PAIRSWEEP_H
