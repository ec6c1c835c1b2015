//===- thistle/PairSweep.h - Shared perm-class pair sweep core --*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The perm-class sweep of the paper's Fig. 2 loop, on a hierarchy of
/// any depth, factored out of optimizeLayer so the network driver
/// (thistle/Network.cpp) can fan the tasks of many layers into one
/// global grid: the fixed sweep plan (one permutation class per permuted
/// level, symmetry pruning, the cap), the per-task solve chain (cache
/// lookup on classic3, or build -> retry-ladder solve -> halo fallback
/// -> extract -> round on the context's machine), the deterministic
/// shard accumulator, and the result assembly. On classic3 a task is a
/// (PE class, DRAM class) pair, hence the names.
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

/// One GP scheduled for a solve: a permutation class per permuted level
/// 1 .. L-1. QI is level 1's class (the PE class on classic3) and SI the
/// outermost permuted level's (the DRAM class); on a 2-level machine,
/// whose one permuted level is both, they are equal.
struct PairTask {
  std::size_t QI, SI;
  /// The classes of levels 2 .. L-2 (empty up to three levels).
  std::vector<std::size_t> Middle;
};

/// The fixed plan of one layer's sweep, computed serially before fan-out
/// so the parallel sweep solves exactly the sequential task set.
struct LayerSweepPlan {
  std::vector<unsigned> TiledIters;
  std::vector<PermClass> Classes;
  std::vector<PairTask> Pairs;
  unsigned PairsTotal = 0;
  unsigned PairsSkippedBySymmetry = 0;
  unsigned RawPermsPerLevel = 0;
  /// Tasks dropped by the cap, pre-recorded as policy skips with task
  /// indices following the planned tasks; merged into the sweep report
  /// after the fan-out so outcome counts sum to PairsTotal -
  /// PairsSkippedBySymmetry at any cap.
  SweepReport CappedReport;
};

/// The most class tuples (classes^(L-1)) a plan enumerates: every
/// tuple is checked for symmetry, and every capped one becomes a report
/// incident. optimizeLayer refuses a deeper machine up front.
inline constexpr std::uint64_t MaxSweepTuples = 1u << 18;

/// Tiled iterators of \p Prob: extent > 1 and not in the untiled list.
std::vector<unsigned> tiledIterators(const Problem &Prob,
                                     const ThistleOptions &Options);

/// Enumerates, prunes and caps the tasks for \p Prob on a machine with
/// \p PermutedLevels permuted levels (L-1; classic3 has two). Tuples are
/// enumerated in lexicographic order, level 1 most significant; a tuple
/// is pruned when a problem symmetry maps it to a smaller one. At most
/// Options.MaxPermClassPairs survivors are planned (0 = classes^2),
/// spread evenly over them: planned task i is survivor floor(i*N/M).
/// A space of more than MaxSweepTuples is not enumerated: the plan then
/// holds the classes, no task and PairsTotal 0.
LayerSweepPlan planLayerSweep(const Problem &Prob,
                              const ThistleOptions &Options,
                              unsigned PermutedLevels = 2);

/// Per-shard sweep state: the best design seen by one worker plus its
/// stat deltas. Shards never share state on the hot path; accumulators
/// are merged in shard order once the sweep drains.
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

/// Everything one task reads; const-shared across workers.
struct PairSweepContext {
  const Problem &Prob;
  const LayerSweepPlan &Plan;
  const ThistleOptions &Options;
  /// The machine every task builds, solves and rounds on.
  const Hierarchy &Machine;
  /// The architecture of a classic3 Machine (Hierarchy::classic3Level),
  /// whose winners are reported in ArchConfig terms; null on any other
  /// machine.
  const ArchConfig *Classic;
  const TechParams &Tech;
  double AreaBudgetUm2 = 0.0;
  /// Optional shared solution cache (see thistle/GpCache.h), classic3
  /// only: its keys name the ArchConfig, not the machine.
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

/// Runs one planned task end to end, folding its outcome into \p Acc.
/// Never throws: failures become report incidents.
void runPairTask(const PairSweepContext &Ctx, std::size_t TaskIdx,
                 SweepAccumulator &Acc);

/// Joins the next shard (ascending task order) into \p A.
void mergePairAccumulators(SweepAccumulator &A, SweepAccumulator &&B);

/// Resolves the two deadline options into one absolute instant; false
/// when no deadline is configured.
bool resolveSweepDeadline(std::chrono::milliseconds Relative,
                          std::chrono::steady_clock::time_point Absolute,
                          std::chrono::steady_clock::time_point &Out);

/// Assembles a ThistleResult from a drained sweep: stats (PairsSolved
/// derived from the report outcomes), the merged report including the
/// plan's capped-task skips, and the winning design.
void finishLayerResult(const LayerSweepPlan &Plan, SweepAccumulator &&Total,
                       ThistleResult &Result);

} // namespace thistle

#endif // THISTLE_THISTLE_PAIRSWEEP_H
