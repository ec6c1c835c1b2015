//===- thistle/PairSweep.h - Shared perm-class pair sweep core --*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The perm-class sweep of the paper's Fig. 2 loop, on a hierarchy of
/// any depth: the fixed sweep plan (one permutation class per permuted
/// level, symmetry pruning, the cap) and the one task grid every sweep
/// runs on. optimizeLayer runs a grid of one layer; the network driver
/// (thistle/Network.cpp) runs each phase's (architecture, shape) layers
/// as one grid. A task is one solve chain: cache lookup on classic3, or
/// build -> retry-ladder solve -> halo fallback -> extract -> round on
/// its layer's machine. On classic3 a task is a (PE class, DRAM class)
/// pair, hence the names.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_PAIRSWEEP_H
#define THISTLE_THISTLE_PAIRSWEEP_H

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
  /// Tuples dropped by the cap. They take the task indices after the
  /// planned tasks, and the sweep report records them as one policy
  /// skip, so outcome counts sum to PairsTotal - PairsSkippedBySymmetry
  /// at any cap.
  unsigned Capped = 0;
};

/// The most class tuples (classes^(L-1)) a plan enumerates: every tuple
/// is checked for symmetry. optimizeLayer refuses a deeper machine up
/// front.
inline constexpr std::uint64_t MaxSweepTuples = 1u << 18;

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

/// Checks what a sweep's caller controls before any GP is built: the
/// technology constants, the co-design area budget and, in dataflow
/// mode, the capacities of a classic architecture (\p Classic; null on
/// any other machine, which validates itself).
Status checkSweepInputs(const ThistleOptions &Options,
                        const ArchConfig *Classic, const TechParams &Tech,
                        double AreaBudgetUm2);

/// One layer of a task grid: everything its tasks read, const-shared
/// across workers.
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
};

/// What every layer of a task grid shares.
struct PairSweepGrid {
  ThreadPool &Pool;
  /// Optional shared solution cache (thistle/GpCache.h), read and
  /// written by classic3 layers only: its keys name the ArchConfig, not
  /// the machine.
  GpSolutionCache *Cache = nullptr;
  /// No task starts at or after this instant; {} means no deadline.
  std::chrono::steady_clock::time_point DeadlineAt{};
  /// The run-wide index of the grid's first task. Tasks are numbered
  /// layer by layer from it; a task's number indexes its thistle.pair
  /// span and decides its shard.
  std::size_t FirstTask = 0;
  /// Deterministic 1-of-N partition: only tasks whose number is
  /// congruent to ShardIndex mod ShardCount run.
  std::size_t ShardIndex = 0, ShardCount = 1;
};

/// Runs the planned tasks of every layer of \p Layers as one task grid
/// and returns one result per layer, in order. The winner of a layer is
/// its least (objective, task index), and per-layer state merges in
/// shard order, so results are bit-identical at every worker count.
/// Never throws: a failed task becomes a report incident.
std::vector<ThistleResult> runPairSweep(
    const std::vector<PairSweepContext> &Layers, const PairSweepGrid &Grid);

/// The absolute deadline \p Options asks for: DeadlineAt when set, else
/// now + Deadline when that is positive, else {} (none).
std::chrono::steady_clock::time_point
sweepDeadline(const ThistleOptions &Options);

} // namespace thistle

#endif // THISTLE_THISTLE_PAIRSWEEP_H
