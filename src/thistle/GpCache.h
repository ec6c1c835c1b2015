//===- thistle/GpCache.h - GP solution cache for network sweeps -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe cache of perm-class pair-task outcomes, shared across
/// the layer sweeps of a network-level run (repeated ResNet-style blocks
/// make many solves redundant). Two tiers:
///
///  - *Exact* entries are keyed on the full canonicalized task identity
///    (layer shape, architecture, technology, perm-pair, mode/objective/
///    options). A hit replays the recorded outcome — report record,
///    stats deltas, rounded design — without building or solving the GP,
///    so a cached sweep is bit-identical to a cold one.
///  - *Warm* entries are keyed on the structural identity only (iterator
///    names, tensor skeleton, perms, mode/objective) and store the
///    x-space optimum of a previously solved, structurally identical GP.
///    They are consulted exclusively as a last-resort recovery rung when
///    the cold solve chain yields no feasible iterate, seeding the
///    barrier method via GpSolverOptions::InitialPoint. Because the warm
///    rung only runs where the cold path already failed, a sweep with no
///    failures stays bit-identical with the cache on or off.
///
/// Determinism under parallel fill: warm lookups only see entries frozen
/// at a generation boundary (beginGeneration(), called by the network
/// driver between phases), never entries raced in by sibling tasks of
/// the current phase; where several exact entries share a warm key, the
/// one with the lexicographically smallest exact key wins, independent
/// of insertion order.
///
/// The exact tier is LRU-bounded (setCapacity; unbounded by default) and
/// durable (docs/PERSISTENCE.md): saveSnapshotFile writes the whole tier
/// atomically, attachJournal appends every *new* insert at record
/// granularity so entries survive SIGKILL, and loadFile replays either
/// artifact back into the exact tier. Loaded entries never feed the warm
/// tier directly — a replayed exact hit feeds it through feedWarmPending,
/// exactly as the original solve did, so a resumed run's warm state
/// evolves bit-identically to the uninterrupted run's.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_GPCACHE_H
#define THISTLE_THISTLE_GPCACHE_H

#include "support/Persist.h"
#include "support/SweepReport.h"
#include "thistle/Rounding.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace thistle {

struct ThistleOptions;

/// The replayable outcome of one pair task. Everything the task wrote
/// into its shard accumulator is recorded, so a hit reproduces the
/// miss path bit-for-bit without touching the solver.
struct GpCacheEntry {
  TaskOutcome Outcome = TaskOutcome::Failed;
  unsigned Attempts = 0;
  std::string Detail;          ///< Incident detail (empty when Solved).
  unsigned NewtonIterations = 0;
  bool GpInfeasible = false;   ///< The task bumped Stats.GpInfeasible.
  /// Rounded design (Design.Found=false when rounding found nothing or
  /// the solve yielded no feasible iterate).
  RoundedDesign Design;
  double Obj = 0.0;            ///< objectiveValue(Design.Eval, ...).
  double ModelObjective = 0.0; ///< Relaxed GP objective (pre-rounding).
  /// x-space GP optimum (empty when no feasible iterate); the seed
  /// served to warm lookups.
  std::vector<double> Optimum;
};

/// The canonical cache keys of one pair task.
struct GpCacheKeys {
  std::string Exact; ///< Full task identity.
  std::string Warm;  ///< Structural identity (extents/arch/tech erased).
};

/// The key text shared by every pair task of one sweep: everything but
/// the two class permutations. Formatted once per sweep context, so a
/// task only appends its permutations.
struct GpCacheKeyMaterial {
  /// Iterator names, tensor skeleton, mode/objective and the tiled set;
  /// the permutations follow it in both keys.
  std::string Structure;
  /// Extents, strides, architecture, technology, area budget and the
  /// rounding/solver options; ends the exact key only.
  std::string Numbers;
};

/// Formats the key material of a (problem, options, arch) sweep. Layer
/// names are deliberately excluded so identically shaped layers of
/// different networks share entries.
GpCacheKeyMaterial gpCacheKeyMaterial(const Problem &Prob,
                                      const ThistleOptions &Options,
                                      const ArchConfig &Arch,
                                      const TechParams &Tech,
                                      double AreaBudgetUm2,
                                      const std::vector<unsigned> &TiledIters);

/// The canonical keys of the sweep's (PePerm, DramPerm) pair task. The
/// key text is durable (docs/PERSISTENCE.md): snapshots and journals
/// store it.
GpCacheKeys gpCacheKeys(const GpCacheKeyMaterial &Material,
                        const std::vector<unsigned> &PePerm,
                        const std::vector<unsigned> &DramPerm);

/// What loading durable cache state recovered (and what it could not).
struct GpCachePersistStats {
  unsigned FilesLoaded = 0;        ///< Artifacts that contributed entries.
  std::uint64_t EntriesLoaded = 0; ///< Entries restored to the exact tier.
  std::uint64_t RecordsRead = 0;   ///< Journal records decoded.
  /// Artifacts detected damaged (bad magic, truncation, CRC mismatch,
  /// undecodable payload). Each adds a line to Problems; the load
  /// degrades to whatever intact state remained — never a crash.
  unsigned DataLoss = 0;
  std::vector<std::string> Problems;
};

/// Thread-safe two-tier GP solution cache. One instance may be shared
/// across sequential optimizeNetwork calls to carry results between
/// runs; concurrent sweeps sharing one instance are serialized on an
/// internal mutex.
class GpSolutionCache {
public:
  /// Exact lookup; counts a hit or a miss. On a hit copies the entry.
  bool lookupExact(const std::string &Key, GpCacheEntry &Out);

  /// Inserts the finished task under both keys. The warm tier only
  /// keeps entries with a non-empty Optimum; within the current
  /// generation the candidate with the smallest exact key wins. New
  /// entries are appended to the attached journal; when the exact tier
  /// is at capacity, the least-recently-used entry is evicted first.
  void insert(const std::string &Key, const std::string &WarmKey,
              GpCacheEntry Entry);

  /// Feeds a replayed exact hit to the warm tier, with insert's
  /// smallest-exact-key-wins rule. Called on the cache-hit path so a
  /// run replaying loaded entries builds the same frozen warm state the
  /// original (solving) run built.
  void feedWarmPending(const std::string &Key, const std::string &WarmKey,
                       const std::vector<double> &Optimum);

  /// Warm lookup: the frozen (pre-generation) optimum for \p WarmKey.
  /// Does not count into hits()/misses().
  bool lookupWarm(const std::string &WarmKey,
                  std::vector<double> &Out) const;

  /// Counts one warm-start attempt (called by the task that uses one).
  void noteWarmStart();

  /// Freezes the warm entries inserted since the last call: they become
  /// visible to lookupWarm. Called at phase boundaries so warm lookups
  /// never observe a racing sibling task of the same phase.
  void beginGeneration();

  /// Bounds the exact tier to \p MaxEntries (0 = unbounded, the
  /// default), evicting from the LRU end immediately if over. Eviction
  /// never changes results — an evicted task re-solves, and solve and
  /// replay are bit-identical by the exact-tier invariant.
  void setCapacity(std::size_t MaxEntries);
  std::size_t capacity() const;

  /// Writes the whole exact tier as one atomic snapshot (LRU-first, so
  /// a sequential reload reconstructs the recency order).
  Status saveSnapshotFile(const std::string &Path) const;

  /// Restores entries from a snapshot (*.snap) or journal (any other
  /// suffix) into the exact tier. Existing keys win over loaded ones;
  /// loaded entries are not re-journaled and never feed the warm tier.
  /// Damage is accumulated into \p Stats, never thrown: a missing file
  /// is skipped silently, a damaged one contributes its intact prefix.
  void loadFile(const std::string &Path, GpCachePersistStats &Stats);

  /// Attaches an append-only journal: every subsequent *new* insert is
  /// flushed to \p Path at record granularity (crash durability between
  /// snapshots). Append failures are counted, reported through
  /// journalAppendFailures(), and never fail the insert.
  Status attachJournal(const std::string &Path);
  void detachJournal();
  std::uint64_t journalAppendFailures() const {
    return JournalFailures.load();
  }

  std::uint64_t hits() const { return Hits.load(); }
  std::uint64_t misses() const { return Misses.load(); }
  std::uint64_t warmStarts() const { return WarmStarts.load(); }
  std::uint64_t evictions() const { return Evictions.load(); }
  std::size_t size() const;
  void clear();

private:
  struct WarmSlot {
    bool HasFrozen = false;
    std::vector<double> Frozen;
    bool HasPending = false;
    std::string PendingSource; ///< Exact key of the pending candidate.
    std::vector<double> Pending;
  };
  struct ExactSlot {
    GpCacheEntry Entry;
    std::string WarmKey; ///< Kept so snapshots can re-encode the entry.
    /// Position in Recency (front = most recently used).
    std::list<std::string>::iterator Where;
  };

  /// Warm-pending update; Mutex must be held.
  void feedWarmPendingLocked(const std::string &Key,
                             const std::string &WarmKey,
                             const std::vector<double> &Optimum);
  /// Exact-tier insert with LRU bookkeeping; Mutex must be held.
  /// Returns true when \p Key was new (existing keys win).
  bool insertExactLocked(const std::string &Key,
                         const std::string &WarmKey, GpCacheEntry Entry);

  mutable std::mutex Mutex;
  std::unordered_map<std::string, ExactSlot> Exact;
  std::list<std::string> Recency; ///< Exact keys, most recent first.
  std::size_t MaxEntries = 0;     ///< 0 = unbounded.
  std::unordered_map<std::string, WarmSlot> Warm;
  persist::JournalWriter Journal;
  std::atomic<std::uint64_t> Hits{0}, Misses{0}, WarmStarts{0};
  std::atomic<std::uint64_t> Evictions{0}, JournalFailures{0};
};

} // namespace thistle

#endif // THISTLE_THISTLE_GPCACHE_H
