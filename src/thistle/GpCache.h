//===- thistle/GpCache.h - GP solution cache for network sweeps -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe cache of perm-class pair-task outcomes, shared across
/// the layer sweeps of a network-level run (repeated ResNet-style blocks
/// make many solves redundant) and across the queries of a serving
/// process. Entries are keyed on the full canonicalized task identity
/// (layer shape, architecture, technology, perm-pair, mode/objective/
/// options). A hit replays the recorded outcome — report record, stats
/// deltas, rounded design — without building or solving the GP, so a
/// cached sweep is bit-identical to a cold one, whatever was asked
/// before it and in whatever order sibling tasks filled the cache.
///
/// The cache is LRU-bounded (setCapacity; unbounded by default) and
/// durable (docs/PERSISTENCE.md): saveSnapshotFile writes every entry
/// atomically, in key order, attachJournal appends every *new* insert at
/// record granularity so entries survive SIGKILL, and loadFile replays
/// either artifact back into the cache. GpCacheDirectory owns the one
/// cache-directory lifecycle both front ends use.
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

struct RunReportPersistence;
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
};

/// The key text shared by every pair task of one sweep: everything but
/// the two class permutations. Formatted once per sweep context, so a
/// task only adds its permutations.
struct GpCacheKeyMaterial {
  /// Iterator names, tensor skeleton, mode/objective and the tiled set;
  /// the permutations follow it.
  std::string Structure;
  /// Extents, strides, architecture, technology, area budget and the
  /// rounding/solver options; ends the key.
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

/// The canonical key of the sweep's (PePerm, DramPerm) pair task. The
/// key text is durable (docs/PERSISTENCE.md): snapshots and journals
/// store it.
std::string gpCacheKey(const GpCacheKeyMaterial &Material,
                       const std::vector<unsigned> &PePerm,
                       const std::vector<unsigned> &DramPerm);

/// What loading durable cache state recovered (and what it could not).
struct GpCachePersistStats {
  unsigned FilesLoaded = 0;        ///< Artifacts that contributed entries.
  std::uint64_t EntriesLoaded = 0; ///< Entries restored to the cache.
  std::uint64_t RecordsRead = 0;   ///< Journal records decoded.
  /// Artifacts detected damaged (bad magic, truncation, CRC mismatch,
  /// undecodable payload). Each adds a line to Problems; the load
  /// degrades to whatever intact state remained — never a crash.
  unsigned DataLoss = 0;
  std::vector<std::string> Problems;
};

/// Thread-safe GP solution cache. One instance may be shared across
/// optimizeLayer and optimizeNetwork calls, concurrent ones included, to
/// carry results between runs; every access takes an internal mutex.
class GpSolutionCache {
public:
  /// Counts a hit or a miss; on a hit copies the entry to \p Out.
  bool lookup(const std::string &Key, GpCacheEntry &Out);

  /// Inserts the finished task; an existing entry under \p Key wins.
  /// New entries are appended to the attached journal; when the cache
  /// is at capacity, the least-recently-used entry is evicted first.
  void insert(const std::string &Key, GpCacheEntry Entry);

  /// Bounds the cache to \p MaxEntries (0 = unbounded, the default),
  /// evicting from the LRU end immediately if over. Eviction never
  /// changes results — an evicted task re-solves, and solve and replay
  /// are bit-identical.
  void setCapacity(std::size_t MaxEntries);
  std::size_t capacity() const;

  /// Writes every entry as one atomic snapshot, sorted by key, so the
  /// bytes depend only on the cache's contents, never on the order
  /// worker threads filled it. A sequential reload restores recency in
  /// key order, which only decides what a bounded cache evicts first.
  Status saveSnapshotFile(const std::string &Path) const;

  /// Restores entries from a snapshot (*.snap) or journal (any other
  /// suffix) into the cache. Existing keys win over loaded ones; loaded
  /// entries are not re-journaled. Damage is accumulated into \p Stats, never thrown: a missing file
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
  std::uint64_t evictions() const { return Evictions.load(); }
  std::size_t size() const;

private:
  struct Slot {
    GpCacheEntry Entry;
    /// Position in Recency (front = most recently used).
    std::list<std::string>::iterator Where;
  };

  /// Insert with LRU bookkeeping; Mutex must be held. Returns true when
  /// \p Key was new (existing keys win).
  bool insertLocked(const std::string &Key, GpCacheEntry Entry);

  mutable std::mutex Mutex;
  std::unordered_map<std::string, Slot> Entries;
  std::list<std::string> Recency; ///< Keys, most recent first.
  std::size_t MaxEntries = 0;     ///< 0 = unbounded.
  persist::JournalWriter Journal;
  std::atomic<std::uint64_t> Hits{0}, Misses{0};
  std::atomic<std::uint64_t> Evictions{0}, JournalFailures{0};
};

/// The durable state of a GpSolutionCache in one directory
/// (docs/PERSISTENCE.md): the one lifecycle of `thistle-opt --cache-dir`
/// and `thistle-serve --cache-dir`.
class GpCacheDirectory {
public:
  /// Creates \p Dir and loads gpcache.snap, then gpcache.journal, then
  /// this shard's segment shard-I-of-N.{snap,journal} (\p ShardCount > 1)
  /// or, with \p Merge, every shard segment (snapshots, then journals,
  /// by name). Then attaches the journal new entries go to: the shard's
  /// segment or gpcache.journal. Only a directory that cannot be created
  /// is an error; damage lands in loadStats(), a journal that cannot be
  /// attached in journalStatus().
  Status open(GpSolutionCache &Cache, const std::string &Dir,
              std::size_t ShardIndex = 0, std::size_t ShardCount = 1,
              bool Merge = false);

  /// Folds the journal into one atomic snapshot and, on success, removes
  /// it (after a merge, every shard segment too). A failed write keeps
  /// the journal and returns the error. \p Reattach attaches the journal
  /// again either way (periodic compaction).
  Status compact(bool Reattach = false);

  /// A shard's default run-report path in \p Dir.
  static std::string shardReportPath(const std::string &Dir,
                                     std::size_t ShardIndex,
                                     std::size_t ShardCount);

  const std::string &snapshotPath() const { return SnapPath; }
  const GpCachePersistStats &loadStats() const { return Loaded; }
  const Status &journalStatus() const { return Journal; }

  /// The persistence section: loaded, appended, evicted, compacted.
  void report(RunReportPersistence &Out) const;

private:
  GpSolutionCache *Cache = nullptr;
  std::string Dir, SnapPath, JournalPath;
  bool Merge = false;
  GpCachePersistStats Loaded;
  Status Journal;
  bool SnapshotWritten = false;
};

} // namespace thistle

#endif // THISTLE_THISTLE_GPCACHE_H
