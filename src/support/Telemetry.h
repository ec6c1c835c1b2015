//===- support/Telemetry.h - Tracing, counters, run metrics -----*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead, thread-safe observability layer for the solve
/// pipeline: hierarchical trace spans (`TraceScope`) with monotonic
/// timing, and a registry of named counters and value statistics
/// (`count` / `observe`). Production code plants hooks at per-task
/// granularity (one GP solve, one pair task, one mapper round — never
/// inside a Newton iteration); the command-line tool and the benchmarks
/// turn collection on with `setLevel` and read it back with `snapshot`.
///
/// Determinism contract (docs/OBSERVABILITY.md pins the details):
///  - Collection NEVER perturbs results. Hooks draw no random numbers,
///    change no control flow and reorder no floating-point reduction, so
///    a run with telemetry enabled is bit-identical to one without.
///  - Spans are recorded into per-thread buffers (no hot-path sharing)
///    and merged deterministically at snapshot time: spans are keyed by
///    the sweep-task / round index they belong to (nested spans inherit
///    the key of their enclosing span), and the merge stable-sorts by
///    that key. Since every key is produced by exactly one thread, in
///    deterministic per-thread order, the merged sequence of
///    (name, index, depth, detail) tuples is identical at every worker
///    count; only the timing fields vary run to run.
///  - Counter and statistic aggregation is commutative (sums, min/max),
///    hence thread-count-invariant as well.
///
/// Overhead: when collection is off (the default) every hook costs one
/// relaxed atomic load and a predictable branch. When compiled out via
/// the THISTLE_TELEMETRY CMake option (OFF), every hook is an empty
/// inline and the build is bit-identical to an uninstrumented tree.
/// `bench_telemetry_overhead` keeps the enabled-path cost under 2%.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_TELEMETRY_H
#define THISTLE_SUPPORT_TELEMETRY_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace thistle {
namespace telemetry {

/// "This span belongs to no sweep task": sorts after every real index.
inline constexpr std::size_t NoIndex =
    std::numeric_limits<std::size_t>::max();

/// Collection level. Metrics enables counters/statistics only; Trace
/// additionally records spans. Off (the default) collects nothing.
enum class Level { Off, Metrics, Trace };

/// One completed trace span, as returned by snapshot().
struct Span {
  std::string Name;      ///< Site name, e.g. "thistle.pair".
  std::string Detail;    ///< Outcome/diagnostic set via setDetail().
  std::uint64_t Epoch = 0;     ///< Sweep ordinal (primary merge key).
  std::size_t Index = NoIndex; ///< Sweep-task / round key (merge order).
  unsigned Depth = 0;    ///< Same-key nesting depth.
  std::uint64_t StartNs = 0;    ///< Monotonic-clock start.
  std::uint64_t DurationNs = 0; ///< End - start.
};

/// One named counter value.
struct CounterValue {
  std::string Name;
  std::uint64_t Value = 0;
};

/// Summary statistics of one observed value stream.
struct StatValue {
  std::string Name;
  std::uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0.0; }
};

/// Everything collected since the last reset(), in deterministic order:
/// counters and stats sorted by name, spans merged as documented above.
struct Snapshot {
  Level CollectedAt = Level::Off;
  std::vector<CounterValue> Counters;
  std::vector<StatValue> Stats;
  std::vector<Span> Spans;
  /// Spans discarded because a thread buffer hit its cap.
  std::uint64_t DroppedSpans = 0;
};

#if THISTLE_TELEMETRY_ENABLED

/// True when the layer is compiled in.
constexpr bool compiledIn() { return true; }

/// Sets the collection level. Not meant to be toggled while a sweep is
/// in flight; the tool and the tests set it once up front.
void setLevel(Level L);
Level level();

/// Fast runtime gates (one relaxed atomic load each).
bool metricsEnabled();
bool traceEnabled();

/// Adds \p Delta to the named counter. No-op unless metricsEnabled().
void count(const char *Name, std::uint64_t Delta = 1);

/// Folds \p Value into the named statistic (count/sum/min/max). No-op
/// unless metricsEnabled().
void observe(const char *Name, double Value);

/// Starts a new sweep epoch. Each parallel sweep (pair sweep, network
/// sweep, mapper search) calls this once, on the calling thread, before
/// fanning out; task indices are only unique within one sweep, so the
/// epoch disambiguates equal indices of successive sweeps in the merge.
void beginEpoch();

/// Copies out everything collected since the last reset().
Snapshot snapshot();

/// Clears all collected counters, statistics and spans (the level is
/// unchanged). Must not run concurrently with collection.
void reset();

/// RAII trace span. Opening and closing cost nothing when tracing is
/// off. A span opened with NoIndex inherits the index of the innermost
/// open span on the same thread, so solver attempts nest under the pair
/// task that issued them.
class TraceScope {
public:
  explicit TraceScope(const char *Name, std::size_t Index = NoIndex);
  ~TraceScope();

  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

  /// Attaches an outcome/diagnostic string to the span.
  void setDetail(std::string Detail);

private:
  std::size_t Slot; ///< Index into the thread buffer; NoIndex if inert.
};

#else

constexpr bool compiledIn() { return false; }
inline void setLevel(Level) {}
inline Level level() { return Level::Off; }
constexpr bool metricsEnabled() { return false; }
constexpr bool traceEnabled() { return false; }
inline void count(const char *, std::uint64_t = 1) {}
inline void observe(const char *, double) {}
inline void beginEpoch() {}
inline Snapshot snapshot() { return Snapshot(); }
inline void reset() {}

class TraceScope {
public:
  explicit TraceScope(const char *, std::size_t = NoIndex) {}
  void setDetail(std::string) {}
};

#endif // THISTLE_TELEMETRY_ENABLED

} // namespace telemetry
} // namespace thistle

#endif // THISTLE_SUPPORT_TELEMETRY_H
