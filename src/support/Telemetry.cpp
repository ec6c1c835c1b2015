//===- support/Telemetry.cpp - Tracing, counters, run metrics ------------===//

#include "support/Telemetry.h"

#if THISTLE_TELEMETRY_ENABLED

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

using namespace thistle;
using namespace thistle::telemetry;

namespace {

/// Cap on spans buffered per thread; overflow is counted, not stored.
constexpr std::size_t MaxSpansPerThread = 1u << 18;

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Global collection state. The level is read on every hook (relaxed:
/// the hooks only gate collection, they order nothing), the registries
/// are guarded by a mutex — hooks fire at per-solve / per-task
/// granularity, so contention is negligible next to the Newton work
/// between two calls.
struct CounterCell {
  std::uint64_t Value = 0;
};
struct StatCell {
  std::uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

/// Per-thread span buffer. Owned by the global state, registered on
/// first use so that snapshot() can reach buffers of pool workers;
/// buffers outlive their threads (the global state frees them at process
/// exit) because pool workers are joined long after the sweeps that
/// filled the buffers return.
struct ThreadBuffer {
  std::vector<Span> Spans;
  /// Indices (into Spans) of the currently open spans, innermost last.
  std::vector<std::size_t> OpenStack;
  std::uint64_t Dropped = 0;
};

struct GlobalState {
  std::atomic<int> LevelValue{static_cast<int>(Level::Off)};
  /// Sweep ordinal: bumped by beginEpoch() on the calling thread before
  /// fan-out; the parallelFor barrier orders the bump against every
  /// worker span of the sweep, so a relaxed load is enough.
  std::atomic<std::uint64_t> Epoch{0};
  std::mutex Mutex;
  std::map<std::string, CounterCell> Counters;
  std::map<std::string, StatCell> Stats;
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
};

GlobalState &state() {
  static GlobalState S;
  return S;
}

ThreadBuffer &threadBuffer() {
  thread_local ThreadBuffer *TB = [] {
    GlobalState &S = state();
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Buffers.push_back(std::make_unique<ThreadBuffer>());
    return S.Buffers.back().get();
  }();
  return *TB;
}

} // namespace

void telemetry::setLevel(Level L) {
  state().LevelValue.store(static_cast<int>(L), std::memory_order_relaxed);
}

Level telemetry::level() {
  return static_cast<Level>(
      state().LevelValue.load(std::memory_order_relaxed));
}

bool telemetry::metricsEnabled() { return level() != Level::Off; }

bool telemetry::traceEnabled() { return level() == Level::Trace; }

void telemetry::count(const char *Name, std::uint64_t Delta) {
  if (!metricsEnabled())
    return;
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Counters[Name].Value += Delta;
}

void telemetry::observe(const char *Name, double Value) {
  if (!metricsEnabled())
    return;
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  StatCell &Cell = S.Stats[Name];
  if (Cell.Count == 0) {
    Cell.Min = Cell.Max = Value;
  } else {
    Cell.Min = std::min(Cell.Min, Value);
    Cell.Max = std::max(Cell.Max, Value);
  }
  ++Cell.Count;
  Cell.Sum += Value;
}

void telemetry::beginEpoch() {
  if (traceEnabled())
    state().Epoch.fetch_add(1, std::memory_order_relaxed);
}

TraceScope::TraceScope(const char *Name, std::size_t Index)
    : Slot(NoIndex) {
  if (!traceEnabled())
    return;
  ThreadBuffer &TB = threadBuffer();
  if (TB.Spans.size() >= MaxSpansPerThread) {
    ++TB.Dropped;
    return;
  }
  Span Rec;
  Rec.Name = Name;
  Rec.Epoch = state().Epoch.load(std::memory_order_relaxed);
  // Nested spans inherit the sweep-task key of their enclosing span so
  // the snapshot merge keeps a task's spans contiguous and ordered.
  if (Index == NoIndex && !TB.OpenStack.empty())
    Index = TB.Spans[TB.OpenStack.back()].Index;
  Rec.Index = Index;
  // Depth counts only same-key ancestors. A task-keyed span under a
  // tool-level wrapper must report the same depth whether the shard ran
  // inline on the calling thread (1 worker) or on a pool thread, so
  // spans of other keys are transparent to it.
  unsigned Depth = 0;
  for (std::size_t Open : TB.OpenStack)
    if (TB.Spans[Open].Index == Index)
      ++Depth;
  Rec.Depth = Depth;
  Rec.StartNs = nowNs();
  Slot = TB.Spans.size();
  TB.Spans.push_back(std::move(Rec));
  TB.OpenStack.push_back(Slot);
}

TraceScope::~TraceScope() {
  if (Slot == NoIndex)
    return;
  ThreadBuffer &TB = threadBuffer();
  TB.Spans[Slot].DurationNs = nowNs() - TB.Spans[Slot].StartNs;
  // Scopes unwind strictly LIFO per thread.
  if (!TB.OpenStack.empty() && TB.OpenStack.back() == Slot)
    TB.OpenStack.pop_back();
}

void TraceScope::setDetail(std::string Detail) {
  if (Slot == NoIndex)
    return;
  threadBuffer().Spans[Slot].Detail = std::move(Detail);
}

Snapshot telemetry::snapshot() {
  GlobalState &S = state();
  Snapshot Out;
  Out.CollectedAt = level();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  for (const auto &[Name, Cell] : S.Counters)
    Out.Counters.push_back({Name, Cell.Value});
  for (const auto &[Name, Cell] : S.Stats)
    Out.Stats.push_back({Name, Cell.Count, Cell.Sum, Cell.Min, Cell.Max});
  for (const std::unique_ptr<ThreadBuffer> &TB : S.Buffers) {
    Out.DroppedSpans += TB->Dropped;
    Out.Spans.insert(Out.Spans.end(), TB->Spans.begin(), TB->Spans.end());
  }
  // Deterministic merge: stable-sort by (epoch, task key). Within one
  // epoch every key is produced by exactly one thread (tasks are sharded
  // contiguously), so equal-key spans come from one buffer and keep
  // their deterministic in-thread order; NoIndex spans (tool-level
  // wrappers, opened on the calling thread) sort last within their
  // epoch, in their own record order.
  std::stable_sort(Out.Spans.begin(), Out.Spans.end(),
                   [](const Span &A, const Span &B) {
                     return std::tie(A.Epoch, A.Index) <
                            std::tie(B.Epoch, B.Index);
                   });
  return Out;
}

void telemetry::reset() {
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Epoch.store(0, std::memory_order_relaxed);
  S.Counters.clear();
  S.Stats.clear();
  for (const std::unique_ptr<ThreadBuffer> &TB : S.Buffers) {
    TB->Spans.clear();
    TB->OpenStack.clear();
    TB->Dropped = 0;
  }
}

#endif // THISTLE_TELEMETRY_ENABLED
