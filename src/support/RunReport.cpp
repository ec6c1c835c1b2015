//===- support/RunReport.cpp - Schema-versioned JSON run report -----------===//

#include "support/RunReport.h"

#include "support/JsonWriter.h"
#include "support/TablePrinter.h"

#include <map>
#include <ostream>
#include <sstream>

using namespace thistle;
using json::Writer;

namespace {

/// schema..exit_code header. The canonical projection omits
/// wall_seconds — it is the one header field that varies run to run.
void emitHeader(Writer &W, const RunReport &R, bool Canonical) {
  W.key("schema");
  W.value(RunReportSchema);
  W.key("tool");
  W.value(R.Tool);
  W.key("workload");
  W.value(R.Workload);
  W.key("mode");
  W.value(R.Mode);
  W.key("objective");
  W.value(R.Objective);
  W.key("hierarchy");
  W.value(R.Hierarchy);
  W.key("threads");
  W.value(R.Threads);
  if (!Canonical) {
    W.key("wall_seconds");
    W.value(R.WallSeconds);
  }
  W.key("exit_code");
  W.value(R.ExitCode);
}

void emitResult(Writer &W, const RunReport &R) {
  W.key("result");
  W.beginObject();
  W.key("found");
  W.value(R.Found);
  W.key("energy_pj");
  W.value(R.EnergyPj);
  W.key("energy_per_mac_pj");
  W.value(R.EnergyPerMacPj);
  W.key("cycles");
  W.value(R.Cycles);
  W.key("mac_ipc");
  W.value(R.MacIpc);
  W.key("edp_pj_cycles");
  W.value(R.EdpPjCycles);
  W.endObject();
}

void emitEvaluator(Writer &W, const RunReportEvaluator &E) {
  W.key("evaluator");
  W.beginObject();
  W.key("backend");
  W.value(E.Backend);
  W.key("cross_check");
  W.value(E.CrossCheck);
  W.key("evals");
  W.value(E.Evals);
  W.key("divergent_evals");
  W.value(E.DivergentEvals);
  W.key("counters_compared");
  W.value(E.CountersCompared);
  W.key("counter_mismatches");
  W.value(E.CounterMismatches);
  W.key("max_abs_delta");
  W.value(E.MaxAbsDelta);
  W.key("max_rel_delta");
  W.value(E.MaxRelDelta);
  W.key("samples");
  W.beginArray();
  for (const RunReportEvaluatorSample &S : E.Samples) {
    W.beginObject();
    W.key("counter");
    W.value(S.Counter);
    W.key("primary");
    W.value(S.Primary);
    W.key("reference");
    W.value(S.Reference);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

void emitSweep(Writer &W, const RunReport &R) {
  W.key("sweep");
  if (!R.HasSweep) {
    W.value(false); // No sweep ran (usage error / validation failure).
    return;
  }
  W.beginObject();
  W.key("task_noun");
  W.value("pair"); // Every sweep's task is one permutation-class tuple.
  W.key("tasks");
  W.value(R.Sweep.total());
  W.key("solved");
  W.value(R.Sweep.Solved);
  W.key("retried");
  W.value(R.Sweep.Retried);
  W.key("degraded");
  W.value(R.Sweep.Degraded);
  W.key("infeasible");
  W.value(R.Sweep.Infeasible);
  W.key("failed");
  W.value(R.Sweep.Failed);
  W.key("skipped");
  W.value(R.Sweep.Skipped);
  W.key("skipped_by_policy");
  W.value(R.Sweep.SkippedByPolicy);
  W.key("deadline_expired");
  W.value(R.Sweep.DeadlineExpired);
  W.key("clean");
  W.value(R.Sweep.clean());
  W.key("incidents");
  W.beginArray();
  for (const SweepIncident &I : R.Sweep.Incidents) {
    W.beginObject();
    W.key("index");
    W.value(static_cast<std::uint64_t>(I.Index));
    W.key("a");
    W.value(static_cast<std::uint64_t>(I.A));
    W.key("b");
    W.value(static_cast<std::uint64_t>(I.B));
    W.key("outcome");
    W.value(taskOutcomeName(I.Outcome));
    W.key("attempts");
    W.value(I.Attempts);
    W.key("detail");
    W.value(I.Detail);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

/// Canonical projections drop the two cache traffic counters: hot
/// replay answers the same query with hits where the cold run counted
/// misses, and the whole point of the projection is that those runs
/// compare byte-equal.
void emitNetwork(Writer &W, const RunReportNetwork &N, bool Canonical) {
  W.key("network");
  if (!N.Present) {
    W.value(false); // Not a --network run.
    return;
  }
  W.beginObject();
  W.key("layers_total");
  W.value(N.LayersTotal);
  W.key("layers_found");
  W.value(N.LayersFound);
  W.key("unique_shapes");
  W.value(N.UniqueShapes);
  W.key("cache_enabled");
  W.value(N.CacheEnabled);
  if (!Canonical) {
    W.key("cache_hits");
    W.value(N.CacheHits);
    W.key("cache_misses");
    W.value(N.CacheMisses);
  }
  W.key("arch_candidates");
  W.value(N.ArchCandidates);
  W.key("summed_objective");
  W.value(N.SummedObjective);
  W.key("totals");
  W.beginObject();
  W.key("energy_pj");
  W.value(N.TotalEnergyPj);
  W.key("cycles");
  W.value(N.TotalCycles);
  W.key("edp_pj_cycles");
  W.value(N.TotalEdpPjCycles);
  W.key("energy_per_mac_pj");
  W.value(N.EnergyPerMacPj);
  W.key("macs");
  W.value(N.Macs);
  W.endObject();
  W.key("layers");
  W.beginArray();
  for (const RunReportNetworkLayer &L : N.Layers) {
    W.beginObject();
    W.key("name");
    W.value(L.Name);
    W.key("shape_index");
    W.value(L.ShapeIndex);
    W.key("multiplicity");
    W.value(L.Multiplicity);
    W.key("deduplicated");
    W.value(L.Deduplicated);
    W.key("found");
    W.value(L.Found);
    W.key("energy_pj");
    W.value(L.EnergyPj);
    W.key("cycles");
    W.value(L.Cycles);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

void emitPersistence(Writer &W, const RunReportPersistence &P) {
  W.key("persistence");
  if (!P.Present) {
    W.value(false); // No cache directory was configured.
    return;
  }
  W.beginObject();
  W.key("directory");
  W.value(P.Directory);
  W.key("capacity");
  W.value(P.Capacity);
  W.key("loaded_files");
  W.value(P.LoadedFiles);
  W.key("loaded_entries");
  W.value(P.LoadedEntries);
  W.key("append_failures");
  W.value(P.AppendFailures);
  W.key("evictions");
  W.value(P.Evictions);
  W.key("data_loss_detected");
  W.value(P.DataLossDetected);
  W.key("problems");
  W.beginArray();
  for (const std::string &Problem : P.Problems)
    W.value(Problem);
  W.endArray();
  W.key("snapshot_written");
  W.value(P.SnapshotWritten);
  W.endObject();
}

void emitShards(Writer &W, const RunReportShards &S) {
  W.key("shards");
  if (!S.Present) {
    W.value(false); // Not a sharded or merging run.
    return;
  }
  W.beginObject();
  W.key("index");
  W.value(S.Index);
  W.key("count");
  W.value(S.Count);
  W.key("merge");
  W.value(S.Merge);
  W.endObject();
}

void emitServeObject(Writer &W, const RunReportServe &S) {
  W.beginObject();
  W.key("requests");
  W.value(S.Requests);
  W.key("queries");
  W.value(S.Queries);
  W.key("errors");
  W.value(S.Errors);
  W.key("deduplicated");
  W.value(S.Deduplicated);
  W.key("solves");
  W.value(S.Solves);
  W.key("cache_hits");
  W.value(S.CacheHits);
  W.key("cache_misses");
  W.value(S.CacheMisses);
  W.key("cache_evictions");
  W.value(S.CacheEvictions);
  W.key("compactions");
  W.value(S.Compactions);
  W.endObject();
}

void emitServe(Writer &W, const RunReportServe &S) {
  W.key("serve");
  if (S.Present)
    emitServeObject(W, S);
  else
    W.value(false); // Not a thistle-serve report.
}

void emitMetricsAndTrace(Writer &W, const telemetry::Snapshot &T) {
  W.key("metrics");
  W.beginObject();
  W.key("counters");
  W.beginObject();
  for (const telemetry::CounterValue &C : T.Counters) {
    W.key(C.Name.c_str());
    W.value(C.Value);
  }
  W.endObject();
  W.key("stats");
  W.beginObject();
  for (const telemetry::StatValue &S : T.Stats) {
    W.key(S.Name.c_str());
    W.beginObject();
    W.key("count");
    W.value(S.Count);
    W.key("sum");
    W.value(S.Sum);
    W.key("min");
    W.value(S.Min);
    W.key("max");
    W.value(S.Max);
    W.key("mean");
    W.value(S.mean());
    W.endObject();
  }
  W.endObject();
  W.endObject();

  W.key("trace");
  W.beginObject();
  W.key("dropped_spans");
  W.value(T.DroppedSpans);
  W.key("spans");
  W.beginArray();
  for (const telemetry::Span &S : T.Spans) {
    W.beginObject();
    W.key("name");
    W.value(S.Name);
    W.key("epoch");
    W.value(S.Epoch);
    W.key("index");
    // NoIndex marks a span outside any sweep task.
    if (S.Index == telemetry::NoIndex)
      W.value(-1);
    else
      W.value(static_cast<std::uint64_t>(S.Index));
    W.key("depth");
    W.value(S.Depth);
    W.key("start_ns");
    W.value(S.StartNs);
    W.key("duration_ns");
    W.value(S.DurationNs);
    W.key("detail");
    W.value(S.Detail);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

} // namespace

std::string RunReport::toJson() const {
  std::ostringstream OS;
  Writer W(OS);
  W.beginObject();
  emitHeader(W, *this, /*Canonical=*/false);
  emitResult(W, *this);
  emitEvaluator(W, Evaluator);
  emitSweep(W, *this);
  emitNetwork(W, Network, /*Canonical=*/false);
  emitPersistence(W, Persistence);
  emitShards(W, Shards);
  emitServe(W, Serve);
  emitMetricsAndTrace(W, Telemetry);
  W.endObject();
  OS << "\n";
  return OS.str();
}

std::string thistle::serveSectionJson(const RunReportServe &S) {
  std::ostringstream OS;
  Writer W(OS, /*Compact=*/true);
  emitServeObject(W, S);
  return OS.str();
}

std::string RunReport::toCanonicalJson() const {
  std::ostringstream OS;
  Writer W(OS, /*Compact=*/true);
  W.beginObject();
  emitHeader(W, *this, /*Canonical=*/true);
  emitResult(W, *this);
  emitEvaluator(W, Evaluator);
  emitSweep(W, *this);
  emitNetwork(W, Network, /*Canonical=*/true);
  W.endObject();
  return OS.str();
}

void thistle::printProfile(std::ostream &OS,
                           const telemetry::Snapshot &Snap) {
  OS << "\n==== profile ====\n";
  if (Snap.Counters.empty() && Snap.Stats.empty() && Snap.Spans.empty()) {
    OS << "(no telemetry collected"
       << (telemetry::compiledIn() ? "" : "; compiled out") << ")\n";
    return;
  }

  if (!Snap.Spans.empty()) {
    // Aggregate spans by name, in first-appearance order of the
    // deterministic merged span list.
    struct Agg {
      std::uint64_t Count = 0;
      std::uint64_t TotalNs = 0;
      std::uint64_t MaxNs = 0;
    };
    std::vector<std::pair<std::string, Agg>> Order;
    std::map<std::string, std::size_t> Pos;
    for (const telemetry::Span &S : Snap.Spans) {
      auto [It, Inserted] = Pos.try_emplace(S.Name, Order.size());
      if (Inserted)
        Order.push_back({S.Name, Agg()});
      Agg &A = Order[It->second].second;
      ++A.Count;
      A.TotalNs += S.DurationNs;
      A.MaxNs = std::max(A.MaxNs, S.DurationNs);
    }
    TablePrinter Table({"span", "count", "total ms", "mean ms", "max ms"});
    for (const auto &[Name, A] : Order)
      Table.addRow({Name,
                    TablePrinter::formatInt(
                        static_cast<std::int64_t>(A.Count)),
                    TablePrinter::formatDouble(A.TotalNs * 1e-6, 3),
                    TablePrinter::formatDouble(
                        A.TotalNs * 1e-6 / static_cast<double>(A.Count), 3),
                    TablePrinter::formatDouble(A.MaxNs * 1e-6, 3)});
    Table.print(OS);
    if (Snap.DroppedSpans)
      OS << "(" << Snap.DroppedSpans << " spans dropped at buffer cap)\n";
  }

  if (!Snap.Counters.empty()) {
    TablePrinter Table({"counter", "value"});
    for (const telemetry::CounterValue &C : Snap.Counters)
      Table.addRow({C.Name, TablePrinter::formatInt(
                                static_cast<std::int64_t>(C.Value))});
    Table.print(OS);
  }
  if (!Snap.Stats.empty()) {
    TablePrinter Table({"stat", "count", "mean", "min", "max"});
    for (const telemetry::StatValue &S : Snap.Stats)
      Table.addRow({S.Name,
                    TablePrinter::formatInt(
                        static_cast<std::int64_t>(S.Count)),
                    TablePrinter::formatDouble(S.mean(), 4),
                    TablePrinter::formatDouble(S.Min, 4),
                    TablePrinter::formatDouble(S.Max, 4)});
    Table.print(OS);
  }
}
