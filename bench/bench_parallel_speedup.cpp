//===- bench/bench_parallel_speedup.cpp - Threaded engine throughput ------===//
//
// Measures the wall-clock throughput of the two parallelized hot loops —
// the perm-class pair sweep (pairs/s) and the mapper search (trials/s) —
// at 1 thread vs. N threads on a Table-2 workload, and writes the numbers
// to BENCH_parallel.json so the perf trajectory is tracked across PRs.
// The 1-thread and N-thread runs alternate, so a slow phase of the host
// slows both sides. Both engines are bit-deterministic under the thread
// count, so the speedup is pure wall clock: the measured runs are checked
// to agree, and the bench exits 1 without writing the JSON when they
// differ.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

using namespace thistle;
using namespace thistle::bench;

namespace {

struct Measurement {
  double Seconds1 = 0.0;
  double SecondsN = 0.0;
  double Units = 0.0; ///< Pairs solved / trials run (same at both counts).
  bool Agree = true;  ///< Both thread counts returned the same answer.
};

/// Timed repetitions per thread count; each side keeps its minimum.
constexpr unsigned Reps = 3;

/// Times \p One (1 thread) and \p Many (N threads) alternately, Reps
/// times each (1t, Nt, 1t, Nt, ...), keeping the minimum of each side.
template <typename OneFn, typename ManyFn>
void timeAlternating(Measurement &M, OneFn &&One, ManyFn &&Many) {
  M.Seconds1 = M.SecondsN = std::numeric_limits<double>::infinity();
  for (unsigned R = 0; R < Reps; ++R) {
    M.Seconds1 = std::min(M.Seconds1, minSecondsOfN(1, One));
    M.SecondsN = std::min(M.SecondsN, minSecondsOfN(1, Many));
  }
}

Measurement measureSweep(const Problem &P, unsigned Threads) {
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  ThistleOptions Opts =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Energy);

  Measurement M;
  ThistleResult Seq, Par;
  auto Run = [&](unsigned T, ThistleResult &Out) {
    Opts.Threads = T;
    Out = optimizeLayer(P, Arch, Tech, Opts);
  };
  timeAlternating(
      M, [&] { Run(1, Seq); }, [&] { Run(Threads, Par); });

  // Planned pairs, not solved: throughput counts GP attempts fanned out,
  // regardless of per-pair outcome.
  M.Units = Seq.Stats.PairsPlanned;
  M.Agree = Seq.Eval.EnergyPj == Par.Eval.EnergyPj;
  return M;
}

Measurement measureMapper(const Problem &P, unsigned Threads) {
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  EnergyModel Energy(Tech);
  MapperOptions Opts = mapperOptions(SearchObjective::Energy);
  Opts.MaxTrials = 8000;
  Opts.VictoryCondition = 8000; // Let the budget dominate the timing.

  Measurement M;
  MapperResult Seq, Par;
  auto Run = [&](unsigned T, MapperResult &Out) {
    Opts.Threads = T;
    Out = searchMappings(P, Arch, Energy, Opts);
  };
  timeAlternating(
      M, [&] { Run(1, Seq); }, [&] { Run(Threads, Par); });

  M.Units = Seq.Trials;
  M.Agree = Seq.Trials == Par.Trials &&
            Seq.BestEval.EnergyPj == Par.BestEval.EnergyPj;
  return M;
}

void printRow(const char *Name, const Measurement &M, unsigned Threads) {
  std::printf("%-10s %10.0f units  %8.2fs @1t (%8.1f/s)  %8.2fs @%ut "
              "(%8.1f/s)  speedup %.2fx\n",
              Name, M.Units, M.Seconds1, M.Units / M.Seconds1, M.SecondsN,
              Threads, M.Units / M.SecondsN, M.Seconds1 / M.SecondsN);
}

void writeJson(const char *Path, const std::string &Workload,
               unsigned ThreadsRequested, unsigned Threads,
               const Measurement &Sweep, const Measurement &Mapper) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(
      F,
      "{\n"
      "  \"bench\": \"parallel_speedup\",\n"
      "  \"workload\": \"%s\",\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"threads_requested\": %u,\n"
      "  \"threads\": %u,\n"
      "  \"oversubscribed\": %s,\n"
      "  \"timing\": \"alternating_min_of_%u\",\n"
      "  \"sweep\": {\n"
      "    \"pairs\": %.0f,\n"
      "    \"seconds_1t\": %.4f,\n"
      "    \"seconds_nt\": %.4f,\n"
      "    \"pairs_per_s_1t\": %.2f,\n"
      "    \"pairs_per_s_nt\": %.2f,\n"
      "    \"speedup\": %.3f\n"
      "  },\n"
      "  \"mapper\": {\n"
      "    \"trials\": %.0f,\n"
      "    \"seconds_1t\": %.4f,\n"
      "    \"seconds_nt\": %.4f,\n"
      "    \"trials_per_s_1t\": %.2f,\n"
      "    \"trials_per_s_nt\": %.2f,\n"
      "    \"speedup\": %.3f\n"
      "  }\n"
      "}\n",
      Workload.c_str(), ThreadPool::defaultWorkerCount(), ThreadsRequested,
      Threads, oversubscribed(ThreadsRequested) ? "true" : "false", Reps,
      Sweep.Units, Sweep.Seconds1, Sweep.SecondsN,
      Sweep.Units / Sweep.Seconds1, Sweep.Units / Sweep.SecondsN,
      Sweep.Seconds1 / Sweep.SecondsN, Mapper.Units, Mapper.Seconds1,
      Mapper.SecondsN, Mapper.Units / Mapper.Seconds1,
      Mapper.Units / Mapper.SecondsN, Mapper.Seconds1 / Mapper.SecondsN);
  std::fclose(F);
}

} // namespace

int main() {
  printHeader("parallel engine throughput",
              "Wall-clock speedup of the perm-class pair sweep and the "
              "mapper search\nat 1 vs N worker threads on a Table-2 "
              "workload. Results are identical at\nany thread count; on "
              "single-core hosts the speedup degenerates to ~1x.");

  // A mid-network ResNet-18 stage: large enough that each GP solve does
  // real work, small enough that the 1-thread baseline stays in seconds.
  ConvLayer L = resnet18Layers()[4];
  Problem P = makeConvProblem(L);
  // Scaling is measured at min(request, hardware) workers: timing more
  // software threads than hardware threads measures the scheduler, not
  // the engines. The request and the clamp land in the JSON.
  const unsigned ThreadsRequested =
      std::max(4u, ThreadPool::defaultWorkerCount());
  const unsigned Threads = clampThreads(ThreadsRequested);
  if (oversubscribed(ThreadsRequested))
    std::printf("note: %u threads requested but only %u hardware threads; "
                "timing the clamped count\n\n",
                ThreadsRequested, ThreadPool::defaultWorkerCount());

  Measurement Sweep = measureSweep(P, Threads);
  Measurement Mapper = measureMapper(P, Threads);
  printRow("sweep", Sweep, Threads);
  printRow("mapper", Mapper, Threads);
  if (!Sweep.Agree || !Mapper.Agree) {
    if (!Sweep.Agree)
      std::fprintf(stderr, "error: sweep result differs across thread "
                           "counts\n");
    if (!Mapper.Agree)
      std::fprintf(stderr, "error: mapper result differs across thread "
                           "counts\n");
    return 1;
  }

  writeJson("BENCH_parallel.json", L.Name, ThreadsRequested, Threads, Sweep,
            Mapper);
  std::printf("\nwrote BENCH_parallel.json\n");
  return 0;
}
