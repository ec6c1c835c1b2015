//===- bench/bench_network_cache.cpp - Network driver cache speedup -------===//
//
// Measures the GP solution cache on the network driver: a ResNet-18
// dataflow sweep solved cold (empty cache), then replayed against the
// populated cache, plus a cache-free baseline. The cached run must
// reproduce the cold run bit for bit — the speedup is pure wall clock.
// Writes BENCH_network.json so the perf trajectory is tracked across PRs.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/Persist.h"
#include "thistle/Network.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace thistle;
using namespace thistle::bench;

namespace {

struct Measurement {
  double Seconds = 0.0;
  NetworkResult Result;
};

Measurement measure(const std::vector<ConvLayer> &Layers,
                    GpSolutionCache *Cache) {
  NetworkOptions Opts;
  Opts.Layer =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Energy);
  Opts.Run.Cache = Cache;
  Measurement M;
  WallTimer T;
  M.Result = optimizeNetwork(Layers, eyerissArch(), TechParams::cgo45nm(),
                             Opts);
  M.Seconds = T.seconds();
  return M;
}

void printRow(const char *Name, const Measurement &M) {
  const NetworkStats &S = M.Result.Stats;
  std::printf("%-10s %6.2fs  %8.1f pairs/s  %5llu hits %5llu misses\n",
              Name, M.Seconds, S.PairsPlanned / M.Seconds,
              static_cast<unsigned long long>(S.CacheHits),
              static_cast<unsigned long long>(S.CacheMisses));
}

void writeJson(const char *Path, const Measurement &NoCache,
               const Measurement &Cold, const Measurement &Cached) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  const NetworkStats &S = Cold.Result.Stats;
  std::fprintf(
      F,
      "{\n"
      "  \"bench\": \"network_cache\",\n"
      "  \"workload\": \"resnet18\",\n"
      "  \"layers\": %zu,\n"
      "  \"unique_shapes\": %zu,\n"
      "  \"pairs_planned\": %u,\n"
      "  \"seconds_no_cache\": %.4f,\n"
      "  \"seconds_cold\": %.4f,\n"
      "  \"seconds_cached\": %.4f,\n"
      "  \"pairs_per_s_cold\": %.2f,\n"
      "  \"pairs_per_s_cached\": %.2f,\n"
      "  \"cached_speedup\": %.3f,\n"
      "  \"cold_misses\": %llu,\n"
      "  \"cached_hits\": %llu,\n"
      "  \"cached_misses\": %llu\n"
      "}\n",
      S.LayersTotal, S.UniqueShapes, S.PairsPlanned, NoCache.Seconds,
      Cold.Seconds, Cached.Seconds, S.PairsPlanned / Cold.Seconds,
      S.PairsPlanned / Cached.Seconds, Cold.Seconds / Cached.Seconds,
      static_cast<unsigned long long>(S.CacheMisses),
      static_cast<unsigned long long>(Cached.Result.Stats.CacheHits),
      static_cast<unsigned long long>(Cached.Result.Stats.CacheMisses));
  std::fclose(F);
}

} // namespace

int main() {
  printHeader("network GP-solution cache",
              "ResNet-18 dataflow sweep: cache-free baseline, cold run "
              "(populating an\nempty cache), and cached replay. The cache "
              "must not change any result —\nonly the wall clock.");

  std::vector<ConvLayer> Layers = resnet18NetworkLayers();

  Measurement NoCache = measure(Layers, nullptr);
  GpSolutionCache Cache;
  Measurement Cold = measure(Layers, &Cache);
  Measurement Cached = measure(Layers, &Cache);

  printRow("no-cache", NoCache);
  printRow("cold", Cold);
  printRow("cached", Cached);
  std::printf("cached speedup over cold: %.2fx\n",
              Cold.Seconds / Cached.Seconds);

  // Durable-state overhead (docs/PERSISTENCE.md): what a clean-exit
  // compaction costs, what a cold-process reload costs, and how a
  // reloaded-from-disk replay compares to the in-memory one.
  const std::string SnapPath = "BENCH_network_cache.snap";
  WallTimer SaveT;
  Status SaveSt = Cache.saveSnapshotFile(SnapPath);
  double SaveS = SaveT.seconds();
  GpSolutionCache Reloaded;
  GpCachePersistStats PS;
  WallTimer LoadT;
  Reloaded.loadFile(SnapPath, PS);
  double LoadS = LoadT.seconds();
  Measurement Replayed = measure(Layers, &Reloaded);
  if (!SaveSt.isOk())
    std::printf("WARNING: snapshot save failed: %s\n",
                SaveSt.toString().c_str());
  std::printf("snapshot: save %zu entries %.3fs, load %.3fs\n",
              Cache.size(), SaveS, LoadS);
  printRow("reloaded", Replayed);
  if (Replayed.Result.Totals.EnergyPj != Cold.Result.Totals.EnergyPj ||
      Replayed.Result.Stats.CacheMisses != 0)
    std::printf("WARNING: disk round trip changed the replay!\n");
  persist::removeFile(SnapPath);

  if (NoCache.Result.Totals.EnergyPj != Cold.Result.Totals.EnergyPj ||
      Cold.Result.Totals.EnergyPj != Cached.Result.Totals.EnergyPj)
    std::printf("WARNING: cache changed the network result!\n");
  if (Cached.Result.Stats.CacheMisses != 0)
    std::printf("WARNING: cached replay missed %llu times!\n",
                static_cast<unsigned long long>(
                    Cached.Result.Stats.CacheMisses));

  writeJson("BENCH_network.json", NoCache, Cold, Cached);
  std::printf("\nwrote BENCH_network.json\n");
  return 0;
}
