//===- tests/NetworkTest.cpp - Network driver and GP cache tests ----------===//
//
// The contracts of thistle::optimizeNetwork and GpSolutionCache: shape
// deduplication, bit-identical results with the cache on or off and at
// any thread count, cross-run cache hits, the CoDesign network-arch
// selection, the zero-layer guard, and the stats/report consistency
// invariant.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "nestmodel/Evaluator.h"
#include "thistle/Network.h"
#include "thistle/PairSweep.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

using namespace thistle;

namespace {

ConvLayer conv(std::string Name, std::int64_t K, std::int64_t C,
               std::int64_t HW, std::int64_t RS, std::int64_t Stride = 1) {
  ConvLayer L;
  L.Name = std::move(Name);
  L.K = K;
  L.C = C;
  L.Hin = HW;
  L.Win = HW;
  L.R = RS;
  L.S = RS;
  L.StrideX = L.StrideY = Stride;
  return L;
}

/// A 4-instance, 2-shape toy network: "a"/"a2" share a shape, as do
/// "b"/"b2" (the names differ on purpose — dedup keys on shape only).
std::vector<ConvLayer> toyNetwork() {
  return {conv("a", 16, 16, 14, 3), conv("b", 32, 16, 14, 1),
          conv("a2", 16, 16, 14, 3), conv("b2", 32, 16, 14, 1)};
}

NetworkOptions fastNetworkOptions() {
  NetworkOptions NO;
  NO.Layer.Solver.Tolerance = 1e-5;
  NO.Layer.MaxPermClassPairs = 8; // Keep the integration tests quick.
  return NO;
}

/// Everything a deterministic run must reproduce bit-for-bit (the
/// timing-free slice of a NetworkResult).
void expectIdentical(const NetworkResult &A, const NetworkResult &B) {
  ASSERT_EQ(A.Layers.size(), B.Layers.size());
  EXPECT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.LayersFound, B.LayersFound);
  EXPECT_EQ(A.Totals.EnergyPj, B.Totals.EnergyPj);
  EXPECT_EQ(A.Totals.Cycles, B.Totals.Cycles);
  EXPECT_EQ(A.Totals.EdpPjCycles, B.Totals.EdpPjCycles);
  EXPECT_EQ(A.Totals.SummedObjective, B.Totals.SummedObjective);
  EXPECT_EQ(A.Arch.NumPEs, B.Arch.NumPEs);
  EXPECT_EQ(A.Arch.RegWordsPerPE, B.Arch.RegWordsPerPE);
  EXPECT_EQ(A.Arch.SramWords, B.Arch.SramWords);
  EXPECT_EQ(A.Report.Solved, B.Report.Solved);
  EXPECT_EQ(A.Report.Degraded, B.Report.Degraded);
  EXPECT_EQ(A.Report.Infeasible, B.Report.Infeasible);
  EXPECT_EQ(A.Report.Failed, B.Report.Failed);
  EXPECT_EQ(A.Report.Skipped, B.Report.Skipped);
  EXPECT_EQ(A.Stats.PairsSolved, B.Stats.PairsSolved);
  for (std::size_t I = 0; I < A.Layers.size(); ++I) {
    SCOPED_TRACE("layer " + A.Layers[I].Name);
    EXPECT_EQ(A.Layers[I].Result.Found, B.Layers[I].Result.Found);
    EXPECT_EQ(A.Layers[I].Result.Eval.EnergyPj,
              B.Layers[I].Result.Eval.EnergyPj);
    EXPECT_EQ(A.Layers[I].Result.Eval.Cycles,
              B.Layers[I].Result.Eval.Cycles);
    EXPECT_EQ(A.Layers[I].Result.ModelObjective,
              B.Layers[I].Result.ModelObjective);
    EXPECT_EQ(A.Layers[I].Result.Map.Factors,
              B.Layers[I].Result.Map.Factors);
    EXPECT_EQ(A.Layers[I].Result.BestPePerm, B.Layers[I].Result.BestPePerm);
    EXPECT_EQ(A.Layers[I].Result.BestDramPerm,
              B.Layers[I].Result.BestDramPerm);
  }
}

} // namespace

TEST(Network, DeduplicatesRepeatedShapes) {
  NetworkResult R = optimizeNetwork(toyNetwork(), eyerissArch(),
                                    TechParams::cgo45nm(),
                                    fastNetworkOptions());
  ASSERT_TRUE(R.InputStatus.isOk());
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Stats.LayersTotal, 4u);
  EXPECT_EQ(R.Stats.UniqueShapes, 2u);
  ASSERT_EQ(R.Layers.size(), 4u);
  EXPECT_FALSE(R.Layers[0].Deduplicated);
  EXPECT_FALSE(R.Layers[1].Deduplicated);
  EXPECT_TRUE(R.Layers[2].Deduplicated);
  EXPECT_TRUE(R.Layers[3].Deduplicated);
  EXPECT_EQ(R.Layers[2].ShapeIndex, R.Layers[0].ShapeIndex);
  EXPECT_EQ(R.Layers[0].Multiplicity, 2u);

  // The dedup copy shares the winner bit-for-bit but reports nothing
  // (the shape's sweep is accounted once).
  EXPECT_EQ(R.Layers[2].Result.Eval.EnergyPj,
            R.Layers[0].Result.Eval.EnergyPj);
  EXPECT_EQ(R.Layers[2].Result.Map.Factors, R.Layers[0].Result.Map.Factors);
  EXPECT_EQ(R.Layers[2].Result.Report.total(), 0u);
  EXPECT_EQ(R.Layers[2].Result.Stats.PairsPlanned, 0u);
  EXPECT_GT(R.Layers[0].Result.Report.total(), 0u);

  // Totals count every input layer, so the duplicated shapes weigh
  // double.
  double Expected = 0.0;
  for (const NetworkLayerResult &L : R.Layers)
    Expected += L.Result.Eval.EnergyPj;
  EXPECT_DOUBLE_EQ(R.Totals.EnergyPj, Expected);
  EXPECT_EQ(R.Totals.EdpPjCycles, R.Totals.EnergyPj * R.Totals.Cycles);

  // The accounting invariant, network-wide.
  EXPECT_EQ(R.Stats.PairsSolved, R.Report.Solved + R.Report.Degraded);
}

TEST(Network, CacheOnOffAndAcrossRunsBitIdentical) {
  NetworkOptions Cold = fastNetworkOptions();
  NetworkResult NoCache = optimizeNetwork(
      toyNetwork(), eyerissArch(), TechParams::cgo45nm(), Cold);
  ASSERT_TRUE(NoCache.Found);

  GpSolutionCache Cache;
  NetworkOptions Cached = fastNetworkOptions();
  Cached.Run.Cache = &Cache;
  NetworkResult First = optimizeNetwork(
      toyNetwork(), eyerissArch(), TechParams::cgo45nm(), Cached);
  ASSERT_TRUE(First.Found);
  expectIdentical(NoCache, First);
  // One optimizeNetwork call dedups its own repeats, so the first run
  // only fills the cache.
  EXPECT_EQ(First.Stats.CacheHits, 0u);
  EXPECT_GT(First.Stats.CacheMisses, 0u);

  // A second run over the same network replays every pair from the
  // cache — same results, no solves.
  NetworkResult Second = optimizeNetwork(
      toyNetwork(), eyerissArch(), TechParams::cgo45nm(), Cached);
  ASSERT_TRUE(Second.Found);
  expectIdentical(NoCache, Second);
  EXPECT_GT(Second.Stats.CacheHits, 0u);
  EXPECT_EQ(Second.Stats.CacheMisses, 0u);
  EXPECT_EQ(Cache.hits(), Second.Stats.CacheHits);

  // Stats replay identically too: Newton iterations and candidate
  // counts come from the recorded entries.
  EXPECT_EQ(Second.Report.Retried, First.Report.Retried);
  for (std::size_t I = 0; I < First.Layers.size(); ++I) {
    EXPECT_EQ(Second.Layers[I].Result.Stats.NewtonIterations,
              First.Layers[I].Result.Stats.NewtonIterations);
    EXPECT_EQ(Second.Layers[I].Result.Stats.CandidatesEvaluated,
              First.Layers[I].Result.Stats.CandidatesEvaluated);
  }
}

TEST(Network, ThreadCountDoesNotChangeResults) {
  NetworkOptions One = fastNetworkOptions();
  One.Layer.Threads = 1;
  NetworkResult R1 = optimizeNetwork(toyNetwork(), eyerissArch(),
                                     TechParams::cgo45nm(), One);
  ASSERT_TRUE(R1.Found);
  NetworkOptions Eight = fastNetworkOptions();
  Eight.Layer.Threads = 8;
  NetworkResult R8 = optimizeNetwork(toyNetwork(), eyerissArch(),
                                     TechParams::cgo45nm(), Eight);
  ASSERT_TRUE(R8.Found);
  expectIdentical(R1, R8);

  // And with a shared cache at 8 threads: a hit replays what the cold
  // solve computed, whatever order the parallel tasks fill it in.
  GpSolutionCache Cache;
  Eight.Run.Cache = &Cache;
  NetworkResult RC = optimizeNetwork(toyNetwork(), eyerissArch(),
                                     TechParams::cgo45nm(), Eight);
  ASSERT_TRUE(RC.Found);
  expectIdentical(R1, RC);
}

TEST(Network, EmptyNetworkSaysNothingAttempted) {
  NetworkResult R =
      optimizeNetwork({}, eyerissArch(), TechParams::cgo45nm(),
                      fastNetworkOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  EXPECT_NE(R.InputStatus.toString().find("0 tasks: nothing attempted"),
            std::string::npos);
  // The empty report's own summary names the zero-work case explicitly.
  EXPECT_EQ(R.Report.total(), 0u);
  EXPECT_NE(R.Report.toString("pair").find("0 pairs: nothing attempted"),
            std::string::npos);
}

TEST(Network, BadInputsFailValidationWithInputsContext) {
  ArchConfig Bad = eyerissArch();
  Bad.NumPEs = 0;
  NetworkResult R = optimizeNetwork(toyNetwork(), Bad,
                                    TechParams::cgo45nm(),
                                    fastNetworkOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  // The check reads the architecture, not a layer, so it blames none.
  EXPECT_EQ(R.InputStatus.toString().rfind(
                "invalid-argument: validating network inputs: ", 0),
            0u);
  EXPECT_EQ(R.InputStatus.toString().find("layer"), std::string::npos);
  // Nothing ran: the report is empty rather than full of failures.
  EXPECT_EQ(R.Report.total(), 0u);
}

TEST(Network, CoDesignSelectsOneNetworkArch) {
  NetworkOptions NO = fastNetworkOptions();
  NO.Layer.Mode = DesignMode::CoDesign;
  TechParams Tech = TechParams::cgo45nm();
  NetworkResult R = optimizeNetwork(toyNetwork(), eyerissArch(), Tech, NO,
                                    eyerissAreaUm2(Tech));
  ASSERT_TRUE(R.InputStatus.isOk());
  ASSERT_TRUE(R.Found);
  ASSERT_GE(R.Stats.ArchCandidates, 1u);
  ASSERT_EQ(R.Candidates.size(), R.Stats.ArchCandidates);

  // Every layer's winner runs on the one selected architecture.
  for (const NetworkLayerResult &L : R.Layers) {
    EXPECT_EQ(L.Result.Arch.NumPEs, R.Arch.NumPEs);
    EXPECT_EQ(L.Result.Arch.RegWordsPerPE, R.Arch.RegWordsPerPE);
    EXPECT_EQ(L.Result.Arch.SramWords, R.Arch.SramWords);
  }
  // The selected candidate is complete and minimal among complete ones.
  double BestObjective = 0.0;
  bool SawSelected = false;
  for (const NetworkArchCandidate &C : R.Candidates) {
    if (C.Arch.NumPEs == R.Arch.NumPEs &&
        C.Arch.RegWordsPerPE == R.Arch.RegWordsPerPE &&
        C.Arch.SramWords == R.Arch.SramWords) {
      SawSelected = true;
      BestObjective = C.SummedObjective;
      EXPECT_TRUE(C.AllLayersFound);
    }
  }
  ASSERT_TRUE(SawSelected);
  for (const NetworkArchCandidate &C : R.Candidates) {
    if (C.AllLayersFound) {
      EXPECT_LE(BestObjective, C.SummedObjective);
    }
  }
  // The area budget binds the selected architecture too.
  EXPECT_LE(R.Arch.areaUm2(Tech), eyerissAreaUm2(Tech) * 1.0001);
}

//===----------------------------------------------------------------------===//
// GpSolutionCache persistence: LRU bound, snapshot/journal round trips,
// and graceful degradation on damaged artifacts (docs/PERSISTENCE.md).
//===----------------------------------------------------------------------===//

#include "support/Persist.h"

#include <fstream>

namespace {

NetworkResult runToy(GpSolutionCache *Cache) {
  NetworkOptions NO = fastNetworkOptions();
  NO.Run.Cache = Cache;
  return optimizeNetwork(toyNetwork(), eyerissArch(), TechParams::cgo45nm(),
                         NO);
}

} // namespace

TEST(NetworkPersist, LruBoundNeverChangesResults) {
  NetworkResult Unbounded = runToy(nullptr);
  ASSERT_TRUE(Unbounded.Found);

  GpSolutionCache Tiny;
  Tiny.setCapacity(2);
  EXPECT_EQ(Tiny.capacity(), 2u);
  NetworkResult First = runToy(&Tiny);
  ASSERT_TRUE(First.Found);
  expectIdentical(Unbounded, First);
  // The toy network fills more than two exact entries, so the bound
  // must have evicted — and the telemetry must say so.
  EXPECT_GT(First.Stats.CacheMisses, 2u);
  EXPECT_GT(Tiny.evictions(), 0u);
  EXPECT_LE(Tiny.size(), 2u);

  // A rerun mostly re-solves (the evicted entries are gone) but the
  // results stay bit-identical: eviction is a capacity decision, never
  // a correctness one.
  NetworkResult Second = runToy(&Tiny);
  ASSERT_TRUE(Second.Found);
  expectIdentical(Unbounded, Second);

  // Shrinking an over-full cache evicts immediately.
  GpSolutionCache Shrunk;
  NetworkResult Fill = runToy(&Shrunk);
  ASSERT_TRUE(Fill.Found);
  ASSERT_GT(Shrunk.size(), 1u);
  Shrunk.setCapacity(1);
  EXPECT_EQ(Shrunk.size(), 1u);
  EXPECT_GT(Shrunk.evictions(), 0u);
}

TEST(NetworkPersist, SnapshotReloadReplaysBitIdentically) {
  std::string Path = ::testing::TempDir() + "/netpersist-roundtrip.snap";
  persist::removeFile(Path);

  GpSolutionCache Warm;
  NetworkResult First = runToy(&Warm);
  ASSERT_TRUE(First.Found);
  ASSERT_GT(Warm.size(), 0u);
  ASSERT_TRUE(Warm.saveSnapshotFile(Path).isOk());

  GpSolutionCache Reloaded;
  GpCachePersistStats Stats;
  Reloaded.loadFile(Path, Stats);
  EXPECT_EQ(Stats.FilesLoaded, 1u);
  EXPECT_EQ(Stats.EntriesLoaded, Warm.size());
  EXPECT_EQ(Stats.DataLoss, 0u);
  EXPECT_EQ(Reloaded.size(), Warm.size());

  // The reloaded run replays every task from disk — zero misses — and
  // reproduces the original bit for bit.
  NetworkResult Replayed = runToy(&Reloaded);
  ASSERT_TRUE(Replayed.Found);
  expectIdentical(First, Replayed);
  EXPECT_EQ(Replayed.Stats.CacheMisses, 0u);
  EXPECT_EQ(Replayed.Stats.CacheHits, First.Stats.CacheMisses);
  persist::removeFile(Path);
}

TEST(NetworkPersist, SnapshotResavesByteIdentically) {
  // Loading a snapshot and saving it again writes the same bytes: entry
  // encoding and decoding are symmetric, and both saves write in key
  // order.
  const std::string First = ::testing::TempDir() + "/netpersist-resave1.snap";
  const std::string Second = ::testing::TempDir() + "/netpersist-resave2.snap";
  auto slurp = [](const std::string &Path) {
    std::ifstream In(Path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>());
  };

  GpSolutionCache Filled;
  ASSERT_TRUE(runToy(&Filled).Found);
  ASSERT_GT(Filled.size(), 1u);
  ASSERT_TRUE(Filled.saveSnapshotFile(First).isOk());

  GpSolutionCache Reloaded;
  GpCachePersistStats Stats;
  Reloaded.loadFile(First, Stats);
  ASSERT_EQ(Stats.DataLoss, 0u);
  ASSERT_EQ(Stats.EntriesLoaded, Filled.size());
  ASSERT_TRUE(Reloaded.saveSnapshotFile(Second).isOk());

  const std::string Bytes = slurp(First);
  EXPECT_FALSE(Bytes.empty());
  EXPECT_TRUE(Bytes == slurp(Second)) << "re-saved snapshot differs";
  persist::removeFile(First);
  persist::removeFile(Second);
}

TEST(NetworkPersist, SnapshotBytesDependOnlyOnContents) {
  // A snapshot is written in key order, so its bytes do not depend on
  // the order worker threads finished their tasks: two 4-thread fills and
  // a 1-thread fill of the same network write the same file.
  auto fillAndSave = [](unsigned Threads, const std::string &Path) {
    GpSolutionCache Cache;
    NetworkOptions NO = fastNetworkOptions();
    NO.Layer.Threads = Threads;
    NO.Run.Cache = &Cache;
    EXPECT_TRUE(
        optimizeNetwork(toyNetwork(), eyerissArch(), TechParams::cgo45nm(), NO)
            .Found);
    EXPECT_GT(Cache.size(), 1u);
    EXPECT_TRUE(Cache.saveSnapshotFile(Path).isOk());
    std::ifstream In(Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    persist::removeFile(Path);
    return Bytes;
  };
  const std::string Path = ::testing::TempDir() + "/netpersist-order.snap";
  const std::string Serial = fillAndSave(1, Path);
  EXPECT_FALSE(Serial.empty());
  EXPECT_TRUE(fillAndSave(4, Path) == Serial) << "first 4-thread fill differs";
  EXPECT_TRUE(fillAndSave(4, Path) == Serial) << "second 4-thread fill differs";
}

TEST(NetworkPersist, JournalCheckpointsReplayLikeSnapshots) {
  std::string Path = ::testing::TempDir() + "/netpersist-journal.log";
  persist::removeFile(Path);

  GpSolutionCache Writer;
  ASSERT_TRUE(Writer.attachJournal(Path).isOk());
  NetworkResult First = runToy(&Writer);
  ASSERT_TRUE(First.Found);
  EXPECT_EQ(Writer.journalAppendFailures(), 0u);
  Writer.detachJournal();

  GpSolutionCache Reloaded;
  GpCachePersistStats Stats;
  Reloaded.loadFile(Path, Stats);
  EXPECT_EQ(Stats.EntriesLoaded, Writer.size());
  EXPECT_EQ(Stats.RecordsRead, Writer.size());
  EXPECT_EQ(Stats.DataLoss, 0u);

  NetworkResult Replayed = runToy(&Reloaded);
  ASSERT_TRUE(Replayed.Found);
  expectIdentical(First, Replayed);
  EXPECT_EQ(Replayed.Stats.CacheMisses, 0u);
  persist::removeFile(Path);
}

TEST(NetworkPersist, DamagedArtifactsDegradeToColdStart) {
  std::string Dir = ::testing::TempDir();

  // A snapshot from an unknown format: reported, then ignored.
  std::string Bad = Dir + "/netpersist-bad.snap";
  {
    std::ofstream Out(Bad, std::ios::binary | std::ios::trunc);
    Out << "bogus-format/9 snap gpcache 4 deadbeef\nXXXX";
  }
  GpSolutionCache Cold;
  GpCachePersistStats Stats;
  Cold.loadFile(Bad, Stats);
  EXPECT_EQ(Stats.EntriesLoaded, 0u);
  EXPECT_EQ(Stats.DataLoss, 1u);
  ASSERT_EQ(Stats.Problems.size(), 1u);
  EXPECT_NE(Stats.Problems[0].find(Bad), std::string::npos);

  // A missing file is not damage — silence, then a cold start.
  GpCachePersistStats Quiet;
  Cold.loadFile(Dir + "/netpersist-nonexistent.snap", Quiet);
  EXPECT_EQ(Quiet.DataLoss, 0u);
  EXPECT_EQ(Quiet.FilesLoaded, 0u);

  // The cold cache still runs the network to the same answer.
  NetworkResult Baseline = runToy(nullptr);
  NetworkResult Degraded = runToy(&Cold);
  ASSERT_TRUE(Degraded.Found);
  expectIdentical(Baseline, Degraded);
  EXPECT_EQ(Degraded.Stats.CacheHits, 0u);

  // A bit-flip inside a real snapshot's payload: CRC catches it.
  std::string Flip = Dir + "/netpersist-flip.snap";
  ASSERT_TRUE(Cold.saveSnapshotFile(Flip).isOk());
  {
    std::ifstream In(Flip, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    Bytes[Bytes.size() / 2] ^= 0x01;
    std::ofstream Out(Flip, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  GpSolutionCache Rejects;
  GpCachePersistStats FlipStats;
  Rejects.loadFile(Flip, FlipStats);
  EXPECT_EQ(FlipStats.EntriesLoaded, 0u);
  EXPECT_EQ(FlipStats.DataLoss, 1u);
  EXPECT_EQ(Rejects.size(), 0u);
  persist::removeFile(Bad);
  persist::removeFile(Flip);
}

namespace {

/// A toy network covering each new layer class once: depthwise,
/// grouped, dilated, transposed — small enough for a full sweep.
std::vector<ConvLayer> generalToyNetwork() {
  ConvLayer Dw = conv("dw", 8, 8, 10, 3);
  Dw.Groups = 8;
  ConvLayer Gr = conv("gr", 8, 8, 8, 3, 2);
  Gr.Groups = 2;
  ConvLayer Dil = conv("dil", 8, 4, 10, 3);
  Dil.DilationX = Dil.DilationY = 2;
  ConvLayer Tr = conv("tr", 4, 8, 5, 3, 2);
  Tr.Transposed = true;
  return {Dw, Gr, Dil, Tr};
}

} // namespace

TEST(Network, GeneralConvClassesAreCacheAndThreadInvariant) {
  NetworkOptions One = fastNetworkOptions();
  One.Layer.Threads = 1;
  NetworkResult R1 = optimizeNetwork(generalToyNetwork(), eyerissArch(),
                                     TechParams::cgo45nm(), One);
  ASSERT_TRUE(R1.InputStatus.isOk());
  ASSERT_TRUE(R1.Found);
  EXPECT_EQ(R1.Stats.UniqueShapes, 4u); // No false dedup across classes.

  NetworkOptions Eight = fastNetworkOptions();
  Eight.Layer.Threads = 8;
  GpSolutionCache Cache;
  Eight.Run.Cache = &Cache;
  NetworkResult Cold = optimizeNetwork(generalToyNetwork(), eyerissArch(),
                                       TechParams::cgo45nm(), Eight);
  ASSERT_TRUE(Cold.Found);
  expectIdentical(R1, Cold);
  NetworkResult Warm = optimizeNetwork(generalToyNetwork(), eyerissArch(),
                                       TechParams::cgo45nm(), Eight);
  ASSERT_TRUE(Warm.Found);
  expectIdentical(R1, Warm);
  EXPECT_EQ(Warm.Stats.CacheMisses, 0u);
}

namespace {

/// Everything one layer's sweep must reproduce bit for bit: the design,
/// the stats and the report with its incidents.
void expectSameLayer(const ThistleResult &A, const ThistleResult &B) {
  ASSERT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.Eval.EnergyPj, B.Eval.EnergyPj);
  EXPECT_EQ(A.Eval.Cycles, B.Eval.Cycles);
  EXPECT_EQ(A.ModelObjective, B.ModelObjective);
  EXPECT_EQ(A.Map.Factors, B.Map.Factors);
  EXPECT_EQ(A.Map.PePerm, B.Map.PePerm);
  EXPECT_EQ(A.Map.DramPerm, B.Map.DramPerm);
  EXPECT_EQ(A.BestPePerm, B.BestPePerm);
  EXPECT_EQ(A.BestDramPerm, B.BestDramPerm);

  const ThistleStats &SA = A.Stats, &SB = B.Stats;
  EXPECT_EQ(SA.PermClassesPerLevel, SB.PermClassesPerLevel);
  EXPECT_EQ(SA.RawPermsPerLevel, SB.RawPermsPerLevel);
  EXPECT_EQ(SA.PairsTotal, SB.PairsTotal);
  EXPECT_EQ(SA.PairsSkippedBySymmetry, SB.PairsSkippedBySymmetry);
  EXPECT_EQ(SA.PairsPlanned, SB.PairsPlanned);
  EXPECT_EQ(SA.PairsSolved, SB.PairsSolved);
  EXPECT_EQ(SA.GpInfeasible, SB.GpInfeasible);
  EXPECT_EQ(SA.NewtonIterations, SB.NewtonIterations);
  EXPECT_EQ(SA.CandidatesEvaluated, SB.CandidatesEvaluated);
  EXPECT_EQ(SA.CacheHits, SB.CacheHits);
  EXPECT_EQ(SA.CacheMisses, SB.CacheMisses);

  const SweepReport &RA = A.Report, &RB = B.Report;
  EXPECT_EQ(RA.toString("pair"), RB.toString("pair"));
  EXPECT_EQ(RA.SkippedByPolicy, RB.SkippedByPolicy);
  ASSERT_EQ(RA.Incidents.size(), RB.Incidents.size());
  for (std::size_t I = 0; I < RA.Incidents.size(); ++I) {
    const SweepIncident &IA = RA.Incidents[I], &IB = RB.Incidents[I];
    EXPECT_EQ(IA.Index, IB.Index);
    EXPECT_EQ(IA.A, IB.A);
    EXPECT_EQ(IA.B, IB.B);
    EXPECT_EQ(IA.Outcome, IB.Outcome);
    EXPECT_EQ(IA.Attempts, IB.Attempts);
    EXPECT_EQ(IA.Detail, IB.Detail);
  }
}

} // namespace

TEST(Network, DataflowShapesMatchOptimizeLayer) {
  // A network phase runs its shapes as one task grid, the grid
  // optimizeLayer runs one layer on, so in dataflow mode each unique
  // shape's result equals optimizeLayer on that shape alone.
  const TechParams Tech = TechParams::cgo45nm();
  for (const std::vector<ConvLayer> &Net :
       {toyNetwork(), generalToyNetwork()})
    for (unsigned Threads : {1u, 4u})
      for (bool Shared : {false, true}) {
        SCOPED_TRACE(Net.front().Name + " network, " +
                     std::to_string(Threads) + " threads, " +
                     (Shared ? "shared cache" : "no cache"));
        NetworkOptions NO = fastNetworkOptions();
        NO.Layer.Threads = Threads;
        GpSolutionCache NetworkCache, LayerCache;
        LayerRunContext Run;
        if (Shared) {
          NO.Run.Cache = &NetworkCache;
          Run.Cache = &LayerCache;
        }
        const NetworkResult R = optimizeNetwork(Net, eyerissArch(), Tech, NO);
        ASSERT_TRUE(R.Found);
        ASSERT_EQ(R.Layers.size(), Net.size());
        std::size_t Compared = 0;
        for (std::size_t I = 0; I < Net.size(); ++I) {
          if (R.Layers[I].Deduplicated)
            continue;
          SCOPED_TRACE("layer " + Net[I].Name);
          expectSameLayer(optimizeLayer(makeConvProblem(Net[I]),
                                        eyerissArch(), Tech, NO.Layer, Run),
                          R.Layers[I].Result);
          ++Compared;
        }
        EXPECT_EQ(Compared, R.Stats.UniqueShapes);
        // The cap drops tuples of every shape, so the one policy-skip
        // incident per shape is compared above.
        EXPECT_GT(R.Report.SkippedByPolicy, 0u);
      }
}

TEST(Network, ShapeKeySeparatesGroupedFromDenseTwins) {
  // Two layers with identical dims where only Groups (or Transposed)
  // differs must NOT deduplicate onto one shape.
  ConvLayer Dense = conv("dense", 8, 8, 8, 3);
  ConvLayer Grouped = conv("grouped", 8, 8, 8, 3);
  Grouped.Groups = 2;
  ConvLayer Flipped = conv("flipped", 8, 8, 8, 3);
  Flipped.Transposed = true;
  ConvLayer Valid = conv("valid", 8, 8, 8, 3);
  Valid.Padding = ConvPadding::Valid;
  NetworkResult R =
      optimizeNetwork({Dense, Grouped, Flipped, Valid}, eyerissArch(),
                      TechParams::cgo45nm(), fastNetworkOptions());
  ASSERT_TRUE(R.InputStatus.isOk());
  EXPECT_EQ(R.Stats.LayersTotal, 4u);
  EXPECT_EQ(R.Stats.UniqueShapes, 4u);
  for (const NetworkLayerResult &L : R.Layers)
    EXPECT_FALSE(L.Deduplicated) << L.Name;
}

TEST(Network, InvalidLayerIsRejectedBeforeAnySolve) {
  std::vector<ConvLayer> Net = generalToyNetwork();
  Net[1].Groups = 3; // 8 channels not divisible by 3.
  NetworkResult R = optimizeNetwork(Net, eyerissArch(),
                                    TechParams::cgo45nm(),
                                    fastNetworkOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  EXPECT_NE(R.InputStatus.toString().find("divisible"), std::string::npos)
      << R.InputStatus.toString();
  EXPECT_EQ(R.Stats.PairsSolved, 0u);
}

TEST(Network, CodesignSliceKeepsItsAnswerWithCertifiedInfeasibility) {
  // ResNet-18 stages 5 and 12 in CoDesign mode at the Eyeriss area:
  // phase 2 finds one candidate architecture infeasible for a stage.
  // The pins are the answer of the solver that exhausted phase I on
  // every such GP; the certificate must leave all of it unchanged and
  // back every infeasible verdict.
  const std::vector<ConvLayer> Stages = resnet18Layers();
  NetworkOptions NO;
  NO.Layer.Mode = DesignMode::CoDesign;
  NO.Layer.Threads = 1;
  TechParams Tech = TechParams::cgo45nm();
  NetworkResult R = optimizeNetwork({Stages[4], Stages[11]}, eyerissArch(),
                                    Tech, NO, eyerissAreaUm2(Tech));
  ASSERT_TRUE(R.InputStatus.isOk());
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Report.Solved, 170u);
  EXPECT_EQ(R.Report.Retried, 102u);
  EXPECT_EQ(R.Report.Infeasible, 34u);
  EXPECT_EQ(R.Report.Failed, 0u);
  EXPECT_EQ(R.Arch.NumPEs, 1515);
  EXPECT_EQ(R.Arch.RegWordsPerPE, 8);
  EXPECT_EQ(R.Arch.SramWords, 16384);
  EXPECT_EQ(R.Totals.EnergyPj, 0x1.4f710322e8e33p+29);
  EXPECT_EQ(R.Totals.Cycles, 0x1.5fbp+17);
  unsigned Certified = 0;
  for (const SweepIncident &I : R.Report.Incidents)
    if (I.Outcome == TaskOutcome::Infeasible) {
      EXPECT_NE(I.Detail.find("certified infeasible"), std::string::npos)
          << I.Detail;
      ++Certified;
    }
  EXPECT_EQ(Certified, R.Report.Infeasible);
}

namespace {

/// Folds \p Bytes into the FNV-1a-64 hash \p H.
void fnv1a(std::uint64_t &H, std::string_view Bytes) {
  for (unsigned char B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
}

} // namespace

TEST(GpCacheKeys, KeyBytesAndSweepPlansArePinned) {
  // The key text is part of the durable cache format
  // (docs/PERSISTENCE.md): snapshots and journals store it, so one
  // changed byte turns every stored entry into a miss. This hashes the
  // plan counts and the key of every pair task of the four layer
  // tables, in both modes and all three objectives, as phase 1 of the
  // network driver would key them.
  const TechParams Tech = TechParams::cgo45nm();
  const ArchConfig Arch = eyerissArch();
  std::uint64_t Hash = 0xcbf29ce484222325ull;
  std::size_t Tasks = 0;
  std::string FirstKey;
  for (const std::vector<ConvLayer> &Table :
       {resnet18Layers(), yolo9000Layers(), mobilenetV2Layers(),
        dcganLayers()})
    for (DesignMode Mode : {DesignMode::DataflowOnly, DesignMode::CoDesign})
      for (SearchObjective Objective :
           {SearchObjective::Energy, SearchObjective::Delay,
            SearchObjective::EnergyDelayProduct}) {
        ThistleOptions Options;
        Options.Mode = Mode;
        Options.Objective = Objective;
        const double Area =
            Mode == DesignMode::CoDesign ? eyerissAreaUm2(Tech) : 0.0;
        for (const ConvLayer &L : Table) {
          const Problem Prob = makeConvProblem(L);
          const LayerSweepPlan Plan = planLayerSweep(Prob, Options);
          fnv1a(Hash, std::to_string(Plan.Classes.size()) + "," +
                          std::to_string(Plan.RawPermsPerLevel) + "," +
                          std::to_string(Plan.PairsTotal) + "," +
                          std::to_string(Plan.PairsSkippedBySymmetry) + "," +
                          std::to_string(Plan.Pairs.size()) + "\n");
          const GpCacheKeyMaterial Material = gpCacheKeyMaterial(
              Prob, Options, Arch, Tech, Area, Plan.TiledIters);
          for (const PairTask &Task : Plan.Pairs) {
            const std::string Key =
                gpCacheKey(Material, Plan.Classes[Task.QI].Representative,
                           Plan.Classes[Task.SI].Representative);
            fnv1a(Hash, std::to_string(Task.QI) + "," +
                            std::to_string(Task.SI) + "\n");
            fnv1a(Hash, Key + "\n");
            if (Tasks++ == 0)
              FirstKey = Key;
          }
        }
      }
  EXPECT_EQ(Tasks, 10776u);
  EXPECT_EQ(Hash, 0x1d95be00452ab8adull);
  // ResNet-18 layer 1, dataflow/energy, first planned pair.
  EXPECT_EQ(FirstKey,
            "it:n,k,c,r,s,h,w,"
            "|tn:Out+rw[0;][1;][5;][6;],In[0;][2;][5;3;][6;4;],"
            "Ker[1;][2;][3;][4;],"
            "|opt:dataflow,energy,su1,tiled:1.2.5.6.,q:5.6.2.1.,s:5.6.2.1.,"
            "|ext:1,64,3,7,7,112,112,str:1,1,1,1,1,1,2,1,2,1,1,1,1,1,"
            "arch:168,512,65536,16,160,"
            "tech:1239.5,19.873999999999999,6.806,2.2000000000000002,"
            "0.0090671899999999993,0.01788,128,"
            "area:0,round:2,0,4000,"
            "solver:9.9999999999999995e-08,1,20,250,50,0,1,3,");
}
