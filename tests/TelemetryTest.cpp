//===- tests/TelemetryTest.cpp - Observability layer tests ----------------===//
//
// Covers the determinism contract of docs/OBSERVABILITY.md: counters and
// statistics aggregate commutatively, the per-thread span buffers merge
// into a thread-count-invariant sequence, collection never perturbs the
// optimization result, and the RunReport JSON emitter produces the
// documented schema. The suite degrades gracefully under
// THISTLE_TELEMETRY=OFF: collection tests skip, emitter and SweepReport
// tests still run.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "nestmodel/Mapper.h"
#include "support/RunReport.h"
#include "support/SweepReport.h"
#include "support/Telemetry.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <vector>

using namespace thistle;

namespace {

/// Restores Level::Off and clears collected state around each test so
/// suites never leak telemetry into one another.
struct TelemetryGuard {
  TelemetryGuard() {
    telemetry::reset();
  }
  ~TelemetryGuard() {
    telemetry::setLevel(telemetry::Level::Off);
    telemetry::reset();
  }
};

ConvLayer smallConv() {
  ConvLayer L;
  L.Name = "telemetry-conv";
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  return L;
}

ThistleOptions fastOptions(unsigned Threads) {
  ThistleOptions O;
  O.Solver.Tolerance = 1e-5;
  O.MaxPermClassPairs = 8;
  O.Threads = Threads;
  return O;
}

/// The deterministic projection of a span: everything except timing.
using SpanKey =
    std::tuple<std::string, std::uint64_t, std::size_t, unsigned,
               std::string>;

std::vector<SpanKey> spanKeys(const telemetry::Snapshot &Snap) {
  std::vector<SpanKey> Keys;
  for (const telemetry::Span &S : Snap.Spans)
    Keys.push_back({S.Name, S.Epoch, S.Index, S.Depth, S.Detail});
  return Keys;
}

} // namespace

TEST(Telemetry, CountersAndStatsAggregate) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "telemetry compiled out";
  TelemetryGuard Guard;
  telemetry::setLevel(telemetry::Level::Metrics);

  telemetry::count("test.alpha");
  telemetry::count("test.alpha", 4);
  telemetry::count("test.beta", 2);
  telemetry::observe("test.value", 3.0);
  telemetry::observe("test.value", -1.0);
  telemetry::observe("test.value", 10.0);

  telemetry::Snapshot Snap = telemetry::snapshot();
  ASSERT_EQ(Snap.Counters.size(), 2u);
  // Counters come back sorted by name.
  EXPECT_EQ(Snap.Counters[0].Name, "test.alpha");
  EXPECT_EQ(Snap.Counters[0].Value, 5u);
  EXPECT_EQ(Snap.Counters[1].Name, "test.beta");
  EXPECT_EQ(Snap.Counters[1].Value, 2u);

  ASSERT_EQ(Snap.Stats.size(), 1u);
  EXPECT_EQ(Snap.Stats[0].Name, "test.value");
  EXPECT_EQ(Snap.Stats[0].Count, 3u);
  EXPECT_DOUBLE_EQ(Snap.Stats[0].Sum, 12.0);
  EXPECT_DOUBLE_EQ(Snap.Stats[0].Min, -1.0);
  EXPECT_DOUBLE_EQ(Snap.Stats[0].Max, 10.0);
  EXPECT_DOUBLE_EQ(Snap.Stats[0].mean(), 4.0);

  // Metrics level records no spans.
  EXPECT_TRUE(Snap.Spans.empty());

  telemetry::reset();
  telemetry::Snapshot Clean = telemetry::snapshot();
  EXPECT_TRUE(Clean.Counters.empty());
  EXPECT_TRUE(Clean.Stats.empty());
}

TEST(Telemetry, OffLevelCollectsNothing) {
  TelemetryGuard Guard;
  telemetry::setLevel(telemetry::Level::Off);
  telemetry::count("test.ignored");
  telemetry::observe("test.ignored", 1.0);
  {
    telemetry::TraceScope Span("test.ignored");
    Span.setDetail("ignored");
  }
  telemetry::Snapshot Snap = telemetry::snapshot();
  EXPECT_TRUE(Snap.Counters.empty());
  EXPECT_TRUE(Snap.Stats.empty());
  EXPECT_TRUE(Snap.Spans.empty());
  EXPECT_EQ(Snap.DroppedSpans, 0u);
}

TEST(Telemetry, SpanNestingInheritsTaskKey) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "telemetry compiled out";
  TelemetryGuard Guard;
  telemetry::setLevel(telemetry::Level::Trace);

  telemetry::beginEpoch();
  {
    telemetry::TraceScope Outer("test.sweep"); // NoIndex wrapper.
    {
      telemetry::TraceScope Task("test.task", 7);
      {
        // A keyless child inherits the task key of its parent and
        // nests one level below it.
        telemetry::TraceScope Attempt("test.attempt");
        Attempt.setDetail("converged");
      }
    }
  }

  telemetry::Snapshot Snap = telemetry::snapshot();
  ASSERT_EQ(Snap.Spans.size(), 3u);
  // The merge sorts keyed spans before the NoIndex wrapper.
  EXPECT_EQ(Snap.Spans[0].Name, "test.task");
  EXPECT_EQ(Snap.Spans[0].Index, 7u);
  EXPECT_EQ(Snap.Spans[0].Depth, 0u); // The wrapper has a different key.
  EXPECT_EQ(Snap.Spans[1].Name, "test.attempt");
  EXPECT_EQ(Snap.Spans[1].Index, 7u); // Inherited.
  EXPECT_EQ(Snap.Spans[1].Depth, 1u);
  EXPECT_EQ(Snap.Spans[1].Detail, "converged");
  EXPECT_EQ(Snap.Spans[2].Name, "test.sweep");
  EXPECT_EQ(Snap.Spans[2].Index, telemetry::NoIndex);
}

TEST(Telemetry, SpanDepthIgnoresForeignKeys) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "telemetry compiled out";
  TelemetryGuard Guard;
  telemetry::setLevel(telemetry::Level::Trace);

  // A task span under a NoIndex wrapper must report depth 0 whether the
  // shard ran inline on the calling thread (1 worker) or on a pool
  // worker with an empty stack: foreign keys are transparent.
  {
    telemetry::TraceScope Wrapper("test.wrapper");
    telemetry::TraceScope Task("test.task", 3);
  }
  telemetry::Snapshot Snap = telemetry::snapshot();
  ASSERT_EQ(Snap.Spans.size(), 2u);
  EXPECT_EQ(Snap.Spans[0].Name, "test.task");
  EXPECT_EQ(Snap.Spans[0].Depth, 0u);
}

TEST(Telemetry, SweepMergeDeterministicAcrossThreadCounts) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "telemetry compiled out";
  TelemetryGuard Guard;

  Problem P = makeConvProblem(smallConv());
  std::vector<SpanKey> Reference;
  std::vector<telemetry::CounterValue> RefCounters;
  for (unsigned Threads : {1u, 4u, 8u}) {
    telemetry::reset();
    telemetry::setLevel(telemetry::Level::Trace);
    ThistleResult R = optimizeLayer(P, eyerissArch(),
                                    TechParams::cgo45nm(),
                                    fastOptions(Threads));
    ASSERT_TRUE(R.Found);
    telemetry::Snapshot Snap = telemetry::snapshot();
    EXPECT_FALSE(Snap.Spans.empty());
    if (Threads == 1) {
      Reference = spanKeys(Snap);
      RefCounters = Snap.Counters;
      continue;
    }
    // The merged (name, epoch, index, depth, detail) sequence and every
    // counter must be identical at any worker count.
    EXPECT_EQ(spanKeys(Snap), Reference) << "at " << Threads << " threads";
    ASSERT_EQ(Snap.Counters.size(), RefCounters.size());
    for (std::size_t I = 0; I < RefCounters.size(); ++I) {
      EXPECT_EQ(Snap.Counters[I].Name, RefCounters[I].Name);
      EXPECT_EQ(Snap.Counters[I].Value, RefCounters[I].Value)
          << Snap.Counters[I].Name << " at " << Threads << " threads";
    }
  }
}

TEST(Telemetry, CollectionNeverPerturbsResults) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "telemetry compiled out";
  TelemetryGuard Guard;

  Problem P = makeConvProblem(smallConv());
  telemetry::setLevel(telemetry::Level::Off);
  ThistleResult Base =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(),
                    fastOptions(2));
  ASSERT_TRUE(Base.Found);

  telemetry::setLevel(telemetry::Level::Trace);
  ThistleResult Traced =
      optimizeLayer(P, eyerissArch(), TechParams::cgo45nm(),
                    fastOptions(2));
  ASSERT_TRUE(Traced.Found);

  // Bit-identical: collection draws no randomness and reorders no FP.
  EXPECT_EQ(Base.Eval.EnergyPj, Traced.Eval.EnergyPj);
  EXPECT_EQ(Base.Eval.Cycles, Traced.Eval.Cycles);
  EXPECT_EQ(Base.ModelObjective, Traced.ModelObjective);
  EXPECT_EQ(Base.Stats.NewtonIterations, Traced.Stats.NewtonIterations);
  EXPECT_EQ(Base.Map.toString(P), Traced.Map.toString(P));
}

TEST(Telemetry, MapperSearchStopCauses) {
  TelemetryGuard Guard;
  Problem P = makeConvProblem(smallConv());
  ArchConfig Arch = eyerissArch();
  EnergyModel E(TechParams::cgo45nm());

  MapperOptions Victory;
  Victory.Seed = 7;
  Victory.MaxTrials = 4000;
  Victory.VictoryCondition = 64;
  Victory.TrialsPerRound = 32;
  MapperResult RV = searchMappings(P, Arch, E, Victory);
  ASSERT_TRUE(RV.Found);
  EXPECT_EQ(RV.StopCause, MapperStopCause::Victory);

  MapperOptions Budget = Victory;
  Budget.MaxTrials = 64;
  Budget.VictoryCondition = 100000;
  MapperResult RB = searchMappings(P, Arch, E, Budget);
  EXPECT_EQ(RB.StopCause, MapperStopCause::MaxTrials);
  EXPECT_LE(RB.Trials, 64u);

  MapperOptions Expired = Victory;
  Expired.DeadlineAt = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
  MapperResult RD = searchMappings(P, Arch, E, Expired);
  EXPECT_TRUE(RD.DeadlineExpired);
  EXPECT_EQ(RD.StopCause, MapperStopCause::Deadline);
  EXPECT_EQ(RD.Trials, 0u);

  EXPECT_STREQ(mapperStopCauseName(MapperStopCause::Victory), "victory");
  EXPECT_STREQ(mapperStopCauseName(MapperStopCause::MaxTrials),
               "max-trials");
  EXPECT_STREQ(mapperStopCauseName(MapperStopCause::Deadline), "deadline");
  EXPECT_STREQ(mapperStopCauseName(MapperStopCause::None), "none");
}

TEST(Telemetry, MapperStopCauseIsThreadCountInvariant) {
  TelemetryGuard Guard;
  Problem P = makeConvProblem(smallConv());
  ArchConfig Arch = eyerissArch();
  EnergyModel E(TechParams::cgo45nm());
  MapperOptions O;
  O.Seed = 11;
  O.MaxTrials = 2000;
  O.VictoryCondition = 128;
  O.TrialsPerRound = 32;

  O.Threads = 1;
  MapperResult R1 = searchMappings(P, Arch, E, O);
  O.Threads = 8;
  MapperResult R8 = searchMappings(P, Arch, E, O);
  EXPECT_EQ(R1.StopCause, R8.StopCause);
  EXPECT_EQ(R1.Trials, R8.Trials);
  EXPECT_EQ(R1.LegalTrials, R8.LegalTrials);
}

TEST(SweepReportZeroTasks, ToStringSaysNothingAttempted) {
  SweepReport Empty;
  EXPECT_EQ(Empty.toString("pair"), "0 pairs: nothing attempted");

  SweepReport Expired;
  Expired.DeadlineExpired = true;
  EXPECT_EQ(Expired.toString("combo"),
            "0 combos: nothing attempted [deadline expired]");
}

TEST(RunReport, JsonMatchesDocumentedSchema) {
  RunReport RR;
  RR.Workload = "telemetry-conv";
  RR.Mode = "dataflow";
  RR.Objective = "energy";
  RR.Hierarchy = "classic3";
  RR.Threads = 4;
  RR.WallSeconds = 0.25;
  RR.ExitCode = 1;
  RR.Found = true;
  RR.EnergyPj = 123.5;
  RR.EnergyPerMacPj = 21.0;
  RR.Cycles = 4096.0;
  RR.MacIpc = 99.0;
  RR.EdpPjCycles = 505856.0;
  RR.HasSweep = true;
  RR.Sweep.record(TaskOutcome::Solved, 0, 0, 0, 1, "");
  RR.Sweep.record(TaskOutcome::Failed, 1, 0, 1, 3,
                  "solver \"blew\" up\n");
  telemetry::Span Span;
  Span.Name = "thistle.pair";
  Span.Index = 1;
  Span.Depth = 0;
  Span.DurationNs = 1000;
  RR.Telemetry.Spans.push_back(Span);
  RR.Telemetry.Counters.push_back({"solver.solves", 12});
  RR.Telemetry.Stats.push_back({"solver.newton_per_solve", 2, 10.0,
                                4.0, 6.0});

  std::string Json = RR.toJson();
  EXPECT_NE(Json.find("\"schema\": \"thistle-run-report/1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"workload\": \"telemetry-conv\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"exit_code\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"task_noun\": \"pair\""), std::string::npos);
  EXPECT_NE(Json.find("\"solved\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"failed\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"solver.solves\": 12"), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"thistle.pair\""), std::string::npos);
  // Control characters and quotes in incident details are escaped.
  EXPECT_NE(Json.find("solver \\\"blew\\\" up\\n"), std::string::npos);
  EXPECT_EQ(Json.find("\nsolver"), std::string::npos);
  // The report ends with exactly one newline.
  ASSERT_FALSE(Json.empty());
  EXPECT_EQ(Json.back(), '\n');
  EXPECT_NE(Json[Json.size() - 2], '\n');
}

TEST(RunReport, JsonWithoutSweepEmitsFalse) {
  RunReport RR;
  RR.Workload = "w";
  std::string Json = RR.toJson();
  EXPECT_NE(Json.find("\"sweep\": false"), std::string::npos);
  EXPECT_NE(Json.find("\"dropped_spans\": 0"), std::string::npos);
}

TEST(RunReport, ProfilePrintsTablesOrEmptyNote) {
  telemetry::Snapshot Empty;
  std::ostringstream NoneOut;
  printProfile(NoneOut, Empty);
  EXPECT_NE(NoneOut.str().find("no telemetry collected"),
            std::string::npos);

  telemetry::Snapshot Snap;
  telemetry::Span Span;
  Span.Name = "thistle.pair";
  Span.DurationNs = 2'000'000;
  Snap.Spans.push_back(Span);
  Snap.Spans.push_back(Span);
  Snap.Counters.push_back({"solver.solves", 3});
  Snap.Stats.push_back({"mapper.acceptance_rate", 1, 0.5, 0.5, 0.5});
  std::ostringstream Out;
  printProfile(Out, Snap);
  EXPECT_NE(Out.str().find("thistle.pair"), std::string::npos);
  EXPECT_NE(Out.str().find("solver.solves"), std::string::npos);
  EXPECT_NE(Out.str().find("mapper.acceptance_rate"), std::string::npos);
}
