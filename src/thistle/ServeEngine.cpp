//===- thistle/ServeEngine.cpp - Long-lived co-design service -------------===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "thistle/ServeEngine.h"

#include "support/Json.h"
#include "support/JsonWriter.h"
#include "support/Telemetry.h"
#include "thistle/Job.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <utility>

using namespace thistle;
using json::JsonValue;

namespace {

constexpr const char *ServeSchema = "thistle-serve/1";

/// The stable status token of each thistle-opt exit code
/// (docs/SERVING.md mirrors docs/THISTLE_OPT.md).
const char *statusForExit(int Exit) {
  switch (Exit) {
  case 0:
    return "ok";
  case 1:
    return "degraded";
  case 2:
    return "invalid";
  case 3:
    return "no-design";
  }
  return "error";
}

} // namespace

/// One admitted query plus the slot its answer lands in. The request is
/// immutable after admission; the outcome fields are written by the
/// solver thread before Done flips, then only read.
struct ServeEngine::SolveJob {
  Job Request;
  /// Canonical dedup key over every result-relevant resolved parameter
  /// (including the deadline: a budget-limited solve may legitimately
  /// answer differently from an unlimited one, so they never share).
  std::string Key;

  std::mutex M;
  std::condition_variable Cv;
  bool Done = false;
  int ExitCode = 0;
  std::string Error;           ///< Non-empty only for exit code 2.
  std::string CanonicalReport; ///< Empty for exit code 2.
  /// The solve's cache traffic (before/after counter deltas — exact,
  /// because solves are serialized on one thread). Attributed to the
  /// admitting request only; dedup joiners report zeros, so the sum
  /// across all responses equals the process totals.
  std::uint64_t DHits = 0, DMisses = 0, DEvict = 0;
};

namespace {

/// Ceiling of every count in a query (layer dimensions, groups,
/// "deadline_ms", the "arch" fields): the largest 32-bit int, as for
/// thistle-opt's count flags (tools/NumericFlag.h), so no count
/// overflows the layer arithmetic or the deadline clock.
constexpr std::uint64_t MaxQueryCount = 2147483647;

/// Parses the "workload" member into the job: the query form of
/// thistle-opt's --layer/--resnet/--yolo/--network, with the same
/// workload names in the run report.
Status parseWorkload(const JsonValue &W, Job &J) {
  if (!W.isObject())
    return Status::invalidArgument("\"workload\" must be an object");
  if (W.members().size() != 1)
    return Status::invalidArgument(
        "\"workload\" wants exactly one of layer/resnet/yolo/network");
  const auto &[Kind, V] = W.members().front();
  ConvLayer Layer;
  auto parseLayerDims = [&Layer](const JsonValue &A) -> Status {
    if (!A.isArray() || A.array().size() < 6 || A.array().size() > 8)
      return Status::invalidArgument(
          "\"layer\" wants [K,C,H,W,R,S[,stride[,dilation]]]");
    std::vector<std::int64_t> Dims;
    for (const JsonValue &E : A.array()) {
      std::uint64_t N = 0;
      if (!E.asUint(N) || N < 1 || N > MaxQueryCount)
        return Status::invalidArgument(
            "\"layer\" dimensions must be positive integers, at most " +
            std::to_string(MaxQueryCount));
      Dims.push_back(static_cast<std::int64_t>(N));
    }
    Layer = customConvLayer(Dims);
    return Status::ok();
  };
  if (Kind == "layer") {
    // Two wire forms: the [K,C,H,W,R,S[,stride[,dilation]]] array, or an
    // object whose "dims" is that array plus the general-conv fields
    // ("groups", "transposed", "padding" — docs/WORKLOADS.md). Either way
    // the layer passes the same ConvLayer::validate() the CLI uses.
    if (V.isObject()) {
      const JsonValue *Dims = nullptr;
      ConvLayer Modifiers; ///< Groups, Transposed and Padding only.
      for (const auto &[LK, LV] : V.members()) {
        if (LK == "dims") {
          Dims = &LV;
        } else if (LK == "groups") {
          std::uint64_t N = 0;
          if (!LV.asUint(N) || N < 1 || N > MaxQueryCount)
            return Status::invalidArgument(
                "\"layer.groups\" wants an integer in 1.." +
                std::to_string(MaxQueryCount));
          Modifiers.Groups = static_cast<std::int64_t>(N);
        } else if (LK == "transposed") {
          if (!LV.isBool())
            return Status::invalidArgument(
                "\"layer.transposed\" wants a boolean");
          Modifiers.Transposed = LV.boolean();
        } else if (LK == "padding") {
          if (!LV.isString())
            return Status::invalidArgument(
                "\"layer.padding\" wants \"same\" or \"valid\"");
          Expected<ConvPadding> P = parsePadding(LV.string());
          if (!P) {
            Status St = P.status();
            return St.withContext("\"layer.padding\"");
          }
          Modifiers.Padding = P.value();
        } else {
          return Status::invalidArgument("unknown layer field '" + LK +
                                         "'");
        }
      }
      if (!Dims)
        return Status::invalidArgument("\"layer\" object needs \"dims\"");
      if (Status St = parseLayerDims(*Dims); !St.isOk())
        return St;
      Layer.Groups = Modifiers.Groups;
      Layer.Transposed = Modifiers.Transposed;
      Layer.Padding = Modifiers.Padding;
    } else if (Status St = parseLayerDims(V); !St.isOk()) {
      return St;
    }
    if (Status St = Layer.validate(); !St.isOk())
      return St;
  } else if (Kind == "resnet" || Kind == "yolo") {
    std::vector<ConvLayer> Layers =
        Kind == "resnet" ? resnet18Layers() : yolo9000Layers();
    std::uint64_t N = 0;
    if (!V.asUint(N) || N < 1 || N > Layers.size())
      return Status::invalidArgument("\"" + Kind + "\" index out of range "
                                     "(1-" + std::to_string(Layers.size()) +
                                     ")");
    Layer = Layers[static_cast<std::size_t>(N - 1)];
  } else if (Kind == "network") {
    if (!V.isString())
      return Status::invalidArgument("\"network\" wants a string");
    if (!networkLayersByName(V.string(), J.Layers))
      return Status::invalidArgument("unknown network '" + V.string() + "'");
    J.Kind = JobKind::Network;
    J.Name = "network:" + V.string();
    return Status::ok();
  } else {
    return Status::invalidArgument("unknown workload kind '" + Kind + "'");
  }
  J.Kind = JobKind::Layer;
  J.Name = Layer.Name;
  J.Layers = {std::move(Layer)};
  return Status::ok();
}

/// Parses and validates one "query" object into \p Solve's request and
/// builds its canonical dedup key. Strict about unknown members so client typos
/// (e.g. "deadline" for "deadline_ms") surface as errors, not silently
/// different queries.
Status parseQuery(const JsonValue &Q, ServeEngine::SolveJob &Solve) {
  if (!Q.isObject())
    return Status::invalidArgument("\"query\" must be an object");
  Job &J = Solve.Request;

  const JsonValue *Workload = nullptr;
  for (const auto &[K, V] : Q.members()) {
    if (K == "workload") {
      Workload = &V;
    } else if (K == "mode") {
      if (!V.isString())
        return Status::invalidArgument("\"mode\" wants a string");
      if (!parseMode(V.string(), J.Options.Mode))
        return Status::invalidArgument("unknown mode '" + V.string() + "'");
    } else if (K == "objective") {
      if (!V.isString())
        return Status::invalidArgument("\"objective\" wants a string");
      if (!parseObjective(V.string(), J.Options.Objective))
        return Status::invalidArgument("unknown objective '" + V.string() +
                                       "'");
    } else if (K == "candidates") {
      std::uint64_t N = 0;
      if (!V.asUint(N) || N < 1 || N > MaxRoundingCandidates)
        return Status::invalidArgument(
            "\"candidates\" wants an integer in 1.." +
            std::to_string(MaxRoundingCandidates));
      J.Options.Rounding.NumCandidates = static_cast<unsigned>(N);
    } else if (K == "deadline_ms") {
      std::uint64_t N = 0;
      if (!V.asUint(N) || N < 1 || N > MaxQueryCount)
        return Status::invalidArgument(
            "\"deadline_ms\" wants a millisecond count in 1.." +
            std::to_string(MaxQueryCount));
      J.Options.Deadline = std::chrono::milliseconds(N);
    } else if (K == "area_budget") {
      if (!V.isNumber() || V.number() <= 0.0)
        return Status::invalidArgument(
            "\"area_budget\" wants a positive um^2 area");
      J.AreaBudget = V.number();
    } else if (K == "arch") {
      if (!V.isObject())
        return Status::invalidArgument("\"arch\" must be an object");
      for (const auto &[AK, AV] : V.members()) {
        std::uint64_t N = 0;
        if (!AV.asUint(N) || N < 1 || N > MaxQueryCount)
          return Status::invalidArgument("\"arch." + AK +
                                         "\" wants an integer in 1.." +
                                         std::to_string(MaxQueryCount));
        if (AK == "pes")
          J.Arch.NumPEs = static_cast<std::int64_t>(N);
        else if (AK == "regs")
          J.Arch.RegWordsPerPE = static_cast<std::int64_t>(N);
        else if (AK == "sram_words")
          J.Arch.SramWords = static_cast<std::int64_t>(N);
        else
          return Status::invalidArgument("unknown arch field '" + AK + "'");
      }
    } else {
      return Status::invalidArgument("unknown query field '" + K + "'");
    }
  }
  if (!Workload)
    return Status::invalidArgument("\"query\" needs a \"workload\"");
  if (Status St = parseWorkload(*Workload, J); !St.isOk())
    return St;
  // Resolving the default budget before the key is built lets an
  // explicit equal budget share the in-flight solve.
  resolveAreaBudget(J);

  // A layer's shape key covers every ConvLayer field the solve can
  // depend on, so distinct general-conv queries never share a solve; the
  // name is the report's workload name.
  std::string Key = J.Name;
  if (J.Kind == JobKind::Layer)
    Key = "layer:" + J.Layers.front().shapeKey() + ":" + J.Name;
  Key += "|mode=";
  Key += modeName(J.Options.Mode);
  Key += "|obj=";
  Key += objectiveName(J.Options.Objective);
  Key += "|cand=" + std::to_string(J.Options.Rounding.NumCandidates);
  Key += "|area=" + json::number(J.AreaBudget);
  Key += "|pes=" + std::to_string(J.Arch.NumPEs);
  Key += "|regs=" + std::to_string(J.Arch.RegWordsPerPE);
  Key += "|sram=" + std::to_string(J.Arch.SramWords);
  Key += "|deadline=" + std::to_string(J.Options.Deadline.count());
  Solve.Key = std::move(Key);
  return Status::ok();
}

/// The per-request `server` section (always last in the envelope, so
/// clients that byte-compare the deterministic prefix can cut at
/// `,"server":`).
struct ServerSection {
  bool Deduplicated = false;
  std::size_t QueueDepth = 0;
  double LatencyMs = 0.0;
  std::uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

void writeServerSection(json::Writer &W, const ServerSection &S) {
  W.key("server");
  W.beginObject();
  W.key("deduplicated");
  W.value(S.Deduplicated);
  W.key("queue_depth");
  W.value(static_cast<std::uint64_t>(S.QueueDepth));
  W.key("latency_ms");
  W.value(S.LatencyMs);
  W.key("cache");
  W.beginObject();
  W.key("hit");
  W.value(S.Hits);
  W.key("miss");
  W.value(S.Misses);
  W.key("evictions");
  W.value(S.Evictions);
  W.endObject();
  W.endObject();
}

/// Builds one complete response line. \p IdJson is the request id
/// re-serialized ("null" when absent), \p ReportJson the canonical
/// report ("" = null), \p ServeStatsJson an optional pre-serialized
/// `serve` object (the stats command; "" = omitted).
std::string buildEnvelope(const std::string &IdJson, int ExitCode,
                          const std::string &Error,
                          const std::string &ReportJson,
                          const std::string &ServeStatsJson,
                          const ServerSection &Server) {
  std::ostringstream OS;
  json::Writer W(OS, /*Compact=*/true);
  W.beginObject();
  W.key("schema");
  W.value(ServeSchema);
  W.key("id");
  W.rawValue(IdJson);
  W.key("status");
  W.value(statusForExit(ExitCode));
  W.key("exit_code");
  W.value(ExitCode);
  W.key("error");
  if (Error.empty())
    W.null();
  else
    W.value(Error);
  W.key("report");
  if (ReportJson.empty())
    W.null();
  else
    W.rawValue(ReportJson);
  if (!ServeStatsJson.empty()) {
    W.key("serve");
    W.rawValue(ServeStatsJson);
  }
  writeServerSection(W, Server);
  W.endObject();
  return OS.str();
}

/// Re-serializes a request id for the echo: numbers and strings pass
/// through, anything else (including absence) becomes null.
std::string idJsonOf(const JsonValue &Root) {
  const JsonValue *Id = Root.isObject() ? Root.find("id") : nullptr;
  if (!Id)
    return "null";
  if (Id->isNumber())
    return json::number(Id->number());
  if (Id->isString())
    return "\"" + json::escape(Id->string()) + "\"";
  return "null";
}

} // namespace

ServeEngine::ServeEngine(ServeOptions Options)
    : Opts(std::move(Options)), Pool(Opts.Threads) {}

ServeEngine::~ServeEngine() { shutdown(); }

Status ServeEngine::start() {
  Cache.setCapacity(static_cast<std::size_t>(Opts.CacheCapacity));
  if (!Opts.CacheDir.empty()) {
    if (Status St = Durable.open(Cache, Opts.CacheDir); !St.isOk())
      return St.withContext("creating cache directory");
    if (!Durable.journalStatus().isOk())
      JournalProblems.push_back("no checkpoint journal: " +
                                Durable.journalStatus().toString());
  }
  {
    std::lock_guard<std::mutex> L(JobsMutex);
    Started = true;
  }
  Solver = std::thread(&ServeEngine::solverLoop, this);
  return Status::ok();
}

void ServeEngine::shutdown() {
  {
    std::lock_guard<std::mutex> L(JobsMutex);
    if (!Started || Finished) {
      Finished = true;
      return;
    }
    Finished = true;
    Stop = true;
  }
  QueueCv.notify_all();
  if (Solver.joinable())
    Solver.join();
  // Final compaction: fold the journal into one atomic snapshot and
  // drop it. On failure the journal is kept — nothing is lost, the
  // next start replays it.
  if (!Opts.CacheDir.empty() && Durable.compact().isOk())
    ++Compactions;
}

void ServeEngine::setHoldForTest(bool H) {
  {
    std::lock_guard<std::mutex> L(JobsMutex);
    Hold = H;
  }
  QueueCv.notify_all();
}

std::size_t ServeEngine::queuedForTest() const {
  std::lock_guard<std::mutex> L(JobsMutex);
  return Queue.size();
}

ServeStats ServeEngine::stats() const {
  ServeStats S;
  S.Present = true;
  S.Requests = Requests.load();
  S.Queries = Queries.load();
  S.Errors = Errors.load();
  S.Deduplicated = Deduplicated.load();
  S.Solves = Solves.load();
  S.CacheHits = Cache.hits();
  S.CacheMisses = Cache.misses();
  S.CacheEvictions = Cache.evictions();
  S.Compactions = Compactions.load();
  return S;
}

void ServeEngine::fillReport(RunReport &RR) const {
  RR.Serve = stats();
  if (!Opts.CacheDir.empty()) {
    Durable.report(RR.Persistence);
    RR.Persistence.Problems.insert(RR.Persistence.Problems.end(),
                                   JournalProblems.begin(),
                                   JournalProblems.end());
  }
}

void ServeEngine::solverLoop() {
  while (true) {
    std::shared_ptr<SolveJob> Job;
    {
      std::unique_lock<std::mutex> L(JobsMutex);
      QueueCv.wait(L, [&] {
        return (Stop || !Hold) && (Stop || !Queue.empty());
      });
      if (Queue.empty())
        return; // Stop with nothing queued: drained.
      Job = Queue.front();
      Queue.pop_front();
    }
    const std::uint64_t H0 = Cache.hits(), M0 = Cache.misses(),
                        E0 = Cache.evictions();
    JobResult R = runJob(Job->Request, &Cache, &Pool);
    R.Report.Tool = "thistle-serve";
    if (R.ExitCode != 2)
      Job->CanonicalReport = R.Report.toCanonicalJson();
    Job->ExitCode = R.ExitCode;
    Job->Error = std::move(R.Error);
    Job->DHits = Cache.hits() - H0;
    Job->DMisses = Cache.misses() - M0;
    Job->DEvict = Cache.evictions() - E0;
    // Count before signaling so the totals are settled by the time any
    // waiter reads them off its response.
    std::uint64_t N = ++Solves;
    telemetry::count("thistle.serve.solves");
    {
      // Retire the in-flight entry before signaling: later identical
      // queries start a fresh job and replay from the (now hot) cache.
      std::lock_guard<std::mutex> L(JobsMutex);
      InFlight.erase(Job->Key);
    }
    {
      std::lock_guard<std::mutex> L(Job->M);
      Job->Done = true;
    }
    Job->Cv.notify_all();
    if (!Opts.CacheDir.empty() && Opts.SnapshotEvery &&
        N % Opts.SnapshotEvery == 0) {
      // Periodic compaction, from the solver thread so it never races a
      // journal append.
      if (Durable.compact(/*Reattach=*/true).isOk())
        ++Compactions;
      if (!Durable.journalStatus().isOk())
        JournalProblems.push_back("re-attaching journal: " +
                                  Durable.journalStatus().toString());
    }
  }
}

std::string ServeEngine::handleLine(const std::string &Line) {
  const auto T0 = std::chrono::steady_clock::now();
  ++Requests;
  telemetry::count("thistle.serve.requests");
  auto latency = [&T0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - T0)
        .count();
  };
  auto errorOut = [&](const std::string &IdJson, const std::string &Msg) {
    ++Errors;
    telemetry::count("thistle.serve.errors");
    ServerSection S;
    S.LatencyMs = latency();
    return buildEnvelope(IdJson, 2, Msg, "", "", S);
  };

  Expected<JsonValue> Parsed = json::parseJson(Line);
  if (!Parsed)
    return errorOut("null", Parsed.status().toString());
  const JsonValue &Root = Parsed.value();
  const std::string IdJson = idJsonOf(Root);
  if (!Root.isObject())
    return errorOut(IdJson, "request must be a JSON object");

  // Admin commands: small, never queued, answered inline.
  if (const JsonValue *Cmd = Root.find("cmd")) {
    if (!Cmd->isString())
      return errorOut(IdJson, "\"cmd\" wants a string");
    ServerSection S;
    if (Cmd->string() == "ping") {
      S.LatencyMs = latency();
      return buildEnvelope(IdJson, 0, "", "", "", S);
    }
    if (Cmd->string() == "stats") {
      S.LatencyMs = latency();
      return buildEnvelope(IdJson, 0, "", "", serveSectionJson(stats()), S);
    }
    if (Cmd->string() == "shutdown") {
      ShutdownFlag.store(true);
      S.LatencyMs = latency();
      return buildEnvelope(IdJson, 0, "", "", "", S);
    }
    return errorOut(IdJson, "unknown cmd '" + Cmd->string() + "'");
  }

  // Solve queries must name the protocol version they speak.
  const JsonValue *Schema = Root.find("schema");
  if (!Schema || !Schema->isString() || Schema->string() != ServeSchema)
    return errorOut(IdJson, std::string("\"schema\" must be \"") +
                                ServeSchema + "\"");
  const JsonValue *Query = Root.find("query");
  if (!Query)
    return errorOut(IdJson, "request needs a \"query\" (or a \"cmd\")");
  for (const auto &[K, V] : Root.members()) {
    (void)V;
    if (K != "schema" && K != "id" && K != "query")
      return errorOut(IdJson, "unknown request field '" + K + "'");
  }

  auto Fresh = std::make_shared<SolveJob>();
  if (Status St = parseQuery(*Query, *Fresh); !St.isOk())
    return errorOut(IdJson, St.toString());
  ++Queries;
  telemetry::count("thistle.serve.queries");

  // Admission: join an identical in-flight job or enqueue a new one.
  std::shared_ptr<SolveJob> Job;
  bool Created = false;
  std::size_t Depth = 0;
  {
    std::lock_guard<std::mutex> L(JobsMutex);
    if (Stop)
      Job = nullptr;
    else {
      Depth = Queue.size();
      auto It = InFlight.find(Fresh->Key);
      if (It != InFlight.end()) {
        Job = It->second;
      } else {
        Job = Fresh;
        InFlight.emplace(Job->Key, Job);
        Queue.push_back(Job);
        Created = true;
      }
    }
  }
  if (!Job)
    return errorOut(IdJson, "server is shutting down");
  if (Created) {
    QueueCv.notify_all();
  } else {
    ++Deduplicated;
    telemetry::count("thistle.serve.dedup");
  }
  telemetry::observe("thistle.serve.queue_depth",
                     static_cast<double>(Depth));

  {
    std::unique_lock<std::mutex> L(Job->M);
    Job->Cv.wait(L, [&] { return Job->Done; });
  }

  ServerSection S;
  S.Deduplicated = !Created;
  S.QueueDepth = Depth;
  if (Created) {
    // Joiners report zeros so the per-request cache counters sum to the
    // process totals (the stats-vs-report consistency contract).
    S.Hits = Job->DHits;
    S.Misses = Job->DMisses;
    S.Evictions = Job->DEvict;
  }
  S.LatencyMs = latency();
  telemetry::observe("thistle.serve.latency_ms", S.LatencyMs);
  if (Job->ExitCode == 2)
    ++Errors;
  return buildEnvelope(IdJson, Job->ExitCode, Job->Error,
                       Job->CanonicalReport, "", S);
}
