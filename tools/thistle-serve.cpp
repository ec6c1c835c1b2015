//===- tools/thistle-serve.cpp - Long-lived co-design daemon --------------===//
//
// The serving front end of the library (docs/SERVING.md): a loopback TCP
// daemon answering newline-delimited thistle-serve/1 JSON queries —
// the same layer and network co-design requests thistle-opt answers
// once per process — from many concurrent clients, over one shared
// durable GP solution cache. Identical concurrent queries are
// deduplicated onto a single solve, and the same query returns a
// byte-identical report whether the cache is cold, hot, reloaded from
// disk, or raced with identical concurrent requests.
//
// Examples:
//   thistle-serve --port 7433
//   thistle-serve --cache-dir /var/tmp/thistle --snapshot-every 64
//   thistle-serve --port-file port.txt --trace-json report.json
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/LineSocket.h"
#include "support/RunReport.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/ServeEngine.h"

#include "FlagTable.h"
#include "NumericFlag.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace thistle;

namespace {

const FlagSpec ServerFlags[] = {
    {"--port", "N",
     "TCP port to listen on (loopback only;\n"
     "default 0 = kernel-assigned ephemeral\n"
     "port, printed on startup)"},
    {"--port-file", "FILE",
     "write the bound port number to FILE\n"
     "once listening (how scripts find an\n"
     "ephemeral port)"},
    {"--max-clients", "N",
     "concurrent connection cap; further\n"
     "connects get an error response and\n"
     "are closed (default: 64)"},
    {"--threads", "N",
     "worker threads shared by the solves,\n"
     "0-1024 (default and 0: all hardware\n"
     "threads; responses are identical at\n"
     "any N)"},
};

const FlagSpec PersistenceFlags[] = {
    {"--cache-dir", "DIR",
     "durable GP solution cache: load any\n"
     "snapshot/journal found in DIR, append\n"
     "every new solution at task granularity\n"
     "(survives SIGKILL), compact to a\n"
     "snapshot on shutdown. Shared with\n"
     "thistle-opt --cache-dir: a sweep's\n"
     "solutions serve the daemon and vice\n"
     "versa (docs/PERSISTENCE.md)"},
    {"--cache-capacity", "N",
     "bound the in-memory cache to N entries\n"
     "(LRU eviction; default 0 = unbounded)"},
    {"--snapshot-every", "N",
     "also compact the journal into a fresh\n"
     "snapshot every N solves (default 0 =\n"
     "only at shutdown)"},
};

const FlagSpec OutputFlags[] = {
    {"--trace-json", "FILE",
     "write the daemon's shutdown run report\n"
     "(thistle-run-report/1 with the serve\n"
     "section) to FILE"},
    {"--help", "", "print this usage table (also -h)"},
};

const FlagGroup UsageGroups[] = {
    {"server:", ServerFlags, std::size(ServerFlags)},
    {"persistence (see docs/PERSISTENCE.md):", PersistenceFlags,
     std::size(PersistenceFlags)},
    {"output:", OutputFlags, std::size(OutputFlags)},
};

void printUsage(const char *Prog) {
  printFlagTable(Prog, UsageGroups);
  std::printf(
      "\nrequests are newline-delimited thistle-serve/1 JSON documents\n"
      "(docs/SERVING.md); the daemon exits on SIGINT/SIGTERM or a\n"
      "{\"cmd\":\"shutdown\"} request, compacting the cache journal on the\n"
      "way out.\n"
      "\nexit codes:\n"
      "  0  clean shutdown (signal or shutdown request)\n"
      "  2  invalid arguments or the listener/cache-dir could not be\n"
      "     set up\n");
}

std::atomic<bool> SignalSeen{false};

void onSignal(int) { SignalSeen.store(true); }

/// Live connections, so shutdown can unstick threads blocked in
/// readLine(). Entries are shared with their connection thread; the
/// thread drops its reference when it exits.
struct ConnectionRegistry {
  std::mutex M;
  std::vector<std::shared_ptr<net::LineConnection>> Conns;

  void add(const std::shared_ptr<net::LineConnection> &C) {
    std::lock_guard<std::mutex> L(M);
    Conns.push_back(C);
  }
  void remove(const net::LineConnection *C) {
    std::lock_guard<std::mutex> L(M);
    for (auto It = Conns.begin(); It != Conns.end(); ++It)
      if (It->get() == C) {
        Conns.erase(It);
        return;
      }
  }
  void shutdownAll() {
    std::lock_guard<std::mutex> L(M);
    for (auto &C : Conns)
      C->shutdownBoth();
  }
};

/// One client connection: requests in, responses out, until the peer
/// hangs up (or shutdown half-closes the socket under us).
void serveConnection(ServeEngine &Engine, ConnectionRegistry &Registry,
                     std::shared_ptr<net::LineConnection> Conn,
                     std::atomic<unsigned> &Active) {
  while (true) {
    Expected<std::string> Line = Conn->readLine();
    if (!Line)
      break; // EOF, error, or shutdown-induced half-close.
    if (Conn->writeLine(Engine.handleLine(Line.value())).isOk() == false)
      break;
  }
  Registry.remove(Conn.get());
  --Active;
}

} // namespace

int main(int Argc, char **Argv) {
  // THISTLE_FAULT=site[:key[:maxhits]] arms the deterministic fault
  // hooks (testing only; a no-op unless compiled in and set).
  if (std::string FaultErr = fault::armFromEnv(); !FaultErr.empty()) {
    std::fprintf(stderr, "error: THISTLE_FAULT: %s\n", FaultErr.c_str());
    return 2;
  }
  std::uint16_t Port = 0;
  std::string PortFile;
  std::string TraceJsonPath;
  unsigned MaxClients = 64;
  ServeOptions SO;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto needValue = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    if (Arg == "--help" || Arg == "-h") {
      printUsage(Argv[0]);
      return 0;
    } else if (Arg == "--port") {
      Port = static_cast<std::uint16_t>(
          parseIntFlag("--port", needValue(), 0, 65535));
    } else if (Arg == "--port-file") {
      PortFile = needValue();
    } else if (Arg == "--max-clients") {
      MaxClients = static_cast<unsigned>(
          parseIntFlag("--max-clients", needValue(), 1, MaxFlagCount));
    } else if (Arg == "--threads") {
      SO.Threads = static_cast<unsigned>(
          parseIntFlag("--threads", needValue(), 0, MaxThreads));
    } else if (Arg == "--cache-dir") {
      SO.CacheDir = needValue();
      if (SO.CacheDir.empty()) {
        std::fprintf(stderr, "error: --cache-dir wants a directory\n");
        return 2;
      }
    } else if (Arg == "--cache-capacity") {
      SO.CacheCapacity = static_cast<std::uint64_t>(
          parseIntFlag("--cache-capacity", needValue(), 0, MaxFlagCount));
    } else if (Arg == "--snapshot-every") {
      SO.SnapshotEvery = static_cast<unsigned>(
          parseIntFlag("--snapshot-every", needValue(), 0, MaxFlagCount));
    } else if (Arg == "--trace-json") {
      TraceJsonPath = needValue();
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(Argv[0]);
      return 2;
    }
  }

  // The run report carries the full telemetry snapshot, exactly as
  // thistle-opt --trace-json does.
  if (!TraceJsonPath.empty())
    telemetry::setLevel(telemetry::Level::Trace);

  const auto StartTime = std::chrono::steady_clock::now();
  ServeEngine Engine(SO);
  if (Status St = Engine.start(); !St.isOk()) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    return 2;
  }

  net::LineListener Listener;
  if (Status St = Listener.listen(Port); !St.isOk()) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    return 2;
  }
  std::printf("serving on 127.0.0.1:%u\n",
              static_cast<unsigned>(Listener.boundPort()));
  std::fflush(stdout);
  if (!PortFile.empty()) {
    std::ofstream Out(PortFile);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write port file '%s'\n",
                   PortFile.c_str());
      return 2;
    }
    Out << Listener.boundPort() << "\n";
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  ConnectionRegistry Registry;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Active{0};
  while (!SignalSeen.load() && !Engine.shutdownRequested()) {
    // Short poll so signals and {"cmd":"shutdown"} are observed promptly.
    Expected<net::LineConnection> Conn = Listener.acceptConnection(200);
    if (!Conn) {
      if (Conn.status().code() == StatusCode::NotFound)
        continue; // Timeout or EINTR: re-check the shutdown flags.
      std::fprintf(stderr, "error: %s\n", Conn.status().toString().c_str());
      break;
    }
    auto Shared =
        std::make_shared<net::LineConnection>(std::move(Conn.value()));
    if (Active.load() >= MaxClients) {
      // Overload is an explicit, parseable refusal, not a silent drop.
      Shared->writeLine("{\"schema\":\"thistle-serve/1\",\"id\":null,"
                        "\"status\":\"invalid\",\"exit_code\":2,"
                        "\"error\":\"server at --max-clients "
                        "connection limit\",\"report\":null}");
      continue;
    }
    ++Active;
    Registry.add(Shared);
    Threads.emplace_back(serveConnection, std::ref(Engine),
                         std::ref(Registry), Shared, std::ref(Active));
  }

  // Shutdown: stop accepting, unstick blocked readers, drain the
  // connection threads, then stop the engine (which compacts the
  // journal) and write the run report.
  Listener.close();
  Registry.shutdownAll();
  for (std::thread &T : Threads)
    T.join();
  Engine.shutdown();

  ServeStats S = Engine.stats();
  std::printf("served %llu requests (%llu queries, %llu deduplicated, "
              "%llu solves, %llu errors)\n",
              static_cast<unsigned long long>(S.Requests),
              static_cast<unsigned long long>(S.Queries),
              static_cast<unsigned long long>(S.Deduplicated),
              static_cast<unsigned long long>(S.Solves),
              static_cast<unsigned long long>(S.Errors));
  std::printf("cache: %llu hits, %llu misses, "
              "%llu evictions, %llu compactions\n",
              static_cast<unsigned long long>(S.CacheHits),
              static_cast<unsigned long long>(S.CacheMisses),
              static_cast<unsigned long long>(S.CacheEvictions),
              static_cast<unsigned long long>(S.Compactions));

  if (!TraceJsonPath.empty()) {
    RunReport RR;
    RR.Tool = "thistle-serve";
    RR.Workload = "serve";
    RR.Mode = "serve";
    RR.Objective = "serve";
    RR.Hierarchy = "classic3";
    RR.Threads =
        SO.Threads ? SO.Threads : ThreadPool::defaultWorkerCount();
    RR.ExitCode = 0;
    RR.WallSeconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - StartTime)
                         .count();
    Engine.fillReport(RR);
    RR.Telemetry = telemetry::snapshot();
    std::ofstream Out(TraceJsonPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write run report '%s'\n",
                   TraceJsonPath.c_str());
      return 2;
    }
    Out << RR.toJson();
    std::printf("run report written to %s\n", TraceJsonPath.c_str());
  }
  return 0;
}
