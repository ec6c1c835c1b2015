//===- tools/thistle-query.cpp - thistle-serve test client ----------------===//
//
// A small line-oriented client for the thistle-serve daemon
// (docs/SERVING.md): send one or more thistle-serve/1 JSON requests and
// print each response line on stdout, in request order. --parallel
// opens one connection per request and fires them all concurrently
// after a start barrier — how the determinism tests race identical
// queries onto the daemon's dedup path. --strip-server drops the
// per-request `server` section (latency, queue depth) so responses to
// equal queries can be compared byte-for-byte.
//
// Examples:
//   thistle-query --port 7433 --request '{"cmd":"ping"}'
//   thistle-query --port-file port.txt --file requests.jsonl --parallel
//
//===----------------------------------------------------------------------===//

#include "support/LineSocket.h"

#include "NumericFlag.h"

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace thistle;

namespace {

void printUsage(const char *Prog) {
  std::printf(
      "usage: %s [options]\n"
      "\nconnection (one of):\n"
      "  --port N                      daemon port on 127.0.0.1\n"
      "  --port-file FILE              read the port from FILE (as\n"
      "                                written by thistle-serve\n"
      "                                --port-file)\n"
      "\nrequests (any mix; sent in order):\n"
      "  --request JSON                one request line (repeatable)\n"
      "  --file FILE                   one request per line ('-' =\n"
      "                                stdin; blank lines skipped)\n"
      "\nbehavior:\n"
      "  --parallel                    one connection per request, all\n"
      "                                fired concurrently after a start\n"
      "                                barrier (default: one connection,\n"
      "                                sequential); responses still\n"
      "                                print in request order\n"
      "  --strip-server                print each response without its\n"
      "                                trailing \"server\" section, so\n"
      "                                equal queries compare equal\n"
      "  --help                        print this usage (also -h)\n"
      "\nexit codes:\n"
      "  0  every request got a response\n"
      "  1  a connection or transport failure\n"
      "  2  invalid arguments\n",
      Prog);
}

/// Cuts the response at its `server` section — the only part that is
/// not a pure function of the query — and restores the closing brace.
std::string stripServer(const std::string &Resp) {
  std::size_t Pos = Resp.rfind(",\"server\":");
  if (Pos == std::string::npos)
    return Resp;
  return Resp.substr(0, Pos) + "}";
}

/// Sends one request over its own connection; used by --parallel after
/// the start barrier releases all threads at once.
struct Barrier {
  std::mutex M;
  std::condition_variable Cv;
  std::size_t Waiting = 0;
  std::size_t Count;
  explicit Barrier(std::size_t Count) : Count(Count) {}
  void arrive() {
    std::unique_lock<std::mutex> L(M);
    if (++Waiting >= Count) {
      Cv.notify_all();
      return;
    }
    Cv.wait(L, [&] { return Waiting >= Count; });
  }
};

} // namespace

int main(int Argc, char **Argv) {
  long Port = -1;
  std::string PortFile;
  std::vector<std::string> Requests;
  bool Parallel = false;
  bool StripServer = false;

  auto loadFile = [&](const std::string &Path) -> bool {
    std::ifstream FileIn;
    std::istream *In = &std::cin;
    if (Path != "-") {
      FileIn.open(Path);
      if (!FileIn) {
        std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
        return false;
      }
      In = &FileIn;
    }
    std::string Line;
    while (std::getline(*In, Line))
      if (!Line.empty())
        Requests.push_back(Line);
    return true;
  };

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
      Port = parseIntFlag("--port", needValue(), 1, 65535);
    } else if (Arg == "--port-file") {
      PortFile = needValue();
    } else if (Arg == "--request") {
      Requests.push_back(needValue());
    } else if (Arg == "--file") {
      if (!loadFile(needValue()))
        return 2;
    } else if (Arg == "--parallel") {
      Parallel = true;
    } else if (Arg == "--strip-server") {
      StripServer = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(Argv[0]);
      return 2;
    }
  }

  if (!PortFile.empty()) {
    std::ifstream In(PortFile);
    if (!(In >> Port)) {
      std::fprintf(stderr, "error: cannot read port from '%s'\n",
                   PortFile.c_str());
      return 2;
    }
  }
  if (Port < 1 || Port > 65535) {
    std::fprintf(stderr, "error: need --port or --port-file\n");
    return 2;
  }
  if (Requests.empty()) {
    std::fprintf(stderr, "error: no requests (--request or --file)\n");
    return 2;
  }

  std::vector<std::string> Responses(Requests.size());
  bool Failed = false;

  if (!Parallel) {
    Expected<net::LineConnection> Conn =
        net::connectLoopback(static_cast<std::uint16_t>(Port));
    if (!Conn) {
      std::fprintf(stderr, "error: %s\n",
                   Conn.status().toString().c_str());
      return 1;
    }
    for (std::size_t I = 0; I < Requests.size(); ++I) {
      if (Conn.value().writeLine(Requests[I]).isOk() == false) {
        Failed = true;
        break;
      }
      Expected<std::string> Resp = Conn.value().readLine();
      if (!Resp) {
        std::fprintf(stderr, "error: %s\n",
                     Resp.status().toString().c_str());
        Failed = true;
        break;
      }
      Responses[I] = Resp.value();
    }
  } else {
    // Connect everything first, then release all sends at once: the
    // requests genuinely race on the daemon side.
    std::vector<net::LineConnection> Conns(Requests.size());
    for (std::size_t I = 0; I < Requests.size(); ++I) {
      Expected<net::LineConnection> Conn =
          net::connectLoopback(static_cast<std::uint16_t>(Port));
      if (!Conn) {
        std::fprintf(stderr, "error: %s\n",
                     Conn.status().toString().c_str());
        return 1;
      }
      Conns[I] = std::move(Conn.value());
    }
    Barrier Start(Requests.size());
    std::vector<std::thread> Threads;
    std::mutex FailM;
    for (std::size_t I = 0; I < Requests.size(); ++I)
      Threads.emplace_back([&, I] {
        Start.arrive();
        bool Ok = Conns[I].writeLine(Requests[I]).isOk();
        if (Ok) {
          Expected<std::string> Resp = Conns[I].readLine();
          if (Resp)
            Responses[I] = Resp.value();
          else
            Ok = false;
        }
        if (!Ok) {
          std::lock_guard<std::mutex> L(FailM);
          Failed = true;
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }

  for (const std::string &Resp : Responses)
    if (!Resp.empty())
      std::printf("%s\n",
                  (StripServer ? stripServer(Resp) : Resp).c_str());
  return Failed ? 1 : 0;
}
