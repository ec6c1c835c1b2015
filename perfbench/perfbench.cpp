//===- perfbench/perfbench.cpp - End-to-end and per-layer benchmark -------===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
//
// One run of one seeded workload through Thistle's two user surfaces:
// the batch API (optimizeNetwork) and the serving engine
// (ServeEngine::handleLine). perfbench/README.md defines
// the workloads and every metric and explains the estimators. The last
// line of standard output is the JSON result object; the exit code is
// non-zero when any answer check failed.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/Evaluator.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/Network.h"
#include "thistle/Optimizer.h"
#include "thistle/PairSweep.h"
#include "thistle/ServeEngine.h"
#include "workloads/Workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

using namespace thistle;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The worker count a user gets by default: the CPUs this process may
/// run on, as `nproc` reports them.
unsigned hostThreads() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs the calling thread, and the threads it starts, on the Index-th
/// CPU this process may use, for the lifetime of the object.
class PinnedToCpu {
public:
  explicit PinnedToCpu(unsigned Index) {
    pthread_getaffinity_np(pthread_self(), sizeof(Saved), &Saved);
    const unsigned Target = Index % static_cast<unsigned>(CPU_COUNT(&Saved));
    cpu_set_t One;
    CPU_ZERO(&One);
    for (unsigned Cpu = 0, Seen = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Saved) && Seen++ == Target)
        CPU_SET(Cpu, &One);
    pthread_setaffinity_np(pthread_self(), sizeof(One), &One);
  }
  ~PinnedToCpu() {
    pthread_setaffinity_np(pthread_self(), sizeof(Saved), &Saved);
  }
  PinnedToCpu(const PinnedToCpu &) = delete;
  PinnedToCpu &operator=(const PinnedToCpu &) = delete;

private:
  cpu_set_t Saved;
};

/// CPU seconds the whole process has used so far.
double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

/// Peak resident set of this process image. getrusage's ru_maxrss would
/// also count the parent's pages the process had between fork and exec.
double peakRssMiB() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double KiB = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB / 1024.0;
}

std::string hexDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// One client-seen latency and the solve behind it: requests that joined
/// one solve in flight share its id.
struct Sample {
  double Ms;
  std::size_t Solve;
};

/// Harrell-Davis estimate of quantile \p Q of \p Sorted: the mean of
/// every order statistic, the i-th weighted by the mass a
/// Beta((n+1)Q, (n+1)(1-Q)) density puts on [(i-1)/n, i/n]. Cold
/// latencies cluster by cell, and a single order statistic jumps between
/// clusters when one reply crosses a gap; this estimate moves smoothly.
double harrellDavis(const std::vector<double> &Sorted, double Q) {
  const double N = static_cast<double>(Sorted.size());
  const double A = (N + 1.0) * Q, B = (N + 1.0) * (1.0 - Q);
  const double LogBeta = std::lgamma(A) + std::lgamma(B) - std::lgamma(A + B);
  auto Density = [&](double X) {
    return X <= 0.0 || X >= 1.0
               ? 0.0
               : std::exp((A - 1.0) * std::log(X) +
                          (B - 1.0) * std::log1p(-X) - LogBeta);
  };
  // Simpson's rule on eight steps per order statistic.
  constexpr int Steps = 8;
  double Sum = 0.0, Mass = 0.0;
  for (std::size_t I = 0; I < Sorted.size(); ++I) {
    const double Lo = static_cast<double>(I) / N, H = 1.0 / (N * Steps);
    double W = Density(Lo) + Density(Lo + Steps * H);
    for (int J = 1; J < Steps; ++J)
      W += (J % 2 ? 4.0 : 2.0) * Density(Lo + J * H);
    Sum += W * Sorted[I];
    Mass += W;
  }
  return Sum / Mass;
}

/// Quantile \p Q of \p Samples (Harrell-Davis), or nothing when fewer
/// than ten distinct solves lie beyond its nearest rank: a tail estimate
/// needs a tail of independent samples, and replies that waited on one
/// solve are not.
std::optional<double> quantile(std::vector<Sample> Samples, double Q) {
  std::sort(Samples.begin(), Samples.end(),
            [](const Sample &A, const Sample &B) { return A.Ms < B.Ms; });
  const std::size_t N = Samples.size();
  const auto Rank = static_cast<std::size_t>(std::ceil(Q * N));
  if (Rank == 0)
    return std::nullopt;
  std::set<std::size_t> Beyond;
  for (std::size_t I = Rank; I < N; ++I)
    Beyond.insert(Samples[I].Solve);
  if (Beyond.size() < 10)
    return std::nullopt;
  std::vector<double> Sorted;
  for (const Sample &S : Samples)
    Sorted.push_back(S.Ms);
  return harrellDavis(Sorted, Q);
}

/// Operations attempted and failed in this run, with a reason for each
/// failure (printed to stderr at the end).
struct Ledger {
  std::uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;

  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      Problems.push_back(What);
    }
  }
  void ops(std::uint64_t N, std::uint64_t Bad, const std::string &What) {
    Attempted += N;
    Failed += Bad;
    if (Bad)
      Problems.push_back(What + ": " + std::to_string(Bad) + " of " +
                         std::to_string(N));
  }
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

const TechParams Tech = TechParams::cgo45nm();

/// One layer answer as both surfaces ask for it: the optimizer inputs
/// and the equivalent thistle-serve/1 query.
struct Cell {
  ConvLayer Layer;
  DesignMode Mode = DesignMode::DataflowOnly;
  SearchObjective Objective = SearchObjective::Energy;
  unsigned Candidates = 2;
  ArchConfig Arch = eyerissArch();
};

double cellBudget(const Cell &C) {
  return C.Mode == DesignMode::CoDesign ? eyerissAreaUm2(Tech) : 0.0;
}

ThistleOptions cellOptions(const Cell &C, unsigned Threads) {
  ThistleOptions O;
  O.Mode = C.Mode;
  O.Objective = C.Objective;
  O.Rounding.NumCandidates = C.Candidates;
  O.Threads = Threads;
  return O;
}

const char *objectiveToken(SearchObjective O) {
  switch (O) {
  case SearchObjective::Energy:
    return "energy";
  case SearchObjective::Delay:
    return "delay";
  case SearchObjective::EnergyDelayProduct:
    return "edp";
  }
  return "energy";
}

/// The request line for \p C. The id is the cell index, so every answer
/// to one cell carries the same bytes up to the volatile server trailer.
std::string requestLine(const Cell &C, std::size_t Id) {
  const ConvLayer &L = C.Layer;
  std::string S = "{\"schema\":\"thistle-serve/1\",\"id\":" +
                  std::to_string(Id) +
                  ",\"query\":{\"workload\":{\"layer\":{\"dims\":[";
  for (std::int64_t D : {L.K, L.C, L.Hin, L.Win, L.R, L.S, L.StrideX,
                         L.DilationX})
    S += std::to_string(D) + ",";
  S.back() = ']';
  if (L.Groups > 1)
    S += ",\"groups\":" + std::to_string(L.Groups);
  if (L.Transposed)
    S += ",\"transposed\":true";
  S += std::string("}},\"mode\":\"") +
       (C.Mode == DesignMode::CoDesign ? "codesign" : "dataflow") +
       "\",\"objective\":\"" + objectiveToken(C.Objective) +
       "\",\"candidates\":" + std::to_string(C.Candidates);
  const ArchConfig E = eyerissArch();
  if (C.Arch.NumPEs != E.NumPEs || C.Arch.RegWordsPerPE != E.RegWordsPerPE ||
      C.Arch.SramWords != E.SramWords)
    S += ",\"arch\":{\"pes\":" + std::to_string(C.Arch.NumPEs) +
         ",\"regs\":" + std::to_string(C.Arch.RegWordsPerPE) +
         ",\"sram_words\":" + std::to_string(C.Arch.SramWords) + "}";
  return S + "}}";
}

ConvLayer convLayer(std::string Name, std::int64_t K, std::int64_t C,
                    std::int64_t HW, std::int64_t RS, std::int64_t Stride = 1,
                    std::int64_t Dilation = 1, std::int64_t Groups = 1,
                    bool Transposed = false) {
  ConvLayer L;
  L.Name = std::move(Name);
  L.K = K;
  L.C = C;
  L.Hin = L.Win = HW;
  L.R = L.S = RS;
  L.StrideX = L.StrideY = Stride;
  L.DilationX = L.DilationY = Dilation;
  L.Groups = Groups;
  L.Transposed = Transposed;
  return L;
}

struct Workload {
  std::string Name;
  DesignMode Mode = DesignMode::DataflowOnly;
  /// The network optimizeNetwork answers.
  std::vector<ConvLayer> Layers;
  /// The queries the serving sessions ask: dataflow-nets' query mix, or
  /// codesign-net's per-shape answers, filled in from the warm-up answer
  /// (ServesItsShapes).
  std::vector<Cell> Cells;
  bool ServesItsShapes = false;
  /// Queries first asked in the replay.
  std::vector<Cell> NewCells;
  /// Later cold passes of the traced run repeat only the cell with the
  /// fewest Newton steps, when repeating every cell would not fit a run.
  bool TailOnCheapestCell = false;
  /// The share of the workload that has the property it exists for.
  std::string Property;
  double PropertyShare = 0.0;
};

std::string shapeKey(const ConvLayer &L) {
  std::string K;
  for (std::int64_t V : {L.N, L.K, L.C, L.Hin, L.Win, L.R, L.S, L.StrideX,
                         L.StrideY, L.DilationX, L.DilationY, L.Groups})
    K += std::to_string(V) + ",";
  return K + (L.Transposed ? "t," : "d,") + paddingName(L.Padding);
}

/// Places each repeated instance of \p Layers at a seeded position after
/// the first instance of its shape. The unique shapes keep their order:
/// optimizeNetwork splits the pair tasks of all unique shapes, in
/// first-occurrence order, into one contiguous shard per worker, so
/// reordering them would change the parallel answer's time with the seed.
std::vector<ConvLayer> scatterRepeats(const std::vector<ConvLayer> &Layers,
                                      std::mt19937_64 &Rng) {
  std::vector<ConvLayer> Out, Repeats;
  std::set<std::string> Seen;
  for (const ConvLayer &L : Layers)
    (Seen.insert(shapeKey(L)).second ? Out : Repeats).push_back(L);
  std::shuffle(Repeats.begin(), Repeats.end(), Rng);
  for (const ConvLayer &L : Repeats) {
    const auto First = std::find_if(Out.begin(), Out.end(), [&](const auto &O) {
      return shapeKey(O) == shapeKey(L);
    });
    std::uniform_int_distribution<std::ptrdiff_t> At(
        First - Out.begin() + 1, static_cast<std::ptrdiff_t>(Out.size()));
    Out.insert(Out.begin() + At(Rng), L);
  }
  return Out;
}

/// The serving query mix: small layers of every conv class, one query
/// per layer, in a fixed order, asked in both modes and for all three
/// objectives, and two more queries first asked in the replay.
void addQueryMix(Workload &W) {
  const std::vector<ConvLayer> Layers = {
      convLayer("dense", 16, 8, 7, 3),
      convLayer("strided", 16, 16, 14, 3, 2),
      convLayer("pointwise", 32, 16, 7, 1),
      convLayer("dilated", 16, 16, 7, 3, 1, 2),
      convLayer("transposed", 8, 16, 4, 4, 2, 1, 1, true),
      convLayer("grouped", 32, 32, 7, 3, 1, 1, 4),
      convLayer("depthwise", 32, 32, 14, 3, 1, 1, 32),
      convLayer("pointwise-s2", 16, 32, 14, 1, 2)};
  const SearchObjective Objectives[3] = {SearchObjective::Energy,
                                         SearchObjective::Delay,
                                         SearchObjective::EnergyDelayProduct};
  auto MakeCell = [&](std::size_t Layer, std::size_t Objective,
                      bool CoDesign) {
    Cell C;
    C.Layer = Layers[Layer];
    C.Objective = Objectives[Objective % 3];
    C.Mode = CoDesign ? DesignMode::CoDesign : DesignMode::DataflowOnly;
    // A co-design rounding at width 2 prices up to 4000 integer
    // candidates per pair task, four times a dataflow one. Width 1 finds
    // no delay design on the strided layers, so delay keeps width 2.
    C.Candidates =
        CoDesign && C.Objective != SearchObjective::Delay ? 1 : 2;
    return C;
  };
  // The objectives in turn; the co-design queries are chosen so that
  // both modes ask for every objective.
  const std::set<std::size_t> CoDesigned = {0, 3, 5, 7};
  for (std::size_t I = 0; I < Layers.size(); ++I)
    W.Cells.push_back(MakeCell(I, I, CoDesigned.count(I) > 0));
  W.NewCells = {MakeCell(0, 1, false), MakeCell(2, 0, false)};
}

/// dataflow-nets: fixed shapes from the four network tables covering
/// every conv class they hold, each with every instance the network
/// pipeline has of it, and the query mix as its serving load; the seed
/// places the repeated instances and draws the serving replay.
Workload dataflowNets(std::mt19937_64 &Rng) {
  // {distinct shapes, network pipeline, indices of the picked shapes}.
  const std::vector<std::tuple<std::vector<ConvLayer>, std::vector<ConvLayer>,
                               std::vector<std::size_t>>>
      Tables = {
          {resnet18Layers(), resnet18NetworkLayers(), {0, 1, 2, 4, 6, 8, 10}},
          {yolo9000Layers(), yolo9000NetworkLayers(), {2, 5}},
          {mobilenetV2Layers(), mobilenetV2NetworkLayers(),
           {1, 3, 9, 17, 22}},
          {dcganLayers(), dcganNetworkLayers(), {1, 2, 4}}};
  Workload W;
  W.Name = "dataflow-nets";
  for (const auto &[Shapes, Network, Picks] : Tables)
    for (std::size_t I : Picks)
      for (const ConvLayer &L : Network)
        if (shapeKey(L) == shapeKey(Shapes[I]))
          W.Layers.push_back(L);
  W.Layers = scatterRepeats(W.Layers, Rng);
  addQueryMix(W);
  // The network tables hold dense, depthwise, transposed and dilated
  // layers; the query mix adds grouped ones.
  std::set<std::string> Classes;
  for (const ConvLayer &L : W.Layers)
    Classes.insert(L.layerClass());
  for (const Cell &C : W.Cells)
    Classes.insert(C.Layer.layerClass());
  W.Property = "conv classes present:";
  for (const std::string &Name : Classes)
    W.Property += " " + Name;
  W.PropertyShare = static_cast<double>(Classes.size()) / 5.0;
  return W;
}

/// codesign-net: ResNet-18 stages 5 and 12, a slice whose phase 2 proves
/// one candidate architecture infeasible for a stage, served shape by
/// shape. Its two shapes keep their table order (see scatterRepeats);
/// the seed draws only the serving replay.
Workload codesignNet() {
  const auto R = resnet18Layers();
  Workload W;
  W.Name = "codesign-net";
  W.Mode = DesignMode::CoDesign;
  W.Layers = {R[4], R[11]};
  W.ServesItsShapes = true;
  // Stage 5's answer under the selected architecture retries every
  // solve and takes ~0.9 s cold at 4 threads; stage 12's takes ~0.05 s.
  W.TailOnCheapestCell = true;
  W.Property = "infeasible share of phase-2 pair tasks";
  return W;
}

//===----------------------------------------------------------------------===//
// The batch surface
//===----------------------------------------------------------------------===//

/// One found layer design, kept for the answer checks.
struct Design {
  ConvLayer Layer;
  ArchConfig Arch;
  Mapping Map;
  EvalResult Eval;
  /// Newton steps of the design's own layer sweep.
  unsigned Newton = 0;
};

/// The workload's answer from the batch API.
struct BatchAnswer {
  double Seconds = 0.0;
  double CpuSeconds = 0.0;
  /// Every result field the user sees, in a canonical text form with
  /// exact (hex) floats: equal strings mean byte-identical answers.
  std::string Canon;
  std::vector<Design> Designs; ///< One per unique shape / query.
  double EnergyPj = 0.0, Cycles = 0.0;
  std::int64_t Macs = 0;
  std::uint64_t Newton = 0, CostEvals = 0;
  std::uint64_t Tasks = 0, BadTasks = 0, Layers = 0, LayersMissing = 0;
  std::uint64_t Infeasible = 0, Phase2Tasks = 0;
  std::optional<NetworkResult> Net;
};

std::string canonDesign(const ConvLayer &L, const ThistleResult &R) {
  std::string S = L.Name + (R.Found ? " found" : " none");
  if (R.Found)
    S += " arch=" + std::to_string(R.Arch.NumPEs) + "/" +
         std::to_string(R.Arch.RegWordsPerPE) + "/" +
         std::to_string(R.Arch.SramWords) + " map=" +
         R.Map.toString(makeConvProblem(L)) + " e=" +
         hexDouble(R.Eval.EnergyPj) + " c=" + hexDouble(R.Eval.Cycles);
  const SweepReport &P = R.Report;
  return S + " sweep=" + std::to_string(P.Solved) + "/" +
         std::to_string(P.Degraded) + "/" + std::to_string(P.Infeasible) +
         "/" + std::to_string(P.Failed) + "/" + std::to_string(P.Skipped) +
         "\n";
}

std::uint64_t badTasks(const SweepReport &R) {
  return R.Failed + R.Degraded + (R.Skipped - R.SkippedByPolicy);
}

BatchAnswer answerNetwork(const Workload &W, unsigned Threads) {
  NetworkOptions NO;
  NO.Layer.Mode = W.Mode;
  NO.Layer.Threads = Threads;
  const double Budget =
      W.Mode == DesignMode::CoDesign ? eyerissAreaUm2(Tech) : 0.0;
  BatchAnswer A;
  const double Cpu0 = processCpuSeconds();
  const auto T0 = Clock::now();
  NetworkResult R = optimizeNetwork(W.Layers, eyerissArch(), Tech, NO, Budget);
  A.Seconds = secondsSince(T0);
  A.CpuSeconds = processCpuSeconds() - Cpu0;

  A.Tasks = R.Stats.PairsPlanned;
  A.BadTasks = badTasks(R.Report);
  A.Layers = R.Stats.LayersTotal;
  A.LayersMissing = R.Stats.LayersTotal - R.LayersFound;
  A.EnergyPj = R.Totals.EnergyPj;
  A.Cycles = R.Totals.Cycles;
  A.Macs = R.Totals.Macs;
  for (std::size_t I = 0; I < R.Layers.size(); ++I) {
    const NetworkLayerResult &LR = R.Layers[I];
    const ConvLayer &L = W.Layers[I];
    A.Canon += canonDesign(L, LR.Result);
    if (!LR.Deduplicated && LR.Result.Found)
      A.Designs.push_back({L, LR.Result.Arch, LR.Result.Map, LR.Result.Eval,
                           LR.Result.Stats.NewtonIterations});
  }
  for (const NetworkArchCandidate &C : R.Candidates)
    A.Canon += "candidate " + std::to_string(C.Arch.NumPEs) + "/" +
               std::to_string(C.Arch.RegWordsPerPE) + "/" +
               std::to_string(C.Arch.SramWords) + " " +
               hexDouble(C.SummedObjective) +
               (C.AllLayersFound ? " all\n" : " partial\n");
  A.Canon += "totals " + hexDouble(R.Totals.EnergyPj) + " " +
             hexDouble(R.Totals.Cycles) + "\n";
  // Phase 2 re-sweeps every shape once per candidate.
  A.Phase2Tasks = A.Tasks - A.Tasks / (R.Stats.ArchCandidates + 1);
  A.Infeasible = R.Report.Infeasible;
  A.Net = std::move(R);
  return A;
}

BatchAnswer answerQueries(const std::vector<Cell> &Cells, unsigned Threads) {
  BatchAnswer A;
  const double Cpu0 = processCpuSeconds();
  const auto T0 = Clock::now();
  ThreadPool Pool(Threads);
  std::vector<ThistleResult> Results;
  for (const Cell &C : Cells) {
    LayerRunContext Run;
    Run.Pool = &Pool;
    Results.push_back(optimizeLayer(makeConvProblem(C.Layer), C.Arch, Tech,
                                    cellOptions(C, Threads), Run,
                                    cellBudget(C)));
  }
  A.Seconds = secondsSince(T0);
  A.CpuSeconds = processCpuSeconds() - Cpu0;
  for (std::size_t I = 0; I < Cells.size(); ++I) {
    const ThistleResult &R = Results[I];
    const ConvLayer &L = Cells[I].Layer;
    A.Canon += canonDesign(L, R);
    A.Tasks += R.Stats.PairsPlanned;
    A.BadTasks += badTasks(R.Report);
    ++A.Layers;
    A.Newton += R.Stats.NewtonIterations;
    A.CostEvals += R.Stats.CandidatesEvaluated;
    if (!R.Found) {
      ++A.LayersMissing;
      continue;
    }
    A.Designs.push_back({L, R.Arch, R.Map, R.Eval, R.Stats.NewtonIterations});
    A.EnergyPj += R.Eval.EnergyPj;
    A.Cycles += R.Eval.Cycles;
    A.Macs += L.numMacs();
  }
  return A;
}

/// The run's untimed warm-up answer at nproc threads. It runs with the
/// program's own counters on (telemetry::Level::Metrics) for the Newton
/// steps and priced candidates
/// of all phases: the network result keeps per-layer statistics only for
/// the selected architecture. Every timed answer, made with the counters
/// off, must equal it.
BatchAnswer warmUp(const Workload &W, unsigned Threads, Ledger &Log) {
  telemetry::reset();
  telemetry::setLevel(telemetry::Level::Metrics);
  BatchAnswer Out = answerNetwork(W, Threads);
  telemetry::Snapshot S = telemetry::snapshot();
  telemetry::setLevel(telemetry::Level::Off);
  telemetry::reset();
  bool SawNewton = false;
  for (const telemetry::CounterValue &C : S.Counters) {
    if (C.Name == "solver.newton_iters") {
      Out.Newton = C.Value;
      SawNewton = true;
    } else if (C.Name == "thistle.rounding.candidates") {
      Out.CostEvals = C.Value;
    }
  }
  Log.check(SawNewton && Out.CostEvals > 0,
            "the counting call reported no solver or rounding counters");
  return Out;
}

/// Re-prices every winning design with the maestro backend; the nest
/// and maestro counts must agree exactly.
void checkMaestro(const BatchAnswer &A, Ledger &Log) {
  const CostEvaluator *Maestro = costEvaluator("maestro");
  if (!Maestro) {
    Log.check(false, "the maestro backend is not registered");
    return;
  }
  const EnergyModel Energy(Tech);
  for (const Design &D : A.Designs) {
    EvalResult E = evaluateMapping(makeConvProblem(D.Layer), D.Map, D.Arch,
                                   Energy, *Maestro);
    Log.check(E.EnergyPj == D.Eval.EnergyPj && E.Cycles == D.Eval.Cycles,
              "maestro re-pricing differs on " + D.Layer.Name);
  }
}

/// The answers served replies are checked against, one per cell and then
/// one per new cell: codesign-net's cells are the batch answer's own
/// designs; a query mix gets one untimed optimizeLayer answer per query,
/// re-priced with maestro like the batch answers.
std::vector<Design> expectedAnswers(const Workload &W, const BatchAnswer &First,
                                    unsigned Threads, Ledger &Log) {
  if (W.ServesItsShapes)
    return First.Designs;
  std::vector<Cell> All = W.Cells;
  All.insert(All.end(), W.NewCells.begin(), W.NewCells.end());
  const BatchAnswer Q = answerQueries(All, Threads);
  Log.ops(Q.Tasks, Q.BadTasks, "pair tasks failed, degraded or skipped");
  Log.ops(Q.Layers, Q.LayersMissing, "queries without a design");
  checkMaestro(Q, Log);
  return Q.Designs;
}

//===----------------------------------------------------------------------===//
// The serving surface
//===----------------------------------------------------------------------===//

/// One answered request, as the client saw it.
struct Reply {
  std::size_t CellIdx = 0;
  double StartS = 0.0, EndS = 0.0;
  std::string Line;
  double ms() const { return 1e3 * (EndS - StartS); }
};

/// What the serving surface measured over a run.
struct ServeTotals {
  std::vector<std::string> Prefix; ///< First answer to each cell.
  /// Untraced runs (serveSession): each session's hot median and the
  /// set-up time of each restart.
  std::vector<double> HotP50, Setups;
  /// Per cell, the fastest reply of any session's cold pass.
  std::vector<double> ColdBest;
  /// The traced run's multi-client round (serveRound).
  std::vector<double> ColdP90, HotP99, Qps, Loads, HotEngineMs;
  std::uint64_t Entries = 0, Queries = 0, Dedup = 0;
  std::uint64_t ColdSamples = 0, ColdSolves = 0, HotSamples = 0;
  std::uint64_t ReplayHits = 0, ReplayMisses = 0, ReplayHot = 0,
                ReplayTotal = 0;
  double QueueDepthSum = 0.0;
  /// First unused sample id (see accountReplies).
  std::size_t NextSolve = 0;
  /// Start and end of every handleLine call, for the trace.
  std::vector<std::pair<double, double>> Handled;
};

/// Runs \p Clients closed-loop client threads against \p E. Client C
/// asks for Lines[Item] while Next(C, Step, Item) returns true.
std::vector<Reply>
runClients(ServeEngine &E, unsigned Clients,
           const std::function<bool(unsigned, std::size_t, std::size_t &)>
               &Next,
           const std::vector<std::string> &Lines, Clock::time_point Epoch) {
  auto Since = [&] {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  };
  std::vector<std::vector<Reply>> PerClient(Clients);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      std::size_t Item = 0;
      for (std::size_t Step = 0; Next(C, Step, Item); ++Step) {
        Reply R;
        R.CellIdx = Item;
        R.StartS = Since();
        R.Line = E.handleLine(Lines[Item]);
        R.EndS = Since();
        PerClient[C].push_back(std::move(R));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<Reply> All;
  for (auto &V : PerClient)
    for (Reply &R : V)
      All.push_back(std::move(R));
  return All;
}

/// The deterministic part of a response: everything before the
/// volatile `server` trailer.
std::string answerPrefix(const std::string &Line) {
  const std::size_t P = Line.find(",\"server\":");
  return P == std::string::npos ? Line : Line.substr(0, P);
}

/// Parsed fields of one response that the metrics and checks read.
struct ParsedReply {
  bool Valid = false, Ok = false, Found = false, Dedup = false;
  double EnergyPj = 0.0, Cycles = 0.0, EngineMs = 0.0, QueueDepth = 0.0;
  std::uint64_t Hits = 0, Misses = 0;
};

ParsedReply parseReply(const std::string &Line) {
  ParsedReply P;
  Expected<json::JsonValue> J = json::parseJson(Line);
  if (!J)
    return P;
  const json::JsonValue &V = J.value();
  const json::JsonValue *Status = V.find("status");
  const json::JsonValue *Server = V.find("server");
  if (!Status || !Server || !Server->isObject())
    return P;
  P.Valid = true;
  P.Ok = Status->isString() && Status->string() == "ok";
  if (const json::JsonValue *D = Server->find("deduplicated"))
    P.Dedup = D->isBool() && D->boolean();
  if (const json::JsonValue *L = Server->find("latency_ms"))
    P.EngineMs = L->number();
  if (const json::JsonValue *Q = Server->find("queue_depth"))
    P.QueueDepth = Q->number();
  if (const json::JsonValue *C = Server->find("cache")) {
    if (const json::JsonValue *H = C->find("hit"))
      H->asUint(P.Hits);
    if (const json::JsonValue *M = C->find("miss"))
      M->asUint(P.Misses);
  }
  const json::JsonValue *Report = V.find("report");
  const json::JsonValue *Result =
      Report && Report->isObject() ? Report->find("result") : nullptr;
  if (Result && Result->isObject()) {
    const json::JsonValue *F = Result->find("found");
    const json::JsonValue *E = Result->find("energy_pj");
    const json::JsonValue *C = Result->find("cycles");
    P.Found = F && F->isBool() && F->boolean() && E && C;
    if (P.Found) {
      P.EnergyPj = E->number();
      P.Cycles = C->number();
    }
  }
  return P;
}

/// Marks which replies one engine gave are cold: those whose job
/// missed the cache, and those that joined such a job in flight. A
/// joiner's own trailer reports no cache traffic, so it is cold when it
/// overlaps a cache-missing answer to the same query.
std::vector<bool> coldReplies(const std::vector<Reply> &Rs,
                              const std::vector<ParsedReply> &Ps) {
  std::map<std::size_t, std::vector<const Reply *>> Misses;
  for (std::size_t I = 0; I < Rs.size(); ++I)
    if (!Ps[I].Dedup && Ps[I].Misses > 0)
      Misses[Rs[I].CellIdx].push_back(&Rs[I]);
  std::vector<bool> Cold(Rs.size());
  for (std::size_t I = 0; I < Rs.size(); ++I) {
    if (!Ps[I].Dedup) {
      Cold[I] = Ps[I].Misses > 0;
      continue;
    }
    for (const Reply *M : Misses[Rs[I].CellIdx])
      Cold[I] =
          Cold[I] || (Rs[I].StartS <= M->EndS && Rs[I].EndS >= M->StartS);
  }
  return Cold;
}

/// The request line of every cell, then of every new cell. The id is the
/// cell index, so every answer to one cell carries the same bytes up to
/// the volatile server trailer.
std::vector<std::string> requestLines(const Workload &W) {
  std::vector<std::string> Lines;
  for (const Cell &C : W.Cells)
    Lines.push_back(requestLine(C, Lines.size()));
  for (const Cell &C : W.NewCells)
    Lines.push_back(requestLine(C, Lines.size()));
  return Lines;
}

/// A replay of at least \p Length requests: every cell equally often, in
/// a seeded order, so that every seed replays the same mix; each new cell
/// is asked once, at a seeded point between a tenth and nine tenths of
/// the way.
std::vector<std::size_t> replayStream(const Workload &W, std::size_t Length,
                                      std::mt19937_64 &Rng) {
  const std::size_t N = W.Cells.size();
  std::vector<std::size_t> Stream;
  while (Stream.size() < Length)
    for (std::size_t I = 0; I < N; ++I)
      Stream.push_back(I);
  std::shuffle(Stream.begin(), Stream.end(), Rng);
  for (std::size_t I = N; I < N + W.NewCells.size(); ++I) {
    std::uniform_int_distribution<std::size_t> At(Stream.size() / 10,
                                                  Stream.size() * 9 / 10);
    Stream.insert(Stream.begin() + static_cast<std::ptrdiff_t>(At(Rng)), I);
  }
  return Stream;
}

/// Checks and tallies the replies one engine gave, and appends the
/// latencies of its cold and hot replies. \p Expected holds the batch
/// answer of each cell, then of each new cell: a cell's first served
/// answer must match it exactly, and every later one must carry the
/// same bytes up to the server trailer, cold or hot. The cold replies to
/// one cell share the engine's one solve of it, so they share a sample
/// id; every hot reply has its own.
void accountReplies(const std::vector<std::string> &Lines,
                    const std::vector<Design> &Expected,
                    const std::vector<Reply> &Rs, bool Replay, Ledger &Log,
                    ServeTotals &Out, std::vector<Sample> &ColdMs,
                    std::vector<Sample> &HotMs) {
  std::vector<ParsedReply> Ps;
  for (const Reply &R : Rs)
    Ps.push_back(parseReply(R.Line));
  const std::vector<bool> Cold = coldReplies(Rs, Ps);
  const std::size_t Base = Out.NextSolve;
  Out.NextSolve += Lines.size() + Rs.size();
  Out.Prefix.resize(Lines.size());
  for (std::size_t I = 0; I < Rs.size(); ++I) {
    const ParsedReply &P = Ps[I];
    const std::size_t C = Rs[I].CellIdx;
    Log.ops(1, P.Valid && P.Ok ? 0 : 1, "serve replies not ok");
    ++Out.Queries;
    Out.Dedup += P.Dedup;
    const std::string Pre = answerPrefix(Rs[I].Line);
    if (Out.Prefix[C].empty()) {
      Out.Prefix[C] = Pre;
      Log.check(C < Expected.size() && P.Found &&
                    P.EnergyPj == Expected[C].Eval.EnergyPj &&
                    P.Cycles == Expected[C].Eval.Cycles,
                "served answer differs from the batch answer: " + Lines[C]);
    } else {
      Log.check(Pre == Out.Prefix[C],
                std::string(Cold[I] ? "cold" : "hot") +
                    " answer differs from the first answer: " + Lines[C]);
    }
    if (Cold[I])
      ColdMs.push_back({Rs[I].ms(), Base + C});
    else
      HotMs.push_back({Rs[I].ms(), Base + Lines.size() + I});
    if (Replay) {
      ++Out.ReplayTotal;
      Out.ReplayHits += P.Hits;
      Out.ReplayMisses += P.Misses;
      Out.QueueDepthSum += P.QueueDepth;
      if (!Cold[I]) {
        ++Out.ReplayHot;
        Out.HotEngineMs.push_back(P.EngineMs);
      }
    }
    Out.Handled.emplace_back(Rs[I].StartS, Rs[I].EndS);
  }
}

/// What one serving session saw.
struct Session {
  std::vector<Reply> Cold, Replay;
  std::vector<double> SetupS;
  bool Ok = true; ///< Every engine started and answered its ping.
};

/// One serving session (perfbench/README.md), on the CPU the caller is
/// pinned to: a one-thread engine on the fresh directory \p Dir answers
/// every cell once, in table order (the cold pass), and shuts down,
/// compacting the directory; engines then restart on it three times (the
/// set-up, each timed to the first answered ping), and the last answers
/// \p Stream (the replay). One closed-loop client asks. The engine's
/// threads inherit the caller's CPU, so the client and the engine never
/// wait on another CPU.
Session serveSession(const std::vector<std::string> &Lines,
                     std::size_t NCells, const std::vector<std::size_t> &Stream,
                     const std::string &Dir) {
  Session S;
  ServeOptions SO;
  SO.Threads = 1;
  SO.CacheDir = Dir;
  const auto Epoch = Clock::now();
  auto Ask = [&](ServeEngine &E, std::size_t Item, std::vector<Reply> &Into) {
    Reply R;
    R.CellIdx = Item;
    R.StartS = secondsSince(Epoch);
    R.Line = E.handleLine(Lines[Item]);
    R.EndS = secondsSince(Epoch);
    Into.push_back(std::move(R));
  };
  {
    ServeEngine E(SO);
    S.Ok = E.start().isOk();
    for (std::size_t I = 0; I < NCells; ++I)
      Ask(E, I, S.Cold);
  }
  for (int Restart = 0; Restart < 3; ++Restart) {
    const auto T0 = Clock::now();
    ServeEngine E(SO);
    S.Ok = E.start().isOk() && S.Ok;
    const std::string Pong = E.handleLine("{\"cmd\":\"ping\"}");
    S.SetupS.push_back(secondsSince(T0));
    S.Ok = S.Ok && Pong.find("\"status\":\"ok\"") != std::string::npos;
    if (Restart == 2)
      for (std::size_t Item : Stream)
        Ask(E, Item, S.Replay);
  }
  std::filesystem::remove_all(Dir);
  return S;
}

/// Every CPU of the process by itself, all at once, each pinned to its
/// CPU: one 1-thread batch answer and then, when \p Lines is given,
/// serving sessions until \p Deadline. A session is begun only when one
/// as long as that CPU's last one still fits, but every CPU makes at
/// least one. On shared virtual hosts slowdowns come per CPU (a load on
/// one CPU does not track another's) and in phases that last tens of
/// seconds, so the fastest session of any CPU is the estimate, and the
/// sessions are spread over the whole run. \p OnSession gets every
/// session, one at a time. Returns each CPU's answer; its CpuSeconds
/// cover the whole process and mean nothing here.
std::vector<BatchAnswer>
onEveryCpu(const Workload &W, const std::vector<std::string> *Lines,
           const std::vector<std::size_t> &Stream, const std::string &Dir,
           Clock::time_point Deadline,
           const std::function<void(const Session &)> &OnSession) {
  std::vector<BatchAnswer> Out(hostThreads());
  std::mutex Serial;
  std::vector<std::thread> Threads;
  for (unsigned Cpu = 0; Cpu < Out.size(); ++Cpu)
    Threads.emplace_back([&, Cpu] {
      PinnedToCpu Pin(Cpu);
      Out[Cpu] = answerNetwork(W, 1);
      double SessionS = 0.0;
      while (Lines && (SessionS == 0.0 ||
                       Clock::now() +
                               std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(SessionS)) <=
                           Deadline)) {
        const auto T0 = Clock::now();
        const Session S = serveSession(*Lines, W.Cells.size(), Stream,
                                       Dir + "/cpu-" + std::to_string(Cpu));
        SessionS = secondsSince(T0);
        std::lock_guard<std::mutex> Lock(Serial);
        OnSession(S);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  return Out;
}

/// One round of the traced run's serving surface, with nproc clients on
/// one engine of nproc threads, for the serve layer's tail, throughput,
/// queue and dedup figures (perfbench/README.md):
///  1. cold passes, each on a fresh engine and cache directory, in which
///     every client asks the same cells in the same order, as concurrent
///     users of one network would, until the cold p90 has ten distinct
///     solves beyond it; the first pass asks every cell, later passes
///     every cell or only the cheapest one (Workload::TailOnCheapestCell);
///  2. three replay passes, each restarting an engine on a copy of the
///     first pass's directory (timed to the first answered ping) and then
///     sharing one seeded stream among the clients.
void serveRound(const Workload &W, const std::vector<Design> &Expected,
                const std::string &Dir, std::mt19937_64 &Rng, Ledger &Log,
                ServeTotals &Out) {
  const unsigned Clients = hostThreads();
  const std::size_t NCells = W.Cells.size();
  const std::vector<std::string> Lines = requestLines(W);
  std::vector<std::size_t> Every(NCells);
  for (std::size_t I = 0; I < NCells; ++I)
    Every[I] = I;
  std::vector<std::size_t> Tail = Every;
  if (W.TailOnCheapestCell && NCells > 0)
    Tail = {static_cast<std::size_t>(
        std::min_element(Expected.begin(), Expected.begin() + NCells,
                         [](const Design &A, const Design &B) {
                           return A.Newton < B.Newton;
                         }) -
        Expected.begin())};
  const auto Epoch = Clock::now();
  ServeOptions SO;
  SO.Threads = Clients;

  // 1. Cold passes (at most 400; then the run fails its check).
  const std::string FirstDir = Dir + "/cold-0";
  std::vector<Sample> ColdMs, Unused;
  for (std::size_t Pass = 0;
       Pass == 0 || (Pass < 400 && !quantile(ColdMs, 0.90)); ++Pass) {
    const std::vector<std::size_t> &Ask = Pass == 0 ? Every : Tail;
    SO.CacheDir = Dir + "/cold-" + std::to_string(Pass);
    std::vector<Reply> Rs;
    {
      ServeEngine E(SO);
      Log.check(E.start().isOk(), "serve engine failed to start");
      Rs = runClients(
          E, Clients,
          [&](unsigned, std::size_t Step, std::size_t &Item) {
            if (Step >= Ask.size())
              return false;
            Item = Ask[Step];
            return true;
          },
          Lines, Epoch);
    }
    if (Pass == 0)
      for (const Reply &R : Rs)
        Out.Entries += parseReply(R.Line).Misses;
    else
      std::filesystem::remove_all(SO.CacheDir);
    accountReplies(Lines, Expected, Rs, /*Replay=*/false, Log, Out, ColdMs,
                   Unused);
  }
  Out.ColdSamples += ColdMs.size();
  std::set<std::size_t> ColdSolves;
  for (const Sample &S : ColdMs)
    ColdSolves.insert(S.Solve);
  Out.ColdSolves += ColdSolves.size();
  if (std::optional<double> P90 = quantile(ColdMs, 0.90))
    Out.ColdP90.push_back(*P90);
  else
    Log.check(false, "too few samples for serve.cold_p90_ms");

  // 2. Replay passes.
  for (int Pass = 0; Pass < 3; ++Pass) {
    SO.CacheDir = Dir + "/replay";
    std::filesystem::remove_all(SO.CacheDir);
    std::filesystem::copy(FirstDir, SO.CacheDir);
    const std::vector<std::size_t> Stream = replayStream(W, 1100, Rng);
    const auto T0 = Clock::now();
    ServeEngine E(SO);
    Log.check(E.start().isOk(), "serve engine failed to restart");
    Out.Loads.push_back(secondsSince(T0));
    Log.check(E.handleLine("{\"cmd\":\"ping\"}").find("\"status\":\"ok\"") !=
                  std::string::npos,
              "ping after restart failed");
    std::atomic<std::size_t> Cursor{0};
    const auto R0 = Clock::now();
    std::vector<Reply> Rs = runClients(
        E, Clients,
        [&](unsigned, std::size_t, std::size_t &Item) {
          const std::size_t K = Cursor.fetch_add(1);
          if (K >= Stream.size())
            return false;
          Item = Stream[K];
          return true;
        },
        Lines, Epoch);
    Out.Qps.push_back(static_cast<double>(Rs.size()) / secondsSince(R0));
    E.shutdown();
    std::vector<Sample> Cold, Hot;
    accountReplies(Lines, Expected, Rs, /*Replay=*/true, Log, Out, Cold, Hot);
    Out.HotSamples += Hot.size();
    if (std::optional<double> P99 = quantile(Hot, 0.99))
      Out.HotP99.push_back(*P99);
    else
      Log.check(false, "too few samples for serve.hot_p99_ms");
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// The traced re-drive
//===----------------------------------------------------------------------===//

/// Benchmark-side spans around calls into the program's layers. One
/// thread records them; they stay in memory until the run ends.
struct Span {
  const char *Name;
  std::size_t Parent; ///< Index into the span list; NoParent at the top.
  std::uint64_t Task; ///< Pair-task or request id.
  double Start = 0.0, End = 0.0;
  double ChildS = 0.0; ///< Time covered by child spans.
  double EvalS = 0.0;  ///< Evaluator time folded into a rounding span.
  bool Infeasible = false;
  unsigned Newton = 0;
};
constexpr std::size_t NoParent = ~std::size_t(0);

class Tracer {
public:
  std::vector<Span> Spans;

  std::size_t open(const char *Name, std::uint64_t Task) {
    Span S{Name, Stack.empty() ? NoParent : Stack.back(), Task};
    S.Start = secondsSince(Epoch);
    Spans.push_back(S);
    Stack.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }
  void close(std::size_t Id) {
    Span &S = Spans[Id];
    S.End = secondsSince(Epoch);
    Stack.pop_back();
    if (S.Parent != NoParent)
      Spans[S.Parent].ChildS += S.End - S.Start;
  }
  double selfSeconds(const Span &S) const {
    return S.End - S.Start - S.ChildS - S.EvalS;
  }

private:
  Clock::time_point Epoch = Clock::now();
  std::vector<std::size_t> Stack;
};

/// A span covering one lexical scope.
class Scope {
public:
  Scope(Tracer &T, const char *Name, std::uint64_t Task)
      : T(T), Id(T.open(Name, Task)) {}
  ~Scope() { T.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  Span &span() { return T.Spans[Id]; }

private:
  Tracer &T;
  std::size_t Id;
};

/// Times every evaluation of the nest backend; installed through
/// RoundingOptions::Evaluator in the traced re-drive only.
class TimedNestEvaluator : public CostEvaluator {
public:
  mutable double Seconds = 0.0;
  mutable std::uint64_t Evals = 0, Legal = 0;

  const char *name() const override { return "nest"; }
  MultiProfile profile(const Problem &Prob, const Hierarchy &H,
                       const MultiMapping &Map) const override {
    return nestCostEvaluator().profile(Prob, H, Map);
  }
  MultiEvalResult evaluate(const Problem &Prob, const Hierarchy &H,
                           const MultiMapping &Map) const override {
    const auto T0 = Clock::now();
    MultiEvalResult R = nestCostEvaluator().evaluate(Prob, H, Map);
    Seconds += secondsSince(T0);
    ++Evals;
    Legal += R.Legal;
    return R;
  }
};

/// The winner of one re-driven layer sweep.
struct SweepWinner {
  bool Found = false;
  double Obj = 0.0;
  std::size_t QI = 0, SI = 0;
  RoundedDesign Design;
  std::uint64_t Tasks = 0, Infeasible = 0, Rounds = 0, RoundsFound = 0;
};

/// Re-drives one planned pair task through the public stage functions,
/// exactly as runPairTask does without a cache: build, solve with the
/// retry ladder, the halo-bound fallback, extract, round.
void redriveTask(const Problem &Prob, const LayerSweepPlan &Plan,
                 std::size_t TaskIdx, const ThistleOptions &Opts,
                 const ArchConfig &Arch, double Budget, std::uint64_t TaskId,
                 Tracer &T, const TimedNestEvaluator &Timed,
                 SweepWinner &Win) {
  Scope TaskSpan(T, "pair.task", TaskId);
  const PairTask &Task = Plan.Pairs[TaskIdx];
  GpBuildSpec Spec;
  Spec.Mode = Opts.Mode;
  Spec.Objective = Opts.Objective;
  Spec.PePerm = Plan.Classes[Task.QI].Representative;
  Spec.DramPerm = Plan.Classes[Task.SI].Representative;
  Spec.TiledIters = Plan.TiledIters;
  Spec.SpatialUntiled = Opts.SpatialUntiled;
  Spec.Arch = Arch;
  Spec.Tech = Tech;
  Spec.AreaBudgetUm2 = Budget;
  ++Win.Tasks;

  GpBuild Build;
  GpSolution Solution;
  auto BuildAndSolve = [&] {
    {
      Scope S(T, "gpbuilder.build", TaskId);
      Build = buildGp(Prob, Spec);
    }
    Scope S(T, "solver.solve", TaskId);
    Solution = solveGpWithRetry(Build.Gp, Opts.Solver);
    S.span().Newton = Solution.NewtonIterations;
    S.span().Infeasible = !Solution.Feasible ||
                          Solution.Outcome == SolveOutcome::NonFinite;
  };
  BuildAndSolve();
  if (!Solution.Feasible) {
    Spec.Halo = HaloBound::ProductOfTerms;
    BuildAndSolve();
  }
  if (!Solution.Feasible || Solution.Outcome == SolveOutcome::NonFinite) {
    ++Win.Infeasible;
    return;
  }
  RealSolution Real;
  {
    Scope S(T, "gpbuilder.extract", TaskId);
    Real = extractSolution(Prob, Build, Spec, Solution);
  }
  RoundingOptions RO = Opts.Rounding;
  RO.Evaluator = &Timed;
  RoundedDesign Design;
  {
    Scope S(T, "rounding.round", TaskId);
    const double Eval0 = Timed.Seconds;
    Design = roundSolution(Prob, Spec, Real, RO);
    S.span().EvalS = Timed.Seconds - Eval0;
  }
  ++Win.Rounds;
  if (!Design.Found)
    return;
  ++Win.RoundsFound;
  const double Obj = objectiveValue(Design.Eval, Opts.Objective);
  if (!Win.Found ||
      std::tie(Obj, Task.QI, Task.SI) < std::tie(Win.Obj, Win.QI, Win.SI)) {
    Win.Found = true;
    Win.Obj = Obj;
    Win.QI = Task.QI;
    Win.SI = Task.SI;
    Win.Design = std::move(Design);
  }
}

/// Re-drives one planned layer sweep task by task.
SweepWinner redriveSweep(const Problem &Prob, const LayerSweepPlan &Plan,
                         const ThistleOptions &Opts, const ArchConfig &Arch,
                         double Budget, std::uint64_t &NextTask, Tracer &T,
                         const TimedNestEvaluator &Timed) {
  SweepWinner Win;
  for (std::size_t I = 0; I < Plan.Pairs.size(); ++I)
    redriveTask(Prob, Plan, I, Opts, Arch, Budget, NextTask++, T, Timed, Win);
  return Win;
}

bool sameArch(const ArchConfig &A, const ArchConfig &B) {
  return A.NumPEs == B.NumPEs && A.RegWordsPerPE == B.RegWordsPerPE &&
         A.SramWords == B.SramWords;
}

bool sameDesign(const Problem &Prob, const SweepWinner &W, const Design &D) {
  return W.Found && W.Design.Eval.EnergyPj == D.Eval.EnergyPj &&
         W.Design.Eval.Cycles == D.Eval.Cycles &&
         sameArch(W.Design.Arch, D.Arch) &&
         W.Design.Map.toString(Prob) == D.Map.toString(Prob);
}

/// Totals of the traced re-drive.
struct Redrive {
  double TotalS = 0.0;
  std::uint64_t Tasks = 0, Phase2Tasks = 0, Rounds = 0, RoundsFound = 0;
  std::uint64_t Phase1Infeasible = 0, Phase2Infeasible = 0;

  void add(const SweepWinner &Win, bool Phase2) {
    Tasks += Win.Tasks;
    Rounds += Win.Rounds;
    RoundsFound += Win.RoundsFound;
    (Phase2 ? Phase2Infeasible : Phase1Infeasible) += Win.Infeasible;
    if (Phase2)
      Phase2Tasks += Win.Tasks;
  }
};

/// Re-drives a network answer at one thread: phase 1 over the unique
/// shapes and, in CoDesign mode, phase 2 once per candidate of the
/// untraced answer \p Batch. Every winner must match the untraced one.
Redrive redriveNetwork(const Workload &W, const BatchAnswer &Batch, Tracer &T,
                       const TimedNestEvaluator &Timed, Ledger &Log) {
  Redrive Out;
  const auto T0 = Clock::now();
  const NetworkResult &Net = *Batch.Net;
  ThistleOptions Opts;
  Opts.Mode = W.Mode;
  Opts.Threads = 1;
  const double Budget =
      W.Mode == DesignMode::CoDesign ? eyerissAreaUm2(Tech) : 0.0;

  // Unique shapes in first-occurrence order, the order of Batch.Designs.
  struct Shape {
    Problem Prob;
    std::size_t Multiplicity = 0;
    LayerSweepPlan Plan;
  };
  std::vector<Shape> Shapes;
  std::map<std::string, std::size_t> ByKey;
  for (const ConvLayer &L : W.Layers) {
    auto [It, New] = ByKey.emplace(shapeKey(L), Shapes.size());
    if (New)
      Shapes.push_back({makeConvProblem(L), 0, {}});
    ++Shapes[It->second].Multiplicity;
  }
  for (Shape &S : Shapes) {
    Scope Plan(T, "pairsweep.plan", NoParent);
    S.Plan = planLayerSweep(S.Prob, Opts);
  }
  auto CheckWinners = [&](const std::vector<SweepWinner> &Wins) {
    for (std::size_t S = 0; S < Shapes.size(); ++S)
      Log.check(sameDesign(Shapes[S].Prob, Wins[S], Batch.Designs[S]),
                "traced winner differs on " + Batch.Designs[S].Layer.Name);
  };

  std::uint64_t NextTask = 0;
  std::vector<SweepWinner> Phase1;
  for (Shape &S : Shapes) {
    Phase1.push_back(redriveSweep(S.Prob, S.Plan, Opts, eyerissArch(),
                                  Budget, NextTask, T, Timed));
    Out.add(Phase1.back(), /*Phase2=*/false);
  }
  if (W.Mode != DesignMode::CoDesign) {
    CheckWinners(Phase1);
    Out.TotalS = secondsSince(T0);
    return Out;
  }

  // Candidate architectures: the distinct phase-1 winners in shape order.
  std::vector<ArchConfig> Cands;
  for (const SweepWinner &Win : Phase1)
    if (Win.Found &&
        std::none_of(Cands.begin(), Cands.end(), [&](const ArchConfig &A) {
          return sameArch(A, Win.Design.Arch);
        }))
      Cands.push_back(Win.Design.Arch);
  Log.check(Cands.size() == Net.Candidates.size(),
            "traced phase 1 found a different candidate count");
  ThistleOptions Phase2 = Opts;
  Phase2.Mode = DesignMode::DataflowOnly;
  for (std::size_t C = 0; C < Cands.size() && C < Net.Candidates.size();
       ++C) {
    const NetworkArchCandidate &Want = Net.Candidates[C];
    Log.check(sameArch(Cands[C], Want.Arch),
              "traced candidate " + std::to_string(C) + " differs");
    double Summed = 0.0;
    bool All = true;
    std::vector<SweepWinner> Wins;
    for (Shape &S : Shapes) {
      Wins.push_back(redriveSweep(S.Prob, S.Plan, Phase2, Want.Arch, 0.0,
                                  NextTask, T, Timed));
      Out.add(Wins.back(), /*Phase2=*/true);
      if (Wins.back().Found)
        Summed += static_cast<double>(S.Multiplicity) *
                  objectiveValue(Wins.back().Design.Eval, Opts.Objective);
      else
        All = false;
    }
    Log.check(All == Want.AllLayersFound &&
                  (!All || Summed == Want.SummedObjective),
              "traced candidate " + std::to_string(C) + " scores differ");
    if (sameArch(Want.Arch, Net.Arch))
      CheckWinners(Wins);
  }
  Out.TotalS = secondsSince(T0);
  return Out;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Reports every failed check on stderr, prints the result line and
/// returns the exit code.
int finish(const Ledger &Log, const std::vector<Metric> &Metrics) {
  for (const std::string &P : Log.Problems)
    std::fprintf(stderr, "check failed: %s\n", P.c_str());
  std::string S = std::string("{\"correct\": ") +
                  (Log.Failed == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Log.Attempted) +
                  ", \"failed\": " + std::to_string(Log.Failed) +
                  ", \"metrics\": {";
  for (std::size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    S += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  std::printf("%s}}\n", S.c_str());
  return Log.Failed == 0 ? 0 : 1;
}

/// Writes the traced spans, one JSON object per line.
void dumpSpans(const std::string &Path, const Tracer &T,
               const std::vector<std::pair<double, double>> &Handled) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  for (const Span &S : T.Spans)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%lld,\"task\":%" PRIu64 "}\n",
                 S.Name, S.Start, S.End,
                 S.Parent == NoParent ? -1LL
                                      : static_cast<long long>(S.Parent),
                 S.Task);
  for (std::size_t I = 0; I < Handled.size(); ++I)
    std::fprintf(F,
                 "{\"name\":\"serve.handle\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":-1,\"task\":%zu}\n",
                 Handled[I].first, Handled[I].second, I);
  std::fclose(F);
}

/// Fills in codesign-net's cells from the warm-up answer: each unique
/// shape's answer under the network's architecture. Records the
/// codesign-net property. Returns whether every layer has a design.
bool prepareCells(Workload &W, const BatchAnswer &First, Ledger &Log) {
  if (W.ServesItsShapes) {
    for (const Design &D : First.Designs) {
      Cell C;
      C.Layer = D.Layer;
      C.Arch = First.Net->Arch;
      W.Cells.push_back(C);
    }
    // Phase 1 co-designs the architecture under the area budget and
    // proves nothing infeasible on this slice (the traced run checks
    // it), so every infeasible task is a phase-2 one.
    W.PropertyShare = First.Phase2Tasks
                          ? static_cast<double>(First.Infeasible) /
                                static_cast<double>(First.Phase2Tasks)
                          : 0.0;
    Log.check(W.PropertyShare > 0.0,
              "no phase-2 pair task proved its architecture infeasible");
  }
  Log.check(First.LayersMissing == 0, "a layer has no design");
  return First.LayersMissing == 0;
}

struct Args {
  std::string Workload, WorkDir;
  std::uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
};

std::optional<Args> parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--workdir") {
      A.WorkDir = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (!End || *End != '\0' || !(A.Seconds > 0.0))
        return std::nullopt;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return std::nullopt;
      A.Trace = Value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (Argc % 2 == 0 || !HaveSeed || A.Seconds <= 0.0 || A.WorkDir.empty())
    return std::nullopt;
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  std::optional<Args> A = parseArgs(Argc, Argv);
  if (!A) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  const auto RunStart = Clock::now();
  std::mt19937_64 Rng(A->Seed);
  Workload W;
  if (A->Workload == "dataflow-nets")
    W = dataflowNets(Rng);
  else if (A->Workload == "codesign-net")
    W = codesignNet();
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", A->Workload.c_str());
    return 2;
  }
  const unsigned Threads = hostThreads();
  std::printf("host: {\"nproc\": %u, \"simd\": \"%s\", \"build_type\": "
              "\"%s\", \"telemetry\": %s, \"fault_injection\": %s}\n",
              Threads, kernels::backendName(), PERFBENCH_BUILD_TYPE,
              telemetry::compiledIn() ? "true" : "false",
              fault::enabled() ? "true" : "false");
  std::filesystem::create_directories(A->WorkDir);
  Ledger Log;

  // An untimed warm-up answer at nproc threads fixes the cells and the
  // answers the served ones must equal, and gives the program's peak
  // resident set (the harness's own buffers come later). Then every CPU
  // makes a 1-thread answer and serves by itself until the run's seconds
  // are spent (onEveryCpu). The traced run instead times two more nproc
  // answers, makes the 1-thread answers and serves through serveRound.
  std::vector<BatchAnswer> Answers;
  Answers.push_back(warmUp(W, Threads, Log));
  const double PeakRss = peakRssMiB();
  if (!prepareCells(W, Answers.front(), Log))
    return finish(Log, {});
  const std::vector<Design> Expected =
      expectedAnswers(W, Answers.front(), Threads, Log);
  const std::vector<std::string> Lines = requestLines(W);
  ServeTotals Srv;
  double BestN = 1e300, Best1 = 1e300;
  unsigned Best1Cpu = 0;
  for (int I = 0; A->Trace && I < 2; ++I) {
    Answers.push_back(answerNetwork(W, Threads));
    BestN = std::min(BestN, Answers.back().Seconds);
  }
  auto Account = [&](const Session &S) {
    Log.check(S.Ok, "serve engine failed to start or to answer a ping");
    Srv.Setups.insert(Srv.Setups.end(), S.SetupS.begin(), S.SetupS.end());
    std::vector<Sample> Cold, Hot, Unused;
    accountReplies(Lines, Expected, S.Cold, /*Replay=*/false, Log, Srv, Cold,
                   Unused);
    accountReplies(Lines, Expected, S.Replay, /*Replay=*/true, Log, Srv,
                   Unused, Hot);
    Log.check(Cold.size() == W.Cells.size(),
              "a cold-pass reply did not miss the cache");
    Srv.ColdBest.resize(W.Cells.size(), 1e300);
    for (const Reply &R : S.Cold)
      Srv.ColdBest[R.CellIdx] = std::min(Srv.ColdBest[R.CellIdx], R.ms());
    Srv.ColdSamples += Cold.size();
    Srv.ColdSolves += Cold.size();
    Srv.HotSamples += Hot.size();
    if (std::optional<double> P50 = quantile(Hot, 0.50))
      Srv.HotP50.push_back(*P50);
    else
      Log.check(false, "too few samples for hot_p50_ms");
  };
  const auto Deadline =
      A->Trace ? Clock::now()
               : RunStart + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(A->Seconds));
  const std::vector<BatchAnswer> Ones =
      onEveryCpu(W, &Lines, replayStream(W, 400, Rng), A->WorkDir + "/serve",
                 Deadline, Account);
  for (unsigned Cpu = 0; Cpu < Ones.size(); ++Cpu) {
    if (Ones[Cpu].Seconds < Best1) {
      Best1 = Ones[Cpu].Seconds;
      Best1Cpu = Cpu;
    }
    Answers.push_back(Ones[Cpu]);
  }
  // The traced run's multi-client round keeps its own totals: its engine's
  // reports name a different worker count than the sessions'.
  ServeTotals Round;
  if (A->Trace)
    serveRound(W, Expected, A->WorkDir + "/serve", Rng, Log, Round);
  BatchAnswer &First = Answers.front();
  for (const BatchAnswer &B : Answers) {
    Log.ops(B.Tasks, B.BadTasks, "pair tasks failed, degraded or skipped");
    Log.ops(B.Layers, B.LayersMissing, "layers without a design");
    Log.check(B.Canon == First.Canon,
              "answers differ between calls, thread counts or counters");
  }
  checkMaestro(First, Log);
  const double HotShare = Srv.ReplayTotal
                              ? static_cast<double>(Srv.ReplayHot) /
                                    static_cast<double>(Srv.ReplayTotal)
                              : 0.0;
  std::printf("workload: {\"name\": \"%s\", \"seed\": %" PRIu64
              ", \"property\": \"%s\", \"share\": %.6f, "
              "\"replay_hot_share\": %.6f, \"layers\": %zu, "
              "\"cells\": %zu, \"answers\": %zu, \"sessions\": %zu, "
              "\"cold_samples\": %" PRIu64 ", \"cold_solves\": %" PRIu64
              ", \"hot_samples\": %" PRIu64 "}\n",
              W.Name.c_str(), A->Seed, W.Property.c_str(), W.PropertyShare,
              HotShare, W.Layers.size(), W.Cells.size(), Answers.size(),
              Srv.HotP50.size(), Srv.ColdSamples, Srv.ColdSolves,
              Srv.HotSamples);

  std::vector<Metric> Metrics;
  auto Fastest = [](const std::vector<double> &V) {
    return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
  };
  const double ColdMean =
      Srv.ColdBest.empty()
          ? 0.0
          : std::accumulate(Srv.ColdBest.begin(), Srv.ColdBest.end(), 0.0) /
                static_cast<double>(Srv.ColdBest.size());
  if (!A->Trace) {
    Metrics = {
        {"newton_iters", static_cast<double>(First.Newton), "count"},
        {"cost_evals", static_cast<double>(First.CostEvals), "count"},
        {"design_pj_per_mac",
         First.Macs ? First.EnergyPj / static_cast<double>(First.Macs) : 0.0,
         "pJ/MAC"},
        {"design_mcycles", First.Cycles / 1e6, "Mcycles"},
        {"hot_p50_ms", Fastest(Srv.HotP50), "ms"},
        {"setup_s", median(Srv.Setups), "s"},
        {"peak_rss_mb", PeakRss, "MiB"},
    };
  } else {
    // The traced run: its first timed nproc answer gives the pool's
    // efficiency; then, alone on the CPU of the fastest 1-thread answer,
    // an untraced 1-thread answer gives the overhead baseline and the
    // re-drive goes through the stage functions.
    const BatchAnswer &NAnswer = Answers[1];
    const double Efficiency =
        NAnswer.CpuSeconds / (NAnswer.Seconds * static_cast<double>(Threads));
    Tracer T;
    TimedNestEvaluator Timed;
    PinnedToCpu Pin(Best1Cpu);
    const BatchAnswer Baseline = answerNetwork(W, 1);
    Log.check(Baseline.Canon == First.Canon,
              "answers differ between calls or thread counts");
    Redrive R = redriveNetwork(W, First, T, Timed, Log);
    dumpSpans((std::filesystem::path(A->WorkDir).parent_path() /
               ("perfbench-trace-" + W.Name + ".jsonl"))
                  .string(),
              T, Round.Handled);
    if (W.Mode == DesignMode::CoDesign)
      Log.check(R.Phase1Infeasible == 0 &&
                    R.Phase2Infeasible == First.Infeasible,
                "infeasible tasks fall outside phase 2 or differ from the "
                "untraced answer");

    std::map<std::string, double> Self;
    double Named = 0.0, InfeasibleS = 0.0, FeasibleS = 0.0;
    std::uint64_t Builds = 0, Solves = 0, InfeasibleSolves = 0;
    std::uint64_t NewtonFeasible = 0, NewtonInfeasible = 0;
    for (const Span &S : T.Spans) {
      const std::string Name = S.Name;
      const double Own = T.selfSeconds(S);
      Self[Name] += Own;
      if (Name != "pair.task")
        Named += Own;
      if (Name == "rounding.round")
        Named += S.EvalS;
      if (Name == "gpbuilder.build")
        ++Builds;
      if (Name == "solver.solve") {
        ++Solves;
        if (S.Infeasible) {
          ++InfeasibleSolves;
          InfeasibleS += Own;
          NewtonInfeasible += S.Newton;
        } else {
          FeasibleS += Own;
          NewtonFeasible += S.Newton;
        }
      }
    }
    auto Ratio = [](double Num, double Den) {
      return Den > 0.0 ? Num / Den : 0.0;
    };
    const double FeasibleSolves =
        static_cast<double>(Solves - InfeasibleSolves);
    std::vector<double> HotEngine = Round.HotEngineMs;
    Metrics = {
        {"solver.infeasible_s", InfeasibleS, "s"},
        {"solver.infeasible_solves", static_cast<double>(InfeasibleSolves),
         "count"},
        {"solver.newton_per_infeasible",
         Ratio(static_cast<double>(NewtonInfeasible),
               static_cast<double>(InfeasibleSolves)),
         "count"},
        {"solver.solve_s", FeasibleS, "s"},
        {"solver.solves", FeasibleSolves, "count"},
        {"solver.newton_per_feasible",
         Ratio(static_cast<double>(NewtonFeasible), FeasibleSolves), "count"},
        {"solver.us_per_newton",
         1e6 * Ratio(FeasibleS + InfeasibleS,
                     static_cast<double>(NewtonFeasible + NewtonInfeasible)),
         "us"},
        {"gpbuilder.build_s", Self["gpbuilder.build"], "s"},
        {"gpbuilder.builds", static_cast<double>(Builds), "count"},
        {"gpbuilder.extract_s", Self["gpbuilder.extract"], "s"},
        {"rounding.self_s", Self["rounding.round"], "s"},
        {"rounding.found_ratio",
         Ratio(static_cast<double>(R.RoundsFound),
               static_cast<double>(R.Rounds)),
         "ratio"},
        {"nestmodel.eval_s", Timed.Seconds, "s"},
        {"nestmodel.evals", static_cast<double>(Timed.Evals), "count"},
        {"nestmodel.us_per_eval",
         1e6 * Ratio(Timed.Seconds, static_cast<double>(Timed.Evals)), "us"},
        {"nestmodel.legal_ratio",
         Ratio(static_cast<double>(Timed.Legal),
               static_cast<double>(Timed.Evals)),
         "ratio"},
        {"pairsweep.plan_s", Self["pairsweep.plan"], "s"},
        {"pairsweep.task_glue_s", Self["pair.task"], "s"},
        {"network.tasks", static_cast<double>(R.Tasks), "count"},
        {"network.phase2_share",
         Ratio(static_cast<double>(R.Phase2Tasks),
               static_cast<double>(R.Tasks)),
         "ratio"},
        {"gpcache.hit_ratio",
         Ratio(static_cast<double>(Round.ReplayHits),
               static_cast<double>(Round.ReplayHits + Round.ReplayMisses)),
         "ratio"},
        {"gpcache.load_s", median(Round.Loads), "s"},
        {"gpcache.entries", static_cast<double>(Round.Entries), "count"},
        {"serve.cold_mean_ms", ColdMean, "ms"},
        {"serve.cold_p90_ms", Fastest(Round.ColdP90), "ms"},
        {"serve.hot_p99_ms", Fastest(Round.HotP99), "ms"},
        {"serve.qps",
         Round.Qps.empty()
             ? 0.0
             : *std::max_element(Round.Qps.begin(), Round.Qps.end()),
         "1/s"},
        {"serve.engine_hot_ms", median(HotEngine), "ms"},
        {"serve.queue_depth",
         Ratio(Round.QueueDepthSum, static_cast<double>(Round.ReplayTotal)),
         "count"},
        {"serve.dedup_ratio",
         Ratio(static_cast<double>(Round.Dedup),
               static_cast<double>(Round.Queries)),
         "ratio"},
        {"network.solve_s", BestN, "s"},
        {"network.solve_1t_s", Best1, "s"},
        {"threadpool.efficiency", Efficiency, "ratio"},
        {"trace.total_s", R.TotalS, "s"},
        {"trace.untraced_1t_s", Baseline.Seconds, "s"},
        {"trace.overhead_s", R.TotalS - Baseline.Seconds, "s"},
        {"trace.named_share", Ratio(Named, R.TotalS), "ratio"},
        {"workload.property_share", W.PropertyShare, "ratio"},
    };
  }
  std::filesystem::remove_all(A->WorkDir);
  return finish(Log, Metrics);
}
