//===- tools/thistle-opt.cpp - Command-line design optimizer --------------===//
//
// The command-line front end of the library: optimize a conv layer's
// dataflow for a fixed accelerator, or co-design the accelerator and the
// dataflow together, for energy, delay or EDP, and optionally emit the
// resulting Timeloop-style YAML specifications. The flags build a Job
// that runJob (thistle/Job.h) runs, as thistle-serve's queries do; this
// file parses, prints and owns the --cache-dir session.
//
// Examples:
//   thistle-opt --resnet 2
//   thistle-opt --layer 64,64,56,56,3,3 --objective delay
//   thistle-opt --yolo 7 --mode codesign --export-timeloop
//   thistle-opt --layer 128,128,28,28,3,3,2 --pes 256 --regs 64
//       --sram-words 16384   (one line)
//
//===----------------------------------------------------------------------===//

#include "export/TimeloopExport.h"
#include "ir/Builders.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/Mapper.h"
#include "support/FaultInjection.h"
#include "support/RunReport.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"
#include "thistle/GpCache.h"
#include "thistle/Job.h"
#include "workloads/Workloads.h"

#include "FlagTable.h"
#include "NumericFlag.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

using namespace thistle;

namespace {

const FlagSpec WorkloadFlags[] = {
    {"--layer", "K,C,H,W,R,S[,stride[,dilation]]",
     "custom conv2d layer; every field is\n"
     "validated (positive strides/dilations,\n"
     "divisible groups) before the sweep"},
    {"--groups", "N",
     "channel groups for --layer (K and C\n"
     "must divide by N; N == C is a\n"
     "depthwise layer; docs/WORKLOADS.md)"},
    {"--transposed", "",
     "make --layer a transposed\n"
     "(fractionally-strided) conv: h/w walk\n"
     "the input image and Out carries the\n"
     "strided projection; output is the full\n"
     "stride*(H-1)+dilation*(R-1)+1 extent"},
    {"--padding", "same|valid",
     "output-shape rule for --layer\n"
     "(default: same, Table II's\n"
     "ceil(H/stride); valid needs the\n"
     "dilated kernel to fit)"},
    {"--resnet", "N", "ResNet-18 conv stage N (1-12, Table II)"},
    {"--yolo", "N", "Yolo-9000 conv stage N (1-11, Table II)"},
    {"--pipeline", "resnet|yolo|all",
     "optimize every stage, print a summary"},
    {"--network", "resnet18|yolo9000|mobilenetv2|dcgan|all",
     "optimize the full conv pipeline with the\n"
     "network driver: repeated shapes are solved\n"
     "once, GP solutions are cached across runs\n"
     "(disable with THISTLE_CACHE=off), and in\n"
     "codesign mode one architecture is selected\n"
     "for the whole network (docs/THISTLE_OPT.md).\n"
     "mobilenetv2 exercises depthwise/grouped\n"
     "stages, dcgan transposed and dilated ones\n"
     "(docs/WORKLOADS.md); all = resnet18+yolo9000"},
};

const FlagSpec OptimizationFlags[] = {
    {"--mode", "dataflow|codesign", "(default: dataflow)"},
    {"--objective", "energy|delay|edp", "(default: energy)"},
    {"--candidates", "N", "rounding width n, 1-64 (default: 2)"},
    {"--threads", "N",
     "worker threads for the pair sweep,\n"
     "0-1024 (default and 0: all hardware\n"
     "threads; results are identical at any N)"},
    {"--deadline-ms", "N",
     "wall-clock budget for the sweep;\n"
     "pairs starting after it are skipped\n"
     "and the best completed design is\n"
     "returned (exit code 1)"},
    {"--hierarchy", "classic3|spad4|<file>",
     "memory hierarchy to optimize for\n"
     "(default: classic3, the fixed\n"
     "reg/SRAM/DRAM machine). spad4 adds\n"
     "a per-PE scratchpad; a file holds\n"
     "'pes/mac-pj/fanout/level' lines\n"
     "(see docs/HIERARCHY.md). Every depth\n"
     "runs the same sweep; a non-classic\n"
     "machine's winner is validated with\n"
     "the stochastic mapper."},
    {"--evaluator", "nest|maestro|both",
     "cost-model backend scoring the\n"
     "candidates (default: nest, the\n"
     "Algorithm-1 nest walk). maestro is\n"
     "the data-centric reuse model; both\n"
     "scores with nest while cross-checking\n"
     "maestro on every evaluation and\n"
     "reports any divergence — the counts\n"
     "must agree exactly (docs/EVALUATOR.md)"},
};

const FlagSpec ArchitectureFlags[] = {
    {"--pes", "N", "PE count (default: Eyeriss, 168)"},
    {"--regs", "N", "register words per PE (default: 512)"},
    {"--sram-words", "N", "shared SRAM words (default: 65536)"},
    {"--area-budget", "UM2", "co-design area, > 0 (default: Eyeriss)"},
};

const FlagSpec PersistenceFlags[] = {
    {"--cache-dir", "DIR",
     "durable GP solution cache: load any\n"
     "snapshot/journal found in DIR, append\n"
     "every new solution at task granularity\n"
     "(survives SIGKILL), compact to a\n"
     "snapshot on exit. Damaged files are\n"
     "detected (CRC), reported and skipped —\n"
     "the run degrades to a cold start.\n"
     "THISTLE_CACHE_DIR is the env form;\n"
     "the flag wins (docs/PERSISTENCE.md)"},
    {"--resume", "DIR",
     "alias of --cache-dir: rerun the same\n"
     "command after a crash and completed\n"
     "tasks replay from the checkpoint,\n"
     "bit-identically to an uninterrupted run"},
    {"--cache-capacity", "N",
     "bound the in-memory cache to N entries\n"
     "(LRU eviction; default 0 = unbounded)"},
    {"--shard", "I/N",
     "solve only slice I of N (1-based) of\n"
     "the deterministic task-grid partition;\n"
     "each shard checkpoints to its own\n"
     "cache segment and report in DIR"},
    {"--merge-shards", "",
     "recombine the shard segments in DIR\n"
     "into the full-network result, bit-\n"
     "identical to a single-process run"},
};

const FlagSpec OutputFlags[] = {
    {"--export-timeloop", "", "emit Timeloop-style YAML specs"},
    {"--help", "", "print this usage table (also -h)"},
};

const FlagSpec ObservabilityFlags[] = {
    {"--metrics", "",
     "collect named counters/statistics\n"
     "and print them after the run"},
    {"--profile", "",
     "additionally record trace spans and\n"
     "print a per-span timing summary"},
    {"--trace-json", "FILE",
     "write the schema-versioned JSON run\n"
     "report (thistle-run-report/1) with\n"
     "the full span trace to FILE"},
};

const FlagGroup UsageGroups[] = {
    {"workload (choose one):", WorkloadFlags, std::size(WorkloadFlags)},
    {"optimization:", OptimizationFlags, std::size(OptimizationFlags)},
    {"architecture (dataflow mode; defaults to Eyeriss):",
     ArchitectureFlags, std::size(ArchitectureFlags)},
    {"persistence (--network runs; see docs/PERSISTENCE.md):",
     PersistenceFlags, std::size(PersistenceFlags)},
    {"output:", OutputFlags, std::size(OutputFlags)},
    {"observability (see docs/OBSERVABILITY.md; all off by default, and\n"
     "the optimization result is bit-identical either way):",
     ObservabilityFlags, std::size(ObservabilityFlags)},
};

void printUsage(const char *Prog) {
  printFlagTable(Prog, UsageGroups);
  std::printf(
      "\nexit codes:\n"
      "  0  success (clean sweep)\n"
      "  1  partial/degraded: a design was found but some GP pairs were\n"
      "     lost (solver failure, deadline), or a --network run found\n"
      "     designs for only some layers\n"
      "  2  invalid input (bad flags, malformed hierarchy file, bad spec)\n"
      "  3  no feasible design found (--network: for any layer)\n");
}

/// Parses "a,b,c,..." into non-negative integers; returns false on
/// malformed or out-of-range input.
bool parseInts(const char *Text, std::vector<std::int64_t> &Out) {
  Out.clear();
  std::string_view Rest = Text;
  for (;;) {
    std::size_t Comma = Rest.find(',');
    long long V = 0;
    if (!parseIntToken(Rest.substr(0, Comma), 0, MaxFlagCount, V))
      return false;
    Out.push_back(V);
    if (Comma == std::string_view::npos)
      return true;
    Rest.remove_prefix(Comma + 1);
  }
}

/// Prints the failure-summary table of a sweep: a note for an empty
/// sweep, the table of a degraded one, nothing for a clean one.
void printSweepSummary(const SweepReport &Report) {
  if (Report.total() == 0) {
    // An empty sweep must say so; a silent summary reads as success.
    std::printf("\nsweep empty: %s\n", Report.toString("pair").c_str());
    return;
  }
  if (Report.clean())
    return;
  std::printf("\nsweep degraded: %u pair(s) solved (%u retried), %u degraded, "
              "%u infeasible, %u failed, %u skipped%s\n",
              Report.Solved, Report.Retried, Report.Degraded,
              Report.Infeasible, Report.Failed, Report.Skipped,
              Report.DeadlineExpired ? " [deadline expired]" : "");
  TablePrinter Table({"pair", "coords", "outcome", "attempts", "detail"});
  for (const SweepIncident &I : Report.Incidents) {
    if (I.Outcome == TaskOutcome::Infeasible)
      continue; // Infeasible pairs are an expected model property.
    Table.addRow({TablePrinter::formatInt(static_cast<std::int64_t>(I.Index)),
                  "(" + std::to_string(I.A) + "," + std::to_string(I.B) + ")",
                  taskOutcomeName(I.Outcome),
                  TablePrinter::formatInt(I.Attempts), I.Detail});
  }
  Table.print(std::cout);
}

void printArchitecture(const ArchConfig &Arch) {
  std::printf("architecture: P=%lld PEs, R=%lld regs/PE, S=%lld SRAM "
              "words (area %.3f mm^2)\n",
              static_cast<long long>(Arch.NumPEs),
              static_cast<long long>(Arch.RegWordsPerPE),
              static_cast<long long>(Arch.SramWords),
              Arch.areaUm2(TechParams::cgo45nm()) * 1e-6);
}

/// A single layer on the classic machine: the design, its mapping and,
/// with --export-timeloop, the Timeloop-style YAML.
void printLayer(const Problem &Prob, const ThistleResult &R, unsigned Threads,
                bool ExportTimeloop) {
  std::printf("\n");
  printArchitecture(R.Arch);
  std::printf("energy: %.1f uJ (%.3f pJ/MAC)\n", R.Eval.EnergyPj * 1e-6,
              R.Eval.EnergyPerMacPj);
  std::printf("delay:  %.0f cycles (IPC %.1f), EDP %.4g pJ*cycles\n",
              R.Eval.Cycles, R.Eval.MacIpc, R.Eval.EdpPjCycles);
  std::printf("energy breakdown [pJ]: mac+reg %.4g, RF fills %.4g, SRAM "
              "%.4g, DRAM %.4g\n",
              R.Eval.MacEnergyPj, R.Eval.RegEnergyPj, R.Eval.SramEnergyPj,
              R.Eval.DramEnergyPj);
  std::printf("mapping:\n%s", R.Map.toString(Prob).c_str());
  std::printf("search: %u GP solves, %u Newton iterations, %zu integer "
              "candidates (%u worker threads)\n",
              R.Stats.PairsSolved, R.Stats.NewtonIterations,
              R.Stats.CandidatesEvaluated, Threads);
  if (ExportTimeloop) {
    std::printf("\n# ---- Timeloop architecture spec ----\n%s",
                exportTimeloopArch(R.Arch, TechParams::cgo45nm()).c_str());
    std::printf("\n# ---- Timeloop problem spec ----\n%s",
                exportTimeloopProblem(Prob).c_str());
    std::printf("\n# ---- Timeloop mapping spec ----\n%s",
                exportTimeloopMapping(Prob, R.Map).c_str());
  }
}

void printHierarchyMachine(const Hierarchy &H) {
  std::printf("hierarchy: %lld PEs, fan-out below level %u\n",
              static_cast<long long>(H.NumPEs), H.FanoutLevel);
  for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv) {
    const HierarchyLevel &L = H.Levels[Lv];
    if (L.CapacityWords > 0)
      std::printf("  level %u %-14s %8lld words  %7.3f pJ/word  BW %g\n",
                  Lv, L.Name.c_str(),
                  static_cast<long long>(L.CapacityWords), L.AccessEnergyPj,
                  L.Bandwidth);
    else
      std::printf("  level %u %-14s %8s        %7.3f pJ/word  BW %g\n", Lv,
                  L.Name.c_str(), "-", L.AccessEnergyPj, L.Bandwidth);
  }
  std::printf("  area %.3f mm^2\n", H.areaUm2(TechParams::cgo45nm()) * 1e-6);
}

/// An L-level design, cross-checked with the stochastic mapper on the
/// same machine: the GP winner should land within, or ahead of, the
/// sampled population.
void printHierarchyDesign(const Job &J, const Problem &Prob,
                          const Hierarchy &H, const RoundedHierarchyDesign &R) {
  std::printf("\nenergy: %.1f uJ (%.3f pJ/MAC)\n", R.Eval.EnergyPj * 1e-6,
              R.Eval.EnergyPerMacPj);
  std::printf("delay:  %.0f cycles (IPC %.1f), EDP %.4g pJ*cycles\n",
              R.Eval.Cycles, R.Eval.MacIpc, R.Eval.EdpPjCycles);
  std::printf("energy breakdown [pJ]: mac+reg %.4g", R.Eval.MacEnergyPj);
  for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv)
    std::printf(", %s %.4g", H.Levels[Lv].Name.c_str(),
                R.Eval.EnergyPerLevelPj[Lv]);
  std::printf("\ncycle components:");
  std::printf(" compute %.0f", R.Eval.ComputeCycles);
  for (unsigned Lv = 1; Lv < H.numLevels(); ++Lv)
    std::printf(", %s %.0f", H.Levels[Lv].Name.c_str(),
                R.Eval.CyclesPerLevel[Lv]);
  std::printf("\nmapping (factors per iterator, innermost level first):\n");
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    std::printf("  %-5s", Prob.iterators()[I].Name.c_str());
    for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv) {
      std::printf(" t%u=%-4lld", Lv,
                  static_cast<long long>(R.Map.TempFactors[Lv][I]));
      if (Lv + 1 == H.FanoutLevel)
        std::printf(" sp=%-4lld",
                    static_cast<long long>(R.Map.SpatialFactors[I]));
    }
    std::printf("\n");
  }

  const ThistleOptions &Options = J.Options;
  MapperOptions MapOpt;
  MapOpt.Objective = Options.Objective;
  MapOpt.Threads = Options.Threads;
  MapOpt.MaxTrials = 4000;
  MapOpt.VictoryCondition = 1000;
  MapOpt.Deadline = Options.Deadline;
  MapOpt.Evaluator = Options.Rounding.Evaluator;
  MultiMapperResult MR = searchMultiMappings(Prob, H, MapOpt);
  if (MR.Found) {
    double GpObj = objectiveValue(R.Eval, Options.Objective);
    double MapObj = objectiveValue(MR.BestEval, Options.Objective);
    std::printf("mapper validation: best of %u trials (%u legal) reaches "
                "%.4g vs GP %.4g (ratio %.3f)%s\n",
                MR.Trials, MR.LegalTrials, MapObj, GpObj,
                GpObj > 0.0 ? MapObj / GpObj : 0.0,
                MR.DeadlineExpired ? " [deadline expired]" : "");
  } else {
    std::printf("mapper validation: no legal mapping in %u trials\n",
                MR.Trials);
  }
}

/// One pipeline stage's summary row.
void printPipelineStage(const ConvLayer &Layer, const ThistleResult &L) {
  if (!L.Found) {
    std::printf("%-11s %10s\n", Layer.Name.c_str(), "-");
    return;
  }
  std::printf("%-11s %10.2f %9.1f %9.0f %6lld %5lld %9lld\n",
              Layer.Name.c_str(), L.Eval.EnergyPerMacPj, L.Eval.MacIpc,
              L.Eval.Cycles * 1e-3, static_cast<long long>(L.Arch.NumPEs),
              static_cast<long long>(L.Arch.RegWordsPerPE),
              static_cast<long long>(L.Arch.SramWords));
}

/// The per-layer table and the network totals.
void printNetwork(const NetworkResult &R, bool UseCache) {
  std::printf("%-13s %10s %9s %9s %6s\n", "layer", "pJ/MAC", "IPC",
              "cycles(K)", "dedup");
  for (const NetworkLayerResult &L : R.Layers) {
    if (L.Result.Found)
      std::printf("%-13s %10.2f %9.1f %9.0f %6s\n", L.Name.c_str(),
                  L.Result.Eval.EnergyPerMacPj, L.Result.Eval.MacIpc,
                  L.Result.Eval.Cycles * 1e-3, L.Deduplicated ? "=" : "");
    else
      std::printf("%-13s %10s %9s %9s %6s\n", L.Name.c_str(), "-", "-", "-",
                  L.Deduplicated ? "=" : "");
  }
  std::printf("network: %zu layers, %zu unique shapes",
              R.Stats.LayersTotal, R.Stats.UniqueShapes);
  if (R.Stats.ArchCandidates)
    std::printf(", %u arch candidate(s)", R.Stats.ArchCandidates);
  std::printf("\n");
  printArchitecture(R.Arch);
  std::string Partial;
  if (!R.Found)
    Partial = " (partial: " + std::to_string(R.LayersFound) + "/" +
              std::to_string(R.Stats.LayersTotal) + " layers)";
  std::printf("network totals: %.1f uJ (%.3f pJ/MAC), %.0f Kcycles, "
              "EDP %.4g pJ*cycles%s\n",
              R.Totals.EnergyPj * 1e-6, R.Totals.EnergyPerMacPj,
              R.Totals.Cycles * 1e-3, R.Totals.EdpPjCycles,
              Partial.c_str());
  if (UseCache)
    std::printf("cache: %llu hits, %llu misses "
                "(THISTLE_CACHE=off disables)\n",
                static_cast<unsigned long long>(R.Stats.CacheHits),
                static_cast<unsigned long long>(R.Stats.CacheMisses));
}

} // namespace

int main(int Argc, char **Argv) {
  // Invalid input: exit 2 before any work, naming what was wrong.
  auto fail = [](const std::string &Message) {
    std::fprintf(stderr, "error: %s\n", Message.c_str());
    return 2;
  };
  // THISTLE_FAULT=site[:key[:maxhits]] arms the deterministic fault
  // hooks (testing only; a no-op unless compiled in and set).
  if (std::string FaultErr = fault::armFromEnv(); !FaultErr.empty())
    return fail("THISTLE_FAULT: " + FaultErr);
  Job J;
  ConvLayer Layer;
  bool HaveLayer = false;
  std::optional<std::int64_t> LayerGroups;
  bool LayerTransposed = false;
  std::optional<ConvPadding> LayerPadding;
  std::vector<ConvLayer> Pipeline;
  std::vector<ConvLayer> Network;
  std::string NetworkName;
  bool ExportTimeloop = false;
  const char *ArchFlag = nullptr; // The last --pes/--regs/--sram-words.
  std::string EvaluatorName = "nest";
  std::string PipelineName;
  std::string TraceJsonPath;
  bool WantMetrics = false;
  bool WantProfile = false;
  std::string CacheDir; // Durable state of a --network run; empty: none.
  std::uint64_t CacheCapacity = 0;
  bool HaveCapacity = false;
  bool MergeShards = false;

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
    } else if (Arg == "--layer") {
      std::vector<std::int64_t> V;
      if (!parseInts(needValue(), V) || V.size() < 6 || V.size() > 8)
        return fail("--layer wants K,C,H,W,R,S[,stride[,dilation]]");
      Layer = customConvLayer(V);
      HaveLayer = true;
    } else if (Arg == "--groups") {
      std::vector<std::int64_t> V;
      if (!parseInts(needValue(), V) || V.size() != 1)
        return fail("--groups wants one integer");
      LayerGroups = V[0];
    } else if (Arg == "--transposed") {
      LayerTransposed = true;
    } else if (Arg == "--padding") {
      Expected<ConvPadding> P = parsePadding(needValue());
      if (!P)
        return fail(P.status().toString());
      LayerPadding = P.value();
    } else if (Arg == "--resnet" || Arg == "--yolo") {
      std::vector<ConvLayer> Layers =
          Arg == "--resnet" ? resnet18Layers() : yolo9000Layers();
      long long N = parseIntFlag(Arg.c_str(), needValue(), 1,
                                 static_cast<long long>(Layers.size()));
      Layer = Layers[static_cast<std::size_t>(N - 1)];
      HaveLayer = true;
    } else if (Arg == "--pipeline") {
      std::string V = needValue();
      if (V == "resnet")
        Pipeline = resnet18Layers();
      else if (V == "yolo")
        Pipeline = yolo9000Layers();
      else if (V == "all")
        Pipeline = allPaperLayers();
      else
        return fail("unknown pipeline '" + V + "'");
      PipelineName = V;
    } else if (Arg == "--network") {
      std::string V = needValue();
      if (!networkLayersByName(V, Network))
        return fail("unknown network '" + V + "'");
      NetworkName = V;
    } else if (Arg == "--mode") {
      std::string V = needValue();
      if (!parseMode(V, J.Options.Mode))
        return fail("unknown mode '" + V + "'");
    } else if (Arg == "--objective") {
      std::string V = needValue();
      if (!parseObjective(V, J.Options.Objective))
        return fail("unknown objective '" + V + "'");
    } else if (Arg == "--candidates") {
      J.Options.Rounding.NumCandidates = static_cast<unsigned>(parseIntFlag(
          "--candidates", needValue(), 1, MaxRoundingCandidates));
    } else if (Arg == "--threads") {
      J.Options.Threads = static_cast<unsigned>(
          parseIntFlag("--threads", needValue(), 0, MaxThreads));
    } else if (Arg == "--deadline-ms") {
      J.Options.Deadline = std::chrono::milliseconds(
          parseIntFlag("--deadline-ms", needValue(), 1, MaxFlagCount));
    } else if (Arg == "--hierarchy") {
      J.HierarchySpec = needValue();
    } else if (Arg == "--evaluator") {
      EvaluatorName = needValue();
    } else if (Arg == "--pes") {
      J.Arch.NumPEs = parseIntFlag("--pes", needValue(), 1, MaxFlagCount);
      ArchFlag = "--pes";
    } else if (Arg == "--regs") {
      J.Arch.RegWordsPerPE =
          parseIntFlag("--regs", needValue(), 1, MaxFlagCount);
      ArchFlag = "--regs";
    } else if (Arg == "--sram-words") {
      J.Arch.SramWords =
          parseIntFlag("--sram-words", needValue(), 1, MaxFlagCount);
      ArchFlag = "--sram-words";
    } else if (Arg == "--area-budget") {
      J.AreaBudget = parsePositiveFlag("--area-budget", needValue());
    } else if (Arg == "--cache-dir" || Arg == "--resume") {
      CacheDir = needValue();
      if (CacheDir.empty())
        return fail(Arg + " wants a directory");
    } else if (Arg == "--cache-capacity") {
      CacheCapacity = static_cast<std::uint64_t>(
          parseIntFlag("--cache-capacity", needValue(), 0, MaxFlagCount));
      HaveCapacity = true;
    } else if (Arg == "--shard") {
      std::string_view V = needValue();
      std::size_t Slash = V.find('/');
      long long I = 0, N = 0;
      if (Slash == std::string_view::npos ||
          !parseIntToken(V.substr(0, Slash), 1, MaxFlagCount, I) ||
          !parseIntToken(V.substr(Slash + 1), 1, MaxFlagCount, N) || I > N)
        return fail("--shard wants I/N with 1 <= I <= N");
      J.ShardIndex = static_cast<std::size_t>(I - 1);
      J.ShardCount = static_cast<std::size_t>(N);
    } else if (Arg == "--merge-shards") {
      MergeShards = true;
    } else if (Arg == "--export-timeloop") {
      ExportTimeloop = true;
    } else if (Arg == "--trace-json") {
      TraceJsonPath = needValue();
    } else if (Arg == "--metrics") {
      WantMetrics = true;
    } else if (Arg == "--profile") {
      WantProfile = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(Argv[0]);
      return 2;
    }
  }

  if (!HaveLayer && Pipeline.empty() && Network.empty()) {
    std::fprintf(stderr, "error: no workload given (--layer / --resnet / "
                         "--yolo / --pipeline / --network)\n");
    printUsage(Argv[0]);
    return 2;
  }
  if (!Network.empty() && (HaveLayer || !Pipeline.empty()))
    return fail("--network excludes --layer/--resnet/--yolo/--pipeline");
  if ((LayerGroups || LayerTransposed || LayerPadding) && !HaveLayer)
    return fail("--groups/--transposed/--padding modify a --layer workload");
  if (HaveLayer) {
    if (LayerGroups)
      Layer.Groups = *LayerGroups;
    Layer.Transposed = LayerTransposed;
    if (LayerPadding)
      Layer.Padding = *LayerPadding;
    if (Status S = Layer.validate(); !S.isOk())
      return fail(S.toString());
  }
  if ((!CacheDir.empty() || J.ShardCount > 1 || MergeShards || HaveCapacity) &&
      Network.empty())
    return fail("--cache-dir/--resume/--cache-capacity/--shard/"
                "--merge-shards require --network");
  if (J.ShardCount > 1 && MergeShards)
    return fail("--shard and --merge-shards are exclusive");
  if (!Network.empty()) {
    J.Kind = JobKind::Network;
    J.Layers = std::move(Network);
    J.Name = "network:" + NetworkName;
  } else if (!Pipeline.empty()) {
    J.Kind = JobKind::Pipeline;
    J.Layers = std::move(Pipeline);
    J.Name = "pipeline:" + PipelineName;
  } else {
    J.Layers = {Layer};
    J.Name = Layer.Name;
  }
  if (ExportTimeloop &&
      (J.Kind != JobKind::Layer || J.HierarchySpec != ClassicHierarchy))
    return fail("--export-timeloop exports one layer's design "
                "(--layer/--resnet/--yolo) on the classic3 hierarchy");
  // A hierarchy file fixes its own machine; only classic3 and spad4 are
  // built from the architecture flags.
  if (ArchFlag && J.HierarchySpec != ClassicHierarchy &&
      J.HierarchySpec != "spad4")
    return fail(std::string(ArchFlag) + " sets the classic3/spad4 machine; "
                "the hierarchy file '" + J.HierarchySpec +
                "' fixes its own");
  resolveAreaBudget(J);

  // Resolve the cost-model backend. "both" scores with nest while
  // cross-checking maestro on every evaluation; anything else must be a
  // registered backend name. The search trajectory — and hence the
  // printed design — is bit-identical for nest, both, and the default.
  std::optional<CrossCheckEvaluator> CrossCheck;
  if (EvaluatorName == "both") {
    CrossCheck.emplace(nestCostEvaluator(), *costEvaluator("maestro"));
    J.Options.Rounding.Evaluator = &*CrossCheck;
  } else if (const CostEvaluator *E = costEvaluator(EvaluatorName)) {
    J.Options.Rounding.Evaluator = E;
  } else {
    std::string Known;
    for (const std::string &Name : costEvaluatorNames())
      Known += (Known.empty() ? "" : "|") + Name;
    return fail("unknown evaluator '" + EvaluatorName + "' (known: " + Known +
                "|both)");
  }

  // Telemetry: --trace-json and --profile need the span trace, --metrics
  // alone only the counters. All three leave the optimization result
  // bit-identical (docs/OBSERVABILITY.md); with none given, collection
  // stays off and every hook is a single relaxed load.
  if (!TraceJsonPath.empty() || WantProfile)
    telemetry::setLevel(telemetry::Level::Trace);
  else if (WantMetrics)
    telemetry::setLevel(telemetry::Level::Metrics);

  const auto StartTime = std::chrono::steady_clock::now();
  RunReport RR = jobReport(J, nullptr);

  // Stamps the run report and emits the requested telemetry output on
  // every exit path past argument parsing.
  auto finish = [&](int Exit) {
    if (CrossCheck) {
      // Fold the accumulated cross-check statistics into the report and
      // summarize them on stdout; any mismatch is a model bug in one of
      // the two backends.
      CrossCheckStats S = CrossCheck->stats();
      RR.Evaluator.Evals = S.Evals;
      RR.Evaluator.DivergentEvals = S.DivergentEvals;
      RR.Evaluator.CountersCompared = S.CountersCompared;
      RR.Evaluator.CounterMismatches = S.CounterMismatches;
      RR.Evaluator.MaxAbsDelta = S.MaxAbsDelta;
      RR.Evaluator.MaxRelDelta = S.MaxRelDelta;
      for (const DivergenceSample &Sample : S.Samples)
        RR.Evaluator.Samples.push_back(
            {Sample.Counter, Sample.Primary, Sample.Reference});
      std::printf("evaluator cross-check (nest vs maestro): %llu evals, "
                  "%llu divergent; %llu counters compared, %llu mismatches\n",
                  static_cast<unsigned long long>(S.Evals),
                  static_cast<unsigned long long>(S.DivergentEvals),
                  static_cast<unsigned long long>(S.CountersCompared),
                  static_cast<unsigned long long>(S.CounterMismatches));
      if (S.CounterMismatches) {
        std::printf("  max |delta| %g words (rel %g)\n", S.MaxAbsDelta,
                    S.MaxRelDelta);
        for (const DivergenceSample &Sample : S.Samples)
          std::printf("  %s: nest %lld vs maestro %lld\n",
                      Sample.Counter.c_str(),
                      static_cast<long long>(Sample.Primary),
                      static_cast<long long>(Sample.Reference));
      }
    }
    RR.ExitCode = Exit;
    RR.WallSeconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - StartTime)
                         .count();
    RR.Telemetry = telemetry::snapshot();
    if (WantProfile || WantMetrics)
      printProfile(std::cout, RR.Telemetry);
    if (!TraceJsonPath.empty()) {
      std::ofstream Out(TraceJsonPath);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write run report '%s'\n",
                     TraceJsonPath.c_str());
        return Exit ? Exit : 2;
      }
      Out << RR.toJson();
      std::printf("run report written to %s\n", TraceJsonPath.c_str());
    }
    return Exit;
  };
  auto refuse = [&](const std::string &Error) { return finish(fail(Error)); };

  if (J.Kind == JobKind::Layer) {
    const ConvLayer &L = J.Layers.front();
    const Problem Prob = makeConvProblem(L);
    std::printf("layer %s (%s): %lld MACs, iteration space", L.Name.c_str(),
                L.layerClass(), static_cast<long long>(Prob.numOps()));
    for (const Iterator &It : Prob.iterators())
      std::printf(" %s=%lld", It.Name.c_str(),
                  static_cast<long long>(It.Extent));
    std::printf("\n");

    JobResult R = runJob(J, nullptr, nullptr);
    RR = std::move(R.Report);
    if (R.Machine)
      printHierarchyMachine(*R.Machine);
    if (R.ExitCode == 2)
      return refuse(R.Error);
    const SweepReport &Sweep = RR.Sweep;
    const ThistleStats &Stats = R.Layer.Stats;
    if (R.Machine)
      std::printf("search: %u GP solves (%u infeasible)\n",
                  Stats.PairsSolved + Stats.GpInfeasible, Stats.GpInfeasible);
    if (R.ExitCode == 3) {
      printSweepSummary(Sweep);
      std::fprintf(stderr, "no feasible design found\n");
      return finish(3);
    }
    if (R.Machine)
      printHierarchyDesign(J, Prob, *R.Machine, R.Layer.Multi);
    else
      printLayer(Prob, R.Layer, RR.Threads, ExportTimeloop);
    printSweepSummary(Sweep);
    return finish(R.ExitCode);
  }

  // A refused pipeline prints no table; a refused network touches no
  // cache directory.
  if (std::string Error = validateJob(J); !Error.empty())
    return refuse(Error);

  if (J.Kind == JobKind::Pipeline) {
    // One row per stage as it is solved, then the total energy.
    std::printf("%-11s %10s %9s %9s %6s %5s %9s\n", "layer", "pJ/MAC",
                "IPC", "cycles(K)", "P", "R", "S words");
    double TotalUj = 0.0;
    auto PrintStage = [&TotalUj](const ConvLayer &L, const ThistleResult &LR) {
      printPipelineStage(L, LR);
      if (LR.Found)
        TotalUj += LR.Eval.EnergyPj * 1e-6;
    };
    JobResult R = runJob(J, nullptr, nullptr, PrintStage);
    RR = std::move(R.Report);
    if (R.ExitCode == 2)
      return refuse(R.Error);
    std::printf("pipeline total energy: %.1f uJ\n", TotalUj);
    if (R.ExitCode)
      std::printf("warning: some layers lost GP pairs to failures or the "
                  "deadline; rerun a degraded layer alone for the details\n");
    return finish(R.ExitCode);
  }

  // The GP solution cache is on by default; THISTLE_CACHE=off (or 0)
  // disables it. The optimization result is bit-identical either way
  // (the cache replays recorded outcomes).
  bool UseCache = true;
  if (const char *Env = std::getenv("THISTLE_CACHE"))
    UseCache = std::string(Env) != "off" && std::string(Env) != "0";
  // THISTLE_CACHE_DIR is the ambient form of --cache-dir; the flag
  // wins, and either one implies the cache (over THISTLE_CACHE=off).
  if (CacheDir.empty())
    if (const char *Env = std::getenv("THISTLE_CACHE_DIR"))
      CacheDir = Env;
  if (!CacheDir.empty())
    UseCache = true;
  const bool Sharded = J.ShardCount > 1;
  if ((Sharded || MergeShards) && CacheDir.empty())
    return refuse("--shard/--merge-shards need --cache-dir (or "
                  "THISTLE_CACHE_DIR) for the shard segments");
  // A shard's run report is part of its checkpoint; default it into the
  // cache directory when no explicit --trace-json was given.
  if (Sharded && TraceJsonPath.empty())
    TraceJsonPath =
        GpCacheDirectory::shardReportPath(CacheDir, J.ShardIndex, J.ShardCount);

  // Durable state: load whatever the cache directory holds and attach
  // the journal, so every new solution is checkpointed at task
  // granularity. Damaged artifacts are reported and skipped (the run
  // degrades to a cold start for that portion); only an unusable
  // directory is a hard error, caught before any solving starts. The
  // LRU bound applies with or without durable state.
  GpSolutionCache Cache;
  Cache.setCapacity(static_cast<std::size_t>(CacheCapacity));
  GpCacheDirectory Durable;
  const bool Persist = UseCache && !CacheDir.empty();
  if (Persist) {
    if (Status St = Durable.open(Cache, CacheDir, J.ShardIndex, J.ShardCount,
                                 MergeShards);
        !St.isOk())
      return refuse("--cache-dir: " + St.toString());
    const GpCachePersistStats &PS = Durable.loadStats();
    for (const std::string &P : PS.Problems)
      std::printf("persist: warning: %s\n", P.c_str());
    std::printf("persist: %s: %llu entries from %u file(s)%s\n",
                CacheDir.c_str(),
                static_cast<unsigned long long>(PS.EntriesLoaded),
                PS.FilesLoaded, PS.DataLoss ? " [data loss detected]" : "");
    if (const Status &St = Durable.journalStatus(); !St.isOk())
      std::printf("persist: warning: no checkpoint journal: %s\n",
                  St.toString().c_str());
  }
  if (Sharded)
    std::printf("persist: shard %zu/%zu of the task grid\n",
                J.ShardIndex + 1, J.ShardCount);

  JobResult R = runJob(J, UseCache ? &Cache : nullptr, nullptr);
  RR = std::move(R.Report);
  if (Sharded) {
    RR.Shards.Present = true;
    RR.Shards.Index = J.ShardIndex + 1;
    RR.Shards.Count = J.ShardCount;
  } else if (MergeShards) {
    RR.Shards.Present = true;
    RR.Shards.Merge = true;
  }
  if (Persist)
    Durable.report(RR.Persistence);
  if (R.ExitCode == 2)
    return refuse(R.Error);
  const NetworkResult &N = R.Network;
  printNetwork(N, UseCache);

  // Clean-exit compaction: the sweep finished, so fold the journal into
  // one atomic snapshot and drop the superseded artifacts. A failed
  // snapshot write keeps the journal (nothing is lost, the next run
  // replays it) and never changes the exit code.
  if (Persist) {
    if (Cache.journalAppendFailures())
      std::printf("persist: warning: %llu checkpoint append(s) failed; "
                  "those tasks will re-solve after a crash\n",
                  static_cast<unsigned long long>(
                      Cache.journalAppendFailures()));
    if (Status St = Durable.compact(); St.isOk())
      std::printf("persist: compacted %zu entries to %s\n", Cache.size(),
                  Durable.snapshotPath().c_str());
    else
      std::printf("persist: warning: %s (journal kept)\n",
                  St.toString().c_str());
    Durable.report(RR.Persistence);
  }

  if (R.ExitCode == 3) {
    std::fprintf(stderr, "no feasible design found for any layer\n");
    return finish(3);
  }
  printSweepSummary(RR.Sweep);
  // A shard owns only its slice of the layers.
  if (!Sharded && !N.Found)
    std::printf("warning: %zu of %zu layers found no design\n",
                N.Stats.LayersTotal - N.LayersFound, N.Stats.LayersTotal);
  return finish(R.ExitCode);
}
