//===- tools/thistle-opt.cpp - Command-line design optimizer --------------===//
//
// The command-line front end of the library: optimize a conv layer's
// dataflow for a fixed accelerator, or co-design the accelerator and the
// dataflow together, for energy, delay or EDP, and optionally emit the
// resulting Timeloop-style YAML specifications.
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
#include "multilevel/MultiGp.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/Mapper.h"
#include "support/FaultInjection.h"
#include "support/Persist.h"
#include "support/RunReport.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "thistle/Network.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include "NumericFlag.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace thistle;

namespace {

/// One row of the generated usage table. Every flag the parser accepts
/// has exactly one row here; tool.usage (tools/CheckUsage.cmake) scrapes
/// the flag comparisons out of this source file and fails if any of them
/// is missing from the --help output, so a new flag cannot land without
/// a row.
struct FlagSpec {
  const char *Flag; ///< "--layer".
  const char *Arg;  ///< Value metavar, "" for boolean flags.
  const char *Help; ///< Description; '\n' separates continuation lines.
};

struct FlagGroup {
  const char *Title;
  const FlagSpec *Flags;
  std::size_t Count;
};

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
     "(see docs/HIERARCHY.md). Non-classic\n"
     "hierarchies run the L-level GP\n"
     "optimizer and validate the winner\n"
     "with the stochastic mapper."},
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
  std::printf("usage: %s [options]\n", Prog);
  constexpr std::size_t HelpColumn = 32;
  for (const FlagGroup &Group : UsageGroups) {
    std::printf("\n%s\n", Group.Title);
    for (std::size_t F = 0; F < Group.Count; ++F) {
      const FlagSpec &Spec = Group.Flags[F];
      std::string Head = std::string("  ") + Spec.Flag;
      if (Spec.Arg[0])
        Head += std::string(" ") + Spec.Arg;
      // Long heads get their own line; the help always starts at the
      // same column so the table reads as a table.
      bool HeadAlone = Head.size() + 2 > HelpColumn;
      if (HeadAlone)
        std::printf("%s\n", Head.c_str());
      const char *Line = Spec.Help;
      bool First = !HeadAlone;
      while (*Line) {
        const char *End = std::strchr(Line, '\n');
        std::size_t Len = End ? static_cast<std::size_t>(End - Line)
                              : std::strlen(Line);
        if (First)
          std::printf("%-*s%.*s\n", static_cast<int>(HelpColumn),
                      Head.c_str(), static_cast<int>(Len), Line);
        else
          std::printf("%-*s%.*s\n", static_cast<int>(HelpColumn), "",
                      static_cast<int>(Len), Line);
        First = false;
        Line += Len + (End ? 1 : 0);
      }
    }
  }
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

/// Prints the failure-summary table of a degraded sweep and returns the
/// tool's exit code contribution: 0 for a clean sweep, 1 otherwise.
int sweepExitCode(const SweepReport &Report, const char *TaskNoun) {
  if (Report.total() == 0) {
    // An empty sweep must say so; a silent summary reads as success.
    std::printf("\nsweep empty: %s\n", Report.toString(TaskNoun).c_str());
    return Report.clean() ? 0 : 1;
  }
  if (Report.clean())
    return 0;
  std::printf("\nsweep degraded: %u %s(s) solved (%u retried), %u degraded, "
              "%u infeasible, %u failed, %u skipped%s\n",
              Report.Solved, TaskNoun, Report.Retried, Report.Degraded,
              Report.Infeasible, Report.Failed, Report.Skipped,
              Report.DeadlineExpired ? " [deadline expired]" : "");
  TablePrinter Table({TaskNoun, "coords", "outcome", "attempts", "detail"});
  for (const SweepIncident &I : Report.Incidents) {
    if (I.Outcome == TaskOutcome::Infeasible)
      continue; // Infeasible pairs are an expected model property.
    Table.addRow({TablePrinter::formatInt(static_cast<std::int64_t>(I.Index)),
                  "(" + std::to_string(I.A) + "," + std::to_string(I.B) + ")",
                  taskOutcomeName(I.Outcome),
                  TablePrinter::formatInt(I.Attempts), I.Detail});
  }
  Table.print(std::cout);
  return 1;
}

} // namespace

namespace {

/// --hierarchy mode: optimize onto an arbitrary-depth machine with the
/// L-level GP engine, then cross-check the winner with the stochastic
/// mapper on the same hierarchy.
int runHierarchy(const Problem &Prob, const Hierarchy &H,
                 const ThistleOptions &Options, const TechParams &Tech,
                 RunReport &RR) {
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
  std::printf("  area %.3f mm^2\n", H.areaUm2(Tech) * 1e-6);

  MultiOptions MO;
  MO.Objective = Options.Objective;
  MO.NumCandidates = Options.Rounding.NumCandidates;
  MO.Threads = Options.Threads;
  MO.Tech = Tech;
  MO.Deadline = Options.Deadline;
  MO.Evaluator = Options.Rounding.Evaluator;
  MultiResult R = optimizeHierarchy(Prob, H, MO);
  if (!R.InputStatus.isOk()) {
    std::fprintf(stderr, "error: %s\n", R.InputStatus.toString().c_str());
    return 2;
  }
  RR.HasSweep = true;
  RR.SweepTaskNoun = "combo";
  std::printf("search: %u GP solves (%u infeasible)\n", R.CombosSolved,
              R.GpInfeasible);
  if (!R.Found) {
    sweepExitCode(R.Report, "combo");
    RR.Sweep = std::move(R.Report);
    std::fprintf(stderr, "no feasible design found\n");
    return 3;
  }
  RR.Found = true;
  RR.EnergyPj = R.Eval.EnergyPj;
  RR.EnergyPerMacPj = R.Eval.EnergyPerMacPj;
  RR.Cycles = R.Eval.Cycles;
  RR.MacIpc = R.Eval.MacIpc;
  RR.EdpPjCycles = R.Eval.EdpPjCycles;

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

  // Cross-check with the stochastic mapper on the same machine: the GP
  // winner should land within, or ahead of, the sampled population.
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
  int Exit = sweepExitCode(R.Report, "combo");
  RR.Sweep = std::move(R.Report);
  return Exit;
}

/// --pipeline mode: optimize every stage and print one summary row each.
int runPipeline(const std::vector<ConvLayer> &Layers,
                const ThistleOptions &Options, const ArchConfig &Arch,
                const TechParams &Tech, double AreaBudget, RunReport &RR) {
  std::printf("%-11s %10s %9s %9s %6s %5s %9s\n", "layer", "pJ/MAC",
              "IPC", "cycles(K)", "P", "R", "S words");
  RR.HasSweep = true;
  RR.SweepTaskNoun = "pair";
  double TotalUj = 0.0;
  int Exit = 0;
  for (const ConvLayer &L : Layers) {
    Problem P = makeConvProblem(L);
    ThistleResult R = optimizeLayer(P, Arch, Tech, Options, AreaBudget);
    if (!R.InputStatus.isOk()) {
      std::fprintf(stderr, "error: %s: %s\n", L.Name.c_str(),
                   R.InputStatus.toString().c_str());
      return 2;
    }
    if (!R.Report.clean())
      Exit = 1;
    RR.Sweep.merge(std::move(R.Report));
    if (!R.Found) {
      std::printf("%-11s %10s\n", L.Name.c_str(), "-");
      continue;
    }
    RR.Found = true;
    TotalUj += R.Eval.EnergyPj * 1e-6;
    std::printf("%-11s %10.2f %9.1f %9.0f %6lld %5lld %9lld\n",
                L.Name.c_str(), R.Eval.EnergyPerMacPj, R.Eval.MacIpc,
                R.Eval.Cycles * 1e-3,
                static_cast<long long>(R.Arch.NumPEs),
                static_cast<long long>(R.Arch.RegWordsPerPE),
                static_cast<long long>(R.Arch.SramWords));
  }
  std::printf("pipeline total energy: %.1f uJ\n", TotalUj);
  // The pipeline result block aggregates: total energy, no per-design
  // metrics (they differ per layer).
  RR.EnergyPj = TotalUj * 1e6;
  if (Exit)
    std::printf("warning: some layers lost GP pairs to failures or the "
                "deadline; rerun a degraded layer alone for the details\n");
  return Exit;
}

/// The persistence/sharding configuration of a --network run.
struct PersistConfig {
  std::string Dir;               ///< Empty = no durable state.
  std::uint64_t Capacity = 0;    ///< In-memory LRU bound; 0 = unbounded.
  std::size_t ShardIndex = 0;    ///< 0-based.
  std::size_t ShardCount = 1;    ///< 1 = no sharding.
  bool Merge = false;            ///< --merge-shards recombination run.
};

/// --network mode: run the network driver (shape dedup, shared GP
/// solution cache, optional network-level arch selection) and print a
/// per-layer table plus the network totals.
int runNetwork(const std::vector<ConvLayer> &Layers,
               const ThistleOptions &Options, const ArchConfig &Arch,
               const TechParams &Tech, double AreaBudget, bool UseCache,
               const PersistConfig &PC, RunReport &RR) {
  GpSolutionCache Cache;
  NetworkOptions NO;
  NO.Layer = Options;
  NO.Cache = UseCache ? &Cache : nullptr;
  NO.ShardIndex = PC.ShardIndex;
  NO.ShardCount = PC.ShardCount;
  const bool Sharded = PC.ShardCount > 1;

  // Durable state: load whatever the cache directory holds, then attach
  // the journal so every new solution is checkpointed at task
  // granularity. Damaged artifacts are reported and skipped (the run
  // degrades to a cold start for that portion); only an unusable
  // directory is a hard error, caught before any solving starts.
  // The LRU bound applies with or without durable state.
  Cache.setCapacity(static_cast<std::size_t>(PC.Capacity));

  const bool Persist = UseCache && !PC.Dir.empty();
  GpCachePersistStats PS;
  std::string SnapPath, JournalPath;
  if (Persist) {
    if (Status St = persist::createDirectories(PC.Dir); !St.isOk()) {
      std::fprintf(stderr, "error: --cache-dir: %s\n",
                   St.toString().c_str());
      return 2;
    }
    RR.Persistence.Present = true;
    RR.Persistence.Directory = PC.Dir;
    RR.Persistence.Capacity = PC.Capacity;
    // The shared artifacts first: the compacted snapshot, then the
    // journal of any run that died before compacting.
    const std::string Base = PC.Dir + "/gpcache";
    Cache.loadFile(Base + ".snap", PS);
    Cache.loadFile(Base + ".journal", PS);
    if (Sharded) {
      // A shard checkpoints to its own segment pair and self-resumes
      // from it; the shared artifacts above seed it with any earlier
      // compaction.
      const std::string Seg =
          PC.Dir + "/shard-" + std::to_string(PC.ShardIndex + 1) +
          "-of-" + std::to_string(PC.ShardCount);
      SnapPath = Seg + ".snap";
      JournalPath = Seg + ".journal";
      Cache.loadFile(SnapPath, PS);
      Cache.loadFile(JournalPath, PS);
    } else {
      SnapPath = Base + ".snap";
      JournalPath = Base + ".journal";
      if (PC.Merge) {
        // Recombine every shard segment. Load order is lexicographic
        // for determinism, though it cannot matter: entries agree
        // wherever keys collide, and first-wins keeps one copy.
        for (const std::string &F :
             persist::listFiles(PC.Dir, "shard-", ".snap"))
          Cache.loadFile(F, PS);
        for (const std::string &F :
             persist::listFiles(PC.Dir, "shard-", ".journal"))
          Cache.loadFile(F, PS);
      }
    }
    for (const std::string &P : PS.Problems)
      std::printf("persist: warning: %s\n", P.c_str());
    std::printf("persist: %s: %llu entries from %u file(s)%s\n",
                PC.Dir.c_str(),
                static_cast<unsigned long long>(PS.EntriesLoaded),
                PS.FilesLoaded, PS.DataLoss ? " [data loss detected]" : "");
    if (Status St = Cache.attachJournal(JournalPath); !St.isOk())
      std::printf("persist: warning: no checkpoint journal: %s\n",
                  St.toString().c_str());
  }
  if (Sharded) {
    RR.Shards.Present = true;
    RR.Shards.Index = PC.ShardIndex + 1;
    RR.Shards.Count = PC.ShardCount;
    std::printf("persist: shard %zu/%zu of the task grid\n",
                PC.ShardIndex + 1, PC.ShardCount);
  } else if (PC.Merge) {
    RR.Shards.Present = true;
    RR.Shards.Merge = true;
  }

  NetworkResult R = optimizeNetwork(Layers, Arch, Tech, NO, AreaBudget);
  if (!R.InputStatus.isOk()) {
    std::fprintf(stderr, "error: %s\n", R.InputStatus.toString().c_str());
    return 2;
  }
  RR.HasSweep = true;
  RR.SweepTaskNoun = "pair";
  RR.Sweep = SweepReport(R.Report);
  RR.Found = R.Found;
  RR.Network.Present = true;
  RR.Network.LayersTotal = R.Stats.LayersTotal;
  RR.Network.LayersFound = R.LayersFound;
  RR.Network.UniqueShapes = R.Stats.UniqueShapes;
  RR.Network.CacheEnabled = UseCache;
  RR.Network.CacheHits = R.Stats.CacheHits;
  RR.Network.CacheMisses = R.Stats.CacheMisses;
  RR.Network.ArchCandidates = R.Stats.ArchCandidates;
  RR.Network.SummedObjective = R.Totals.SummedObjective;
  RR.Network.TotalEnergyPj = R.Totals.EnergyPj;
  RR.Network.TotalCycles = R.Totals.Cycles;
  RR.Network.TotalEdpPjCycles = R.Totals.EdpPjCycles;
  RR.Network.EnergyPerMacPj = R.Totals.EnergyPerMacPj;
  RR.Network.Macs = static_cast<std::uint64_t>(R.Totals.Macs);
  // The network totals double as the run's result block: the pipeline
  // energy/delay on the selected architecture.
  RR.EnergyPj = R.Totals.EnergyPj;
  RR.EnergyPerMacPj = R.Totals.EnergyPerMacPj;
  RR.Cycles = R.Totals.Cycles;
  RR.EdpPjCycles = R.Totals.EdpPjCycles;

  std::printf("%-13s %10s %9s %9s %6s\n", "layer", "pJ/MAC", "IPC",
              "cycles(K)", "dedup");
  for (const NetworkLayerResult &L : R.Layers) {
    RunReportNetworkLayer Row;
    Row.Name = L.Name;
    Row.ShapeIndex = L.ShapeIndex;
    Row.Multiplicity = L.Multiplicity;
    Row.Deduplicated = L.Deduplicated;
    Row.Found = L.Result.Found;
    if (L.Result.Found) {
      Row.EnergyPj = L.Result.Eval.EnergyPj;
      Row.Cycles = L.Result.Eval.Cycles;
      std::printf("%-13s %10.2f %9.1f %9.0f %6s\n", L.Name.c_str(),
                  L.Result.Eval.EnergyPerMacPj, L.Result.Eval.MacIpc,
                  L.Result.Eval.Cycles * 1e-3,
                  L.Deduplicated ? "=" : "");
    } else {
      std::printf("%-13s %10s %9s %9s %6s\n", L.Name.c_str(), "-", "-",
                  "-", L.Deduplicated ? "=" : "");
    }
    RR.Network.Layers.push_back(std::move(Row));
  }
  std::printf("network: %zu layers, %zu unique shapes",
              R.Stats.LayersTotal, R.Stats.UniqueShapes);
  if (R.Stats.ArchCandidates)
    std::printf(", %u arch candidate(s)", R.Stats.ArchCandidates);
  std::printf("\n");
  std::printf("architecture: P=%lld PEs, R=%lld regs/PE, S=%lld SRAM "
              "words (area %.3f mm^2)\n",
              static_cast<long long>(R.Arch.NumPEs),
              static_cast<long long>(R.Arch.RegWordsPerPE),
              static_cast<long long>(R.Arch.SramWords),
              R.Arch.areaUm2(Tech) * 1e-6);
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

  // Clean-exit compaction: the sweep finished, so fold the journal into
  // one atomic snapshot and drop the superseded artifacts. A failed
  // snapshot write keeps the journal (nothing is lost, the next run
  // replays it) and never changes the exit code.
  if (Persist) {
    RR.Persistence.LoadedFiles = PS.FilesLoaded;
    RR.Persistence.LoadedEntries = PS.EntriesLoaded;
    RR.Persistence.AppendFailures = Cache.journalAppendFailures();
    RR.Persistence.Evictions = Cache.evictions();
    RR.Persistence.DataLossDetected = PS.DataLoss;
    RR.Persistence.Problems = PS.Problems;
    if (Cache.journalAppendFailures())
      std::printf("persist: warning: %llu checkpoint append(s) failed; "
                  "those tasks will re-solve after a crash\n",
                  static_cast<unsigned long long>(
                      Cache.journalAppendFailures()));
    Cache.detachJournal();
    if (Status St = Cache.saveSnapshotFile(SnapPath); St.isOk()) {
      RR.Persistence.SnapshotWritten = true;
      if (JournalPath != SnapPath)
        persist::removeFile(JournalPath);
      if (PC.Merge) {
        for (const std::string &F :
             persist::listFiles(PC.Dir, "shard-", ".snap"))
          persist::removeFile(F);
        for (const std::string &F :
             persist::listFiles(PC.Dir, "shard-", ".journal"))
          persist::removeFile(F);
      }
      std::printf("persist: compacted %zu entries to %s\n", Cache.size(),
                  SnapPath.c_str());
    } else {
      std::printf("persist: warning: %s (journal kept)\n",
                  St.toString().c_str());
    }
  }

  // A shard owns only its slice of the task grid, so missing layers and
  // empty sweeps are by design; its exit reflects its own slice's sweep
  // health, and the merge run applies the whole-network criteria.
  if (Sharded)
    return sweepExitCode(R.Report, "pair");

  if (R.LayersFound == 0) {
    std::fprintf(stderr, "no feasible design found for any layer\n");
    return 3;
  }
  int Exit = sweepExitCode(R.Report, "pair");
  if (!R.Found) {
    std::printf("warning: %zu of %zu layers found no design\n",
                R.Stats.LayersTotal - R.LayersFound, R.Stats.LayersTotal);
    Exit = 1;
  }
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  // THISTLE_FAULT=site[:key[:maxhits]] arms the deterministic fault
  // hooks (testing only; a no-op unless compiled in and set).
  if (std::string FaultErr = fault::armFromEnv(); !FaultErr.empty()) {
    std::fprintf(stderr, "error: THISTLE_FAULT: %s\n", FaultErr.c_str());
    return 2;
  }
  ConvLayer Layer;
  bool HaveLayer = false;
  std::optional<std::int64_t> LayerGroups;
  bool LayerTransposed = false;
  std::optional<ConvPadding> LayerPadding;
  std::vector<ConvLayer> Pipeline;
  std::vector<ConvLayer> Network;
  std::string NetworkName;
  ThistleOptions Options;
  ArchConfig Arch = eyerissArch();
  TechParams Tech = TechParams::cgo45nm();
  double AreaBudget = 0.0;
  bool ExportTimeloop = false;
  std::string HierarchySpec = "classic3";
  std::string EvaluatorName = "nest";
  std::string PipelineName;
  std::string TraceJsonPath;
  bool WantMetrics = false;
  bool WantProfile = false;
  PersistConfig PC;
  bool HaveCapacity = false;

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
      if (!parseInts(needValue(), V) || V.size() < 6 || V.size() > 8) {
        std::fprintf(stderr, "error: --layer wants K,C,H,W,R,S[,stride"
                             "[,dilation]]\n");
        return 2;
      }
      Layer.Name = "custom";
      Layer.K = V[0];
      Layer.C = V[1];
      Layer.Hin = V[2];
      Layer.Win = V[3];
      Layer.R = V[4];
      Layer.S = V[5];
      Layer.StrideX = Layer.StrideY = V.size() > 6 ? V[6] : 1;
      Layer.DilationX = Layer.DilationY = V.size() > 7 ? V[7] : 1;
      HaveLayer = true;
    } else if (Arg == "--groups") {
      std::vector<std::int64_t> V;
      if (!parseInts(needValue(), V) || V.size() != 1) {
        std::fprintf(stderr, "error: --groups wants one integer\n");
        return 2;
      }
      LayerGroups = V[0];
    } else if (Arg == "--transposed") {
      LayerTransposed = true;
    } else if (Arg == "--padding") {
      Expected<ConvPadding> P = parsePadding(needValue());
      if (!P) {
        std::fprintf(stderr, "error: %s\n", P.status().toString().c_str());
        return 2;
      }
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
      else {
        std::fprintf(stderr, "error: unknown pipeline '%s'\n", V.c_str());
        return 2;
      }
      PipelineName = V;
    } else if (Arg == "--network") {
      std::string V = needValue();
      if (V == "resnet18")
        Network = resnet18NetworkLayers();
      else if (V == "yolo9000")
        Network = yolo9000NetworkLayers();
      else if (V == "mobilenetv2")
        Network = mobilenetV2NetworkLayers();
      else if (V == "dcgan")
        Network = dcganNetworkLayers();
      else if (V == "all")
        Network = allNetworkLayers();
      else {
        std::fprintf(stderr, "error: unknown network '%s'\n", V.c_str());
        return 2;
      }
      NetworkName = V;
    } else if (Arg == "--mode") {
      std::string V = needValue();
      if (V == "dataflow")
        Options.Mode = DesignMode::DataflowOnly;
      else if (V == "codesign")
        Options.Mode = DesignMode::CoDesign;
      else {
        std::fprintf(stderr, "error: unknown mode '%s'\n", V.c_str());
        return 2;
      }
    } else if (Arg == "--objective") {
      std::string V = needValue();
      if (V == "energy")
        Options.Objective = SearchObjective::Energy;
      else if (V == "delay")
        Options.Objective = SearchObjective::Delay;
      else if (V == "edp")
        Options.Objective = SearchObjective::EnergyDelayProduct;
      else {
        std::fprintf(stderr, "error: unknown objective '%s'\n", V.c_str());
        return 2;
      }
    } else if (Arg == "--candidates") {
      Options.Rounding.NumCandidates = static_cast<unsigned>(parseIntFlag(
          "--candidates", needValue(), 1, MaxRoundingCandidates));
    } else if (Arg == "--threads") {
      Options.Threads = static_cast<unsigned>(
          parseIntFlag("--threads", needValue(), 0, MaxThreads));
    } else if (Arg == "--deadline-ms") {
      Options.Deadline = std::chrono::milliseconds(
          parseIntFlag("--deadline-ms", needValue(), 1, MaxFlagCount));
    } else if (Arg == "--hierarchy") {
      HierarchySpec = needValue();
    } else if (Arg == "--evaluator") {
      EvaluatorName = needValue();
    } else if (Arg == "--pes") {
      Arch.NumPEs = parseIntFlag("--pes", needValue(), 1, MaxFlagCount);
    } else if (Arg == "--regs") {
      Arch.RegWordsPerPE =
          parseIntFlag("--regs", needValue(), 1, MaxFlagCount);
    } else if (Arg == "--sram-words") {
      Arch.SramWords =
          parseIntFlag("--sram-words", needValue(), 1, MaxFlagCount);
    } else if (Arg == "--area-budget") {
      AreaBudget = parsePositiveFlag("--area-budget", needValue());
    } else if (Arg == "--cache-dir" || Arg == "--resume") {
      PC.Dir = needValue();
      if (PC.Dir.empty()) {
        std::fprintf(stderr, "error: %s wants a directory\n", Arg.c_str());
        return 2;
      }
    } else if (Arg == "--cache-capacity") {
      PC.Capacity = static_cast<std::uint64_t>(
          parseIntFlag("--cache-capacity", needValue(), 0, MaxFlagCount));
      HaveCapacity = true;
    } else if (Arg == "--shard") {
      std::string_view V = needValue();
      std::size_t Slash = V.find('/');
      long long I = 0, N = 0;
      if (Slash == std::string_view::npos ||
          !parseIntToken(V.substr(0, Slash), 1, MaxFlagCount, I) ||
          !parseIntToken(V.substr(Slash + 1), 1, MaxFlagCount, N) || I > N) {
        std::fprintf(stderr,
                     "error: --shard wants I/N with 1 <= I <= N\n");
        return 2;
      }
      PC.ShardIndex = static_cast<std::size_t>(I - 1);
      PC.ShardCount = static_cast<std::size_t>(N);
    } else if (Arg == "--merge-shards") {
      PC.Merge = true;
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
  if (!Network.empty() && (HaveLayer || !Pipeline.empty())) {
    std::fprintf(stderr,
                 "error: --network excludes --layer/--resnet/--yolo/"
                 "--pipeline\n");
    return 2;
  }
  if ((LayerGroups || LayerTransposed || LayerPadding) && !HaveLayer) {
    std::fprintf(stderr, "error: --groups/--transposed/--padding modify a "
                         "--layer workload\n");
    return 2;
  }
  if (HaveLayer) {
    if (LayerGroups)
      Layer.Groups = *LayerGroups;
    Layer.Transposed = LayerTransposed;
    if (LayerPadding)
      Layer.Padding = *LayerPadding;
    if (Status S = Layer.validate(); !S.isOk()) {
      std::fprintf(stderr, "error: %s\n", S.toString().c_str());
      return 2;
    }
  }
  if ((!PC.Dir.empty() || PC.ShardCount > 1 || PC.Merge || HaveCapacity) &&
      Network.empty()) {
    std::fprintf(stderr, "error: --cache-dir/--resume/--cache-capacity/"
                         "--shard/--merge-shards require --network\n");
    return 2;
  }
  if (PC.ShardCount > 1 && PC.Merge) {
    std::fprintf(stderr,
                 "error: --shard and --merge-shards are exclusive\n");
    return 2;
  }
  if (Options.Mode == DesignMode::CoDesign && AreaBudget == 0.0)
    AreaBudget = eyerissAreaUm2(Tech);

  // Resolve the cost-model backend. "both" scores with nest while
  // cross-checking maestro on every evaluation; anything else must be a
  // registered backend name. The search trajectory — and hence the
  // printed design — is bit-identical for nest, both, and the default.
  std::optional<CrossCheckEvaluator> CrossCheck;
  if (EvaluatorName == "both") {
    CrossCheck.emplace(nestCostEvaluator(), *costEvaluator("maestro"));
    Options.Rounding.Evaluator = &*CrossCheck;
  } else if (const CostEvaluator *E = costEvaluator(EvaluatorName)) {
    Options.Rounding.Evaluator = E;
  } else {
    std::string Known;
    for (const std::string &Name : costEvaluatorNames())
      Known += (Known.empty() ? "" : "|") + Name;
    std::fprintf(stderr, "error: unknown evaluator '%s' (known: %s|both)\n",
                 EvaluatorName.c_str(), Known.c_str());
    return 2;
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
  RunReport RR;
  RR.Workload = !Network.empty()    ? "network:" + NetworkName
                : !Pipeline.empty() ? "pipeline:" + PipelineName
                                    : Layer.Name;
  RR.Mode =
      Options.Mode == DesignMode::CoDesign ? "codesign" : "dataflow";
  RR.Objective = Options.Objective == SearchObjective::Energy  ? "energy"
                 : Options.Objective == SearchObjective::Delay ? "delay"
                                                               : "edp";
  RR.Hierarchy = HierarchySpec;
  RR.Evaluator.Backend = EvaluatorName;
  RR.Evaluator.CrossCheck = CrossCheck.has_value();
  RR.Threads =
      Options.Threads ? Options.Threads : ThreadPool::defaultWorkerCount();

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

  if (!Network.empty()) {
    if (HierarchySpec != "classic3") {
      std::fprintf(stderr, "error: --hierarchy works on a single layer\n");
      return finish(2);
    }
    // The GP solution cache is on by default; THISTLE_CACHE=off (or 0)
    // disables it. The optimization result is bit-identical either way
    // (the cache replays recorded outcomes).
    bool UseCache = true;
    if (const char *Env = std::getenv("THISTLE_CACHE"))
      UseCache = std::string(Env) != "off" && std::string(Env) != "0";
    // THISTLE_CACHE_DIR is the ambient form of --cache-dir; the flag
    // wins, and either one implies the cache (over THISTLE_CACHE=off).
    if (PC.Dir.empty())
      if (const char *Env = std::getenv("THISTLE_CACHE_DIR"))
        PC.Dir = Env;
    if (!PC.Dir.empty())
      UseCache = true;
    if ((PC.ShardCount > 1 || PC.Merge) && PC.Dir.empty()) {
      std::fprintf(stderr, "error: --shard/--merge-shards need "
                           "--cache-dir (or THISTLE_CACHE_DIR) for the "
                           "shard segments\n");
      return finish(2);
    }
    // A shard's run report is part of its checkpoint; default it into
    // the cache directory when no explicit --trace-json was given.
    if (PC.ShardCount > 1 && TraceJsonPath.empty())
      TraceJsonPath = PC.Dir + "/shard-" +
                      std::to_string(PC.ShardIndex + 1) + "-of-" +
                      std::to_string(PC.ShardCount) + "-report.json";
    return finish(runNetwork(Network, Options, Arch, Tech, AreaBudget,
                             UseCache, PC, RR));
  }

  if (!Pipeline.empty()) {
    if (HierarchySpec != "classic3") {
      std::fprintf(stderr, "error: --hierarchy works on a single layer\n");
      return finish(2);
    }
    return finish(
        runPipeline(Pipeline, Options, Arch, Tech, AreaBudget, RR));
  }

  Problem Prob = makeConvProblem(Layer);
  std::printf("layer %s (%s): %lld MACs, iteration space",
              Layer.Name.c_str(), Layer.layerClass(),
              static_cast<long long>(Prob.numOps()));
  for (const Iterator &It : Prob.iterators())
    std::printf(" %s=%lld", It.Name.c_str(),
                static_cast<long long>(It.Extent));
  std::printf("\n");

  if (HierarchySpec != "classic3") {
    if (Options.Mode == DesignMode::CoDesign) {
      std::fprintf(stderr, "error: --hierarchy fixes the machine; use "
                           "--mode dataflow\n");
      return finish(2);
    }
    Hierarchy H;
    if (HierarchySpec == "spad4") {
      H = Hierarchy::withScratchpad(Arch, Tech, /*SpadWords=*/512,
                                    Arch.SramWords);
    } else {
      std::ifstream In(HierarchySpec);
      if (!In) {
        std::fprintf(stderr, "error: cannot open hierarchy file '%s'\n",
                     HierarchySpec.c_str());
        return finish(2);
      }
      std::ostringstream Text;
      Text << In.rdbuf();
      std::string Error;
      if (!parseHierarchy(Text.str(), H, Error)) {
        std::fprintf(stderr, "error: %s: %s\n", HierarchySpec.c_str(),
                     Error.c_str());
        return finish(2);
      }
    }
    return finish(runHierarchy(Prob, H, Options, Tech, RR));
  }

  ThistleResult R = optimizeLayer(Prob, Arch, Tech, Options, AreaBudget);
  if (!R.InputStatus.isOk()) {
    std::fprintf(stderr, "error: %s\n", R.InputStatus.toString().c_str());
    return finish(2);
  }
  RR.HasSweep = true;
  RR.SweepTaskNoun = "pair";
  if (!R.Found) {
    sweepExitCode(R.Report, "pair");
    RR.Sweep = std::move(R.Report);
    std::fprintf(stderr, "no feasible design found\n");
    return finish(3);
  }
  RR.Found = true;
  RR.EnergyPj = R.Eval.EnergyPj;
  RR.EnergyPerMacPj = R.Eval.EnergyPerMacPj;
  RR.Cycles = R.Eval.Cycles;
  RR.MacIpc = R.Eval.MacIpc;
  RR.EdpPjCycles = R.Eval.EdpPjCycles;

  std::printf("\narchitecture: P=%lld PEs, R=%lld regs/PE, S=%lld SRAM "
              "words (area %.3f mm^2)\n",
              static_cast<long long>(R.Arch.NumPEs),
              static_cast<long long>(R.Arch.RegWordsPerPE),
              static_cast<long long>(R.Arch.SramWords),
              R.Arch.areaUm2(Tech) * 1e-6);
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
              R.Stats.CandidatesEvaluated,
              Options.Threads ? Options.Threads
                              : ThreadPool::defaultWorkerCount());

  if (ExportTimeloop) {
    std::printf("\n# ---- Timeloop architecture spec ----\n%s",
                exportTimeloopArch(R.Arch, Tech).c_str());
    std::printf("\n# ---- Timeloop problem spec ----\n%s",
                exportTimeloopProblem(Prob).c_str());
    std::printf("\n# ---- Timeloop mapping spec ----\n%s",
                exportTimeloopMapping(Prob, R.Map).c_str());
  }
  int Exit = sweepExitCode(R.Report, "pair");
  RR.Sweep = std::move(R.Report);
  return finish(Exit);
}
