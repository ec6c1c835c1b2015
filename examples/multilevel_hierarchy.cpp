//===- examples/multilevel_hierarchy.cpp - Deeper memory hierarchies ------===//
//
// Demonstrates the hierarchy-generic engine: optimize one conv layer on
// the classic 3-level machine, on a 4-level machine with a per-PE
// scratchpad, and on a 5-level machine described in the text format —
// then cross-check the GP design with the generic mapper search. The
// classic machine runs on exactly the same engine the fixed nestmodel
// pipeline wraps.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "nestmodel/Mapper.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <string>

using namespace thistle;

namespace {

void report(const char *Title, const Problem &Prob, const Hierarchy &H,
            const ThistleResult &Result) {
  std::printf("--- %s ---\n", Title);
  const RoundedHierarchyDesign &R = Result.Multi;
  if (!Result.Found) {
    std::printf("no legal design found\n\n");
    return;
  }
  std::printf("energy %.2f pJ/MAC, IPC %.1f, PEs used %lld\n",
              R.Eval.EnergyPerMacPj, R.Eval.MacIpc,
              static_cast<long long>(R.Eval.Profile.PEsUsed));
  for (unsigned B = 0; B < H.numBoundaries(); ++B)
    std::printf("  %-12s <-> %-12s : %lld words\n",
                H.Levels[B].Name.c_str(), H.Levels[B + 1].Name.c_str(),
                static_cast<long long>(R.Eval.Profile.boundaryWords(B)));
  for (unsigned L = 0; L + 1 < H.numLevels(); ++L)
    std::printf("  %-12s occupancy: %lld / %lld words\n",
                H.Levels[L].Name.c_str(),
                static_cast<long long>(R.Eval.Profile.Occupancy[L]),
                static_cast<long long>(H.Levels[L].CapacityWords));
  std::printf("\n");
  (void)Prob;
}

} // namespace

int main() {
  ConvLayer Layer = resnet18Layers()[8]; // 256x256x14x14, 3x3.
  Problem Prob = makeConvProblem(Layer);
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();

  std::printf("layer %s on %lld PEs\n\n", Layer.Name.c_str(),
              static_cast<long long>(Arch.NumPEs));

  ThistleOptions Opts;
  Opts.MaxPermClassPairs = 24;

  Hierarchy Classic = Hierarchy::classic3Level(Arch, Tech);
  report("3-level: registers / shared SRAM / DRAM", Prob, Classic,
         optimizeLayer(Prob, Classic, Tech, Opts));

  Hierarchy Spad =
      Hierarchy::withScratchpad(Arch, Tech, /*SpadWords=*/1024,
                                /*SramWords=*/Arch.SramWords);
  report("4-level: registers / per-PE scratchpad / shared SRAM / DRAM",
         Prob, Spad, optimizeLayer(Prob, Spad, Tech, Opts));

  // Any machine loads from the text format (inner to outer; capacity in
  // words with "-" = unbounded, access pJ/word, bandwidth words/cycle).
  const std::string FiveLevelSpec = "pes 168\n"
                                    "mac-pj 2.2\n"
                                    "fanout 2\n"
                                    "level RegisterFile 64    0.58  1e9\n"
                                    "level Scratchpad   1024  0.57  8\n"
                                    "level SRAM-L1      16384 2.29  16\n"
                                    "level SRAM-L2      65536 4.57  16\n"
                                    "level DRAM         -     128.0 4\n";
  Expected<Hierarchy> Parsed = parseHierarchy(FiveLevelSpec);
  if (!Parsed) {
    std::printf("parse error: %s\n", Parsed.status().message().c_str());
    return 1;
  }
  const Hierarchy Deep = Parsed.takeValue();
  ThistleResult DeepR = optimizeLayer(Prob, Deep, Tech, Opts);
  report("5-level: parsed from the text format", Prob, Deep, DeepR);

  // The generic mapper searches the same machine directly — the paper's
  // Fig. 4 Mapper-vs-GP comparison at arbitrary depth.
  if (DeepR.Found) {
    MapperOptions MapOpts;
    MapOpts.MaxTrials = 4000;
    MapOpts.VictoryCondition = 1000;
    MultiMapperResult MR = searchMultiMappings(Prob, Deep, MapOpts);
    if (MR.Found)
      std::printf("mapper cross-check on the 5-level machine: "
                  "%.2f pJ/MAC over %u trials (GP %.2f) -> ratio %.3f\n",
                  MR.BestEval.EnergyPerMacPj, MR.Trials,
                  DeepR.Multi.Eval.EnergyPerMacPj,
                  DeepR.Multi.Eval.EnergyPerMacPj /
                      MR.BestEval.EnergyPerMacPj);
  }
  return 0;
}
