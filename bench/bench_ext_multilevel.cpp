//===- bench/bench_ext_multilevel.cpp - Arbitrary-depth hierarchies -------===//
//
// Extension experiment exercising the paper's "arbitrary number of tiling
// levels" generality (section III-A): optimize each ResNet-18 layer on
// the classic 3-level Eyeriss machine (512-word register files) and on a
// 4-level variant that shrinks the register file to 64 words and backs it
// with a 1024-word per-PE scratchpad. Shrinking R is the paper's own
// energy lever (eps_R = sigma_R * R); the extra level keeps the reuse the
// big RF used to provide. Expected shape: the 4-level machine wins
// clearly on energy (the 4*eps_R*Nops term drops ~8x and the cheap
// scratchpad absorbs the refills). Area is not normalized; this explores
// the hierarchy-depth axis, not equal-cost co-design.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/TablePrinter.h"
#include "thistle/Optimizer.h"

#include <cmath>
#include <iostream>

using namespace thistle;
using namespace thistle::bench;

namespace {

void printMultilevelTable() {
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  Hierarchy Classic = Hierarchy::classic3Level(Arch, Tech);
  ArchConfig SmallRf = Arch;
  SmallRf.RegWordsPerPE = 64;
  Hierarchy Spad = Hierarchy::withScratchpad(SmallRf, Tech,
                                             /*SpadWords=*/1024,
                                             /*SramWords=*/Arch.SramWords);

  TablePrinter Table({"layer", "3-level pJ/MAC", "4-level pJ/MAC",
                      "SRAM-boundary words 3L", "SRAM-boundary words 4L"});
  ThistleOptions Opts;
  Opts.MaxPermClassPairs = 24;
  for (const ConvLayer &L : resnet18Layers()) {
    Problem P = makeConvProblem(L);
    ThistleResult R3 = optimizeLayer(P, Classic, Tech, Opts);
    ThistleResult R4 = optimizeLayer(P, Spad, Tech, Opts);
    auto Cell = [](const ThistleResult &R) {
      return R.Found
                 ? TablePrinter::formatDouble(R.Multi.Eval.EnergyPerMacPj, 2)
                 : std::string("-");
    };
    // The traffic crossing into the *shared* SRAM: boundary 0 for the
    // 3-level machine, boundary 1 for the 4-level one.
    auto SramWords = [](const ThistleResult &R, unsigned B) {
      return R.Found ? TablePrinter::formatInt(R.Multi.Eval.Profile
                                                   .boundaryWords(B))
                     : std::string("-");
    };
    Table.addRow({L.Name, Cell(R3), Cell(R4), SramWords(R3, 0),
                  SramWords(R4, 1)});
  }
  Table.print(std::cout);
  std::printf("\n(shrinking the register file 8x drops the dominant "
              "4*eps_R*Nops term; the scratchpad supplies the reuse the "
              "big RF used to hold)\n\n");
}

void printDepthCoDesign() {
  // The depth question at equal silicon: co-design capacities and PE
  // count for the 3-level and the 4-level structure under the same
  // Eyeriss area budget.
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  double Budget = eyerissAreaUm2(Tech);
  Hierarchy H3 = Hierarchy::classic3Level(Arch, Tech);
  Hierarchy H4 = Hierarchy::withScratchpad(Arch, Tech, 1024,
                                           Arch.SramWords);

  std::printf("capacity co-design at equal area (%.2f mm^2):\n",
              Budget * 1e-6);
  TablePrinter Table({"layer", "depth", "pJ/MAC", "P", "capacities"});
  ThistleOptions Co;
  Co.MaxPermClassPairs = 16;
  Co.Mode = DesignMode::CoDesign;
  for (const ConvLayer &L :
       {resnet18Layers()[1], resnet18Layers()[8], yolo9000Layers()[6]}) {
    Problem P = makeConvProblem(L);
    for (const Hierarchy *H : {&H3, &H4}) {
      ThistleResult Result = optimizeLayer(P, *H, Tech, Co, {}, Budget);
      if (!Result.Found) {
        Table.addRow({L.Name, std::to_string(H->numLevels()), "-", "-",
                      "-"});
        continue;
      }
      const RoundedHierarchyDesign &R = Result.Multi;
      std::string Caps;
      for (unsigned Lv = 0; Lv + 1 < R.Arch.numLevels(); ++Lv)
        Caps += (Lv ? " / " : "") +
                TablePrinter::formatInt(R.Arch.Levels[Lv].CapacityWords);
      Table.addRow({L.Name, std::to_string(H->numLevels()),
                    TablePrinter::formatDouble(R.Eval.EnergyPerMacPj, 2),
                    TablePrinter::formatInt(R.Arch.NumPEs), Caps});
    }
  }
  Table.print(std::cout);
  std::printf("\n");
}

void timeMultilevelOptimize(benchmark::State &State) {
  Problem P = makeConvProblem(resnet18Layers()[1]);
  TechParams Tech = TechParams::cgo45nm();
  Hierarchy H = Hierarchy::withScratchpad(eyerissArch(), Tech, 1024,
                                          eyerissArch().SramWords);
  ThistleOptions Opts;
  Opts.MaxPermClassPairs = static_cast<unsigned>(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(optimizeLayer(P, H, Tech, Opts));
}
BENCHMARK(timeMultilevelOptimize)->Arg(4)->Arg(16)->Unit(
    benchmark::kMillisecond);

} // namespace

int main(int Argc, char **Argv) {
  printHeader("Extension: arbitrary-depth hierarchies",
              "3-level Eyeriss machine vs 4-level with a per-PE "
              "scratchpad (the section III-A generality)");
  printMultilevelTable();
  printDepthCoDesign();
  return runTimings(Argc, Argv);
}
