//===- bench/bench_fig1_matmul_volumes.cpp - Paper Fig. 1 / Eq. 1-2 -------===//
//
// Verifies the Section II derivation: Algorithm 1's symbolic data volumes
// for the Fig. 1 matmul tiling match the paper's closed forms (Eq. 1 and
// Eq. 2) across a sweep of tile-size choices, and the brute-force oracle
// agrees on concrete integer instances. Then times the GP solve for the
// matmul dataflow problem.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "sim/TiledLoopSim.h"
#include "support/TablePrinter.h"
#include "thistle/ExprGen.h"
#include "thistle/GpBuilder.h"

#include <cmath>
#include <iostream>

using namespace thistle;

namespace {

void printVolumeSweep() {
  TablePrinter Table({"N", "Si=Sj=Sk", "DV_A D<->S", "Eq.1 NiNk",
                      "DV_B D<->S", "Eq.1 NiNjNk/Si", "oracle A",
                      "oracle B"});
  for (std::int64_t N : {16, 32, 64}) {
    for (std::int64_t Tile : {2, 4, 8}) {
      Problem P = makeMatmulProblem(N, N, N);
      VarTable Vars;
      ExprGen EG(P, Hierarchy::classic3Shape(), Vars);
      unsigned Ii = P.iteratorIndex("i"), Ij = P.iteratorIndex("j"),
               Ik = P.iteratorIndex("k");
      std::vector<unsigned> DramPerm = {Ii, Ik, Ij};
      std::vector<unsigned> PePerm = {Ii, Ij, Ik};

      // Mapping: register tiles = Tile, one SRAM tile of Tile per dim.
      Mapping M = Mapping::untiled(P);
      for (unsigned I : {Ii, Ij, Ik}) {
        M.factor(I, TileLevel::Register) = Tile;
        M.factor(I, TileLevel::DramTemporal) = N / Tile;
      }
      M.DramPerm = {Ii, Ik, Ij};
      M.PePerm = {Ii, Ij, Ik};

      Assignment A(Vars.size(), 1.0);
      for (unsigned I : {Ii, Ij, Ik}) {
        A[EG.tripVar(0, I)] = static_cast<double>(Tile);
        A[EG.tripVar(2, I)] = static_cast<double>(N / Tile);
      }

      TensorSymbolicModel MA = EG.buildTensorModel(1, {{}, PePerm, DramPerm});
      TensorSymbolicModel MB = EG.buildTensorModel(2, {{}, PePerm, DramPerm});
      SimResult Oracle = simulateTiledNest(P, M);

      double DvA = MA.Volume[1].evaluate(A);
      double DvB = MB.Volume[1].evaluate(A);
      Table.addRow(
          {TablePrinter::formatInt(N), TablePrinter::formatInt(Tile),
           TablePrinter::formatDouble(DvA, 0),
           TablePrinter::formatInt(N * N),
           TablePrinter::formatDouble(DvB, 0),
           TablePrinter::formatInt(N * N * N / Tile),
           TablePrinter::formatInt(Oracle.PerTensor[1].DramToSram),
           TablePrinter::formatInt(Oracle.PerTensor[2].DramToSram)});
    }
  }
  Table.print(std::cout);
  std::printf("\n(DV_A must equal Ni*Nk and the oracle columns must match "
              "the symbolic ones.)\n\n");
}

void timeMatmulGpSolve(benchmark::State &State) {
  Problem P = makeMatmulProblem(1024, 1024, 1024);
  unsigned Ii = P.iteratorIndex("i"), Ij = P.iteratorIndex("j"),
           Ik = P.iteratorIndex("k");
  GpBuildSpec Spec;
  Spec.PePerm = {Ii, Ij, Ik};
  Spec.DramPerm = {Ii, Ik, Ij};
  Spec.TiledIters = {Ii, Ij, Ik};
  Spec.Arch = eyerissArch();
  for (auto _ : State) {
    GpBuild Build = buildGp(P, Spec);
    benchmark::DoNotOptimize(solveGp(Build.Gp));
  }
}
BENCHMARK(timeMatmulGpSolve);

} // namespace

int main(int Argc, char **Argv) {
  thistle::bench::printHeader(
      "Fig. 1 / Eq. 1-2",
      "Matmul data-volume closed forms: symbolic vs. paper vs. oracle "
      "(DRAM loops <i,k,j>, register loops <i,j,k>)");
  printVolumeSweep();
  return thistle::bench::runTimings(Argc, Argv);
}
