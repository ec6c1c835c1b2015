//===- examples/matmul_codesign.cpp - The Section II walkthrough ----------===//
//
// Reproduces the paper's illustrative matrix-multiplication example
// (Section II): generates the symbolic data-volume expressions of
// Eq. 1 / Eq. 2 with Algorithm 1, prints them in the paper's notation,
// then solves the architecture-dataflow co-design problem of Eq. 5 for a
// 1024^3 matmul under the Eyeriss area budget.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "thistle/ExprGen.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace thistle;

int main() {
  const std::int64_t N = 1024;
  Problem Prob = makeMatmulProblem(N, N, N);

  // ---- Symbolic modeling (Section II / Section III-A).
  VarTable Vars;
  ExprGen EG(Prob, Hierarchy::classic3Shape(), Vars);
  unsigned Ii = Prob.iteratorIndex("i"), Ij = Prob.iteratorIndex("j"),
           Ik = Prob.iteratorIndex("k");
  // The paper's Fig. 1 permutations: SRAM-level <i, k, j> (iki in the
  // paper's outer-to-inner shorthand), register-level <i, j, k>.
  std::vector<unsigned> DramPerm = {Ii, Ik, Ij};
  std::vector<unsigned> PePerm = {Ii, Ij, Ik};

  std::printf("Symbolic data volumes for C[i][j] += A[i][k]*B[k][j]\n");
  std::printf("(DRAM-level loops <i,k,j>, register-level loops <i,j,k>;\n");
  std::printf(" trip-count variables: s_* DRAM, p_* spatial, q_* per-PE,\n");
  std::printf(" r_* register; read-write tensors carry the factor 2)\n\n");
  for (unsigned TI = 0; TI < Prob.tensors().size(); ++TI) {
    TensorSymbolicModel M = EG.buildTensorModel(TI, {{}, PePerm, DramPerm});
    const char *Name = Prob.tensors()[TI].Name.c_str();
    std::printf("%s:\n", Name);
    std::printf("  DF^0 (register tile)  = %s\n",
                M.Footprint[0].toString(Vars).c_str());
    std::printf("  DF^2 (SRAM tile)      = %s\n",
                M.Footprint[1].toString(Vars).c_str());
    std::printf("  DV (SRAM <-> regs)    = %s\n",
                M.Volume[0].toString(Vars).c_str());
    std::printf("  DV (DRAM <-> SRAM)    = %s\n\n",
                M.Volume[1].toString(Vars).c_str());
  }

  // ---- Co-design optimization (Eq. 5) at the Eyeriss area budget.
  TechParams Tech = TechParams::cgo45nm();
  ThistleOptions Opts;
  Opts.Mode = DesignMode::CoDesign;
  Opts.UntiledIterNames = {}; // Matmul has no stencil dimensions.
  ThistleResult R =
      optimizeLayer(Prob, eyerissArch(), Tech, Opts, eyerissAreaUm2(Tech));
  if (!R.Found) {
    std::printf("co-design found no legal point\n");
    return 1;
  }
  std::printf("Co-design for %lld^3 matmul at %.2f mm^2:\n",
              static_cast<long long>(N), eyerissAreaUm2(Tech) * 1e-6);
  std::printf("  P=%lld PEs, R=%lld regs/PE, S=%lld SRAM words\n",
              static_cast<long long>(R.Arch.NumPEs),
              static_cast<long long>(R.Arch.RegWordsPerPE),
              static_cast<long long>(R.Arch.SramWords));
  std::printf("  energy %.3f pJ/MAC, IPC %.1f\n", R.Eval.EnergyPerMacPj,
              R.Eval.MacIpc);
  std::printf("  permutation classes per level: %u (of %u raw perms)\n",
              R.Stats.PermClassesPerLevel, R.Stats.RawPermsPerLevel);
  std::printf("%s", R.Map.toString(Prob).c_str());
  return 0;
}
