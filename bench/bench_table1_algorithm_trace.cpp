//===- bench/bench_table1_algorithm_trace.cpp - Paper Table I -------------===//
//
// Reproduces Table I: the step-by-step construction of the data-volume
// expressions DV^1 for the In and Out tensors of the CNN, with tile-loop
// permutation <w, n, k, h, c, s, r> and strides (1, 2), exactly as the
// paper traces Algorithm 1. Then times Algorithm 1 itself.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/TablePrinter.h"
#include "thistle/ExprGen.h"

#include <iostream>

using namespace thistle;

namespace {

Problem tableIProblem() {
  // In[n][c][h + r][2w + s]: stride 1 vertically, 2 horizontally.
  ConvLayer L;
  L.K = 8;
  L.C = 8;
  L.Hin = 16;
  L.Win = 16;
  L.R = 3;
  L.S = 3;
  L.StrideX = 1;
  L.StrideY = 2;
  return makeConvProblem(L);
}

void printTableI() {
  Problem P = tableIProblem();
  VarTable Vars;
  ExprGen EG(P, Hierarchy::classic3Shape(), Vars);

  std::vector<unsigned> Perm = {
      P.iteratorIndex("w"), P.iteratorIndex("n"), P.iteratorIndex("k"),
      P.iteratorIndex("h"), P.iteratorIndex("c"), P.iteratorIndex("s"),
      P.iteratorIndex("r")};

  TablePrinter Table({"Step", "Iter", "In (DV)", "Out (DV)"});
  std::vector<std::string> InSteps, OutSteps, Iters;
  auto trace = [&](unsigned TensorIdx, std::vector<std::string> &Steps) {
    EG.constructExpr(TensorIdx, Perm, /*Level=*/1,
                     EG.registerFootprint(TensorIdx),
                     [&](unsigned It, const LevelExprs &State) {
                       if (TensorIdx == 1)
                         Iters.push_back(P.iterators()[It].Name);
                       Steps.push_back(State.DV.toString(Vars));
                     });
  };
  trace(1, InSteps);
  trace(0, OutSteps);

  Table.addRow({"DF^0", "",
                EG.registerFootprint(1).toString(Vars),
                EG.registerFootprint(0).toString(Vars)});
  for (std::size_t I = 0; I < InSteps.size(); ++I)
    Table.addRow({std::to_string(I + 1), Iters[I], InSteps[I], OutSteps[I]});
  Table.print(std::cout);
  std::printf(
      "\nPaper's final row: In = q_w q_n q_k q_h q_c q_s (r_n r_c (r_h + "
      "q_r r_r - 1)(2 r_w + r_s - 2)),\n                   Out = 2 q_w q_n "
      "q_k (r_n r_k q_h r_h r_w)\n\n");
}

void timeAlgorithm1(benchmark::State &State) {
  Problem P = tableIProblem();
  std::vector<unsigned> Perm = {
      P.iteratorIndex("w"), P.iteratorIndex("n"), P.iteratorIndex("k"),
      P.iteratorIndex("h"), P.iteratorIndex("c"), P.iteratorIndex("s"),
      P.iteratorIndex("r")};
  for (auto _ : State) {
    VarTable Vars;
    ExprGen EG(P, Hierarchy::classic3Shape(), Vars);
    for (unsigned T = 0; T < 3; ++T)
      benchmark::DoNotOptimize(
          EG.constructExpr(T, Perm, /*Level=*/1, EG.registerFootprint(T)));
  }
}
BENCHMARK(timeAlgorithm1);

void timeFullTensorModel(benchmark::State &State) {
  Problem P = tableIProblem();
  std::vector<unsigned> Tiled = {P.iteratorIndex("k"), P.iteratorIndex("c"),
                                 P.iteratorIndex("h"), P.iteratorIndex("w")};
  for (auto _ : State) {
    VarTable Vars;
    ExprGen EG(P, Hierarchy::classic3Shape(), Vars);
    for (unsigned T = 0; T < 3; ++T)
      benchmark::DoNotOptimize(EG.buildTensorModel(T, {{}, Tiled, Tiled}));
  }
}
BENCHMARK(timeFullTensorModel);

} // namespace

int main(int Argc, char **Argv) {
  thistle::bench::printHeader(
      "Table I", "Algorithm 1 trace: DV^1 for In and Out, permutation "
                 "<w,n,k,h,c,s,r>, strides (1,2)");
  printTableI();
  return thistle::bench::runTimings(Argc, Argv);
}
