//===- multilevel/MultiGp.h - L-level GP sweep ------------------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optimizes one layer onto a hierarchy of arbitrary depth — the
/// "arbitrary number of tiling levels" generality that section III
/// claims for Algorithm 1: one GP per combination of permutation classes
/// (one class per level above the registers), each built, solved and
/// rounded by the same engine as the classic pair sweep
/// (thistle/GpBuilder.h, thistle/Rounding.h), with the same halo-bound
/// fallback. On Hierarchy::classic3Level, with every combination solved,
/// it returns optimizeLayer's design for a problem without symmetries
/// (where the pair sweep prunes no mirror pair).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_MULTILEVEL_MULTIGP_H
#define THISTLE_MULTILEVEL_MULTIGP_H

#include "multilevel/MultiNestAnalysis.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/Objective.h"
#include "solver/GpSolver.h"
#include "support/Status.h"
#include "support/SweepReport.h"

#include <chrono>
#include <string>
#include <vector>

namespace thistle {

/// Multilevel optimizer configuration.
struct MultiOptions {
  SearchObjective Objective = SearchObjective::Energy;
  /// When true, the per-level capacities and the PE count become GP
  /// variables under AreaBudgetUm2 (the Eq. 5 co-design generalized to
  /// arbitrary depth): level 0 is priced as a register file
  /// (eps = sigma_R * C, Area_R per word, per PE), intermediate levels
  /// as SRAMs (eps = sigma_S * sqrt(C); per-PE levels pay area once per
  /// PE), the outermost level as DRAM. The input hierarchy supplies the
  /// structure (depth, fan-out, bandwidths, DRAM energy).
  bool CoDesignCapacities = false;
  double AreaBudgetUm2 = 0.0;
  TechParams Tech = TechParams::cgo45nm();
  /// Iterator names never tiled temporally (whole at level 0; may still
  /// be unrolled spatially).
  std::vector<std::string> UntiledIterNames = {"r", "s"};
  /// Cap on permutation-class combinations across the L-1 permuted
  /// levels (the combination space grows as classes^(L-1)). Under the
  /// cap the combos are spread evenly over the space; level 1's class
  /// is the most significant digit of a combo's index.
  unsigned MaxPermCombos = 48;
  /// Divisor candidates per rounding step (the paper's n).
  unsigned NumCandidates = 2;
  /// Cap on integer candidates evaluated per rounded solution.
  std::size_t MaxMappingCandidates = 4000;
  /// Worker threads for the combo sweep (0 = one per hardware thread).
  /// The result is bit-identical at every thread count: combos fold into
  /// per-shard winners merged in combo order with a strict minimum.
  unsigned Threads = 0;
  GpSolverOptions Solver;
  /// Wall-clock budget for the combo sweep (0 = unlimited); combos
  /// starting after the deadline are skipped and the sweep returns the
  /// best of the completed ones (see ThistleOptions::Deadline).
  std::chrono::milliseconds Deadline{0};
  /// Absolute deadline (steady clock); overrides Deadline when set.
  std::chrono::steady_clock::time_point DeadlineAt{};
  /// Cost-model backend scoring the rounded integer candidates; null
  /// selects the nest model (bit-identical to the pre-interface
  /// behavior). Must be thread-safe: combos evaluate concurrently.
  const CostEvaluator *Evaluator = nullptr;
};

/// Best multilevel design found.
struct MultiResult {
  bool Found = false;
  /// Non-Ok when the hierarchy or options failed validation up front;
  /// no combo was attempted in that case.
  Status InputStatus;
  /// Per-combo solved/retried/failed/skipped accounting (incident
  /// coordinates: A = combo index in the full combination space).
  SweepReport Report;
  MultiMapping Map;
  MultiEvalResult Eval;
  /// The hierarchy the winner runs on: the input hierarchy, or the
  /// co-designed one when CoDesignCapacities is set.
  Hierarchy Arch;
  double ModelObjective = 0.0;
  unsigned CombosSolved = 0;
  unsigned GpInfeasible = 0;
};

/// Optimizes the tiling of \p Prob onto the fixed hierarchy \p H.
MultiResult optimizeHierarchy(const Problem &Prob, const Hierarchy &H,
                              const MultiOptions &Options = MultiOptions());

} // namespace thistle

#endif // THISTLE_MULTILEVEL_MULTIGP_H
