//===- thistle/Rounding.h - Real-to-integer design conversion --*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts the solver's real solution into integer designs, following the
/// paper's section IV procedure: memory capacities are rounded to the N
/// closest powers of two; tile sizes are chosen hierarchically as
/// divisors — SRAM-level tile sizes from the divisors of each problem
/// extent, then PE-level tiles from the divisors of the chosen SRAM tile,
/// then register tiles from the divisors of the PE tile. The cross
/// product of candidates is filtered (divisibility by construction,
/// capacity/area, optional minimum utilization) and every survivor is
/// evaluated with the nestmodel (the paper's Timeloop-model role); the
/// best candidate wins.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_ROUNDING_H
#define THISTLE_THISTLE_ROUNDING_H

#include "nestmodel/CostEvaluator.h"
#include "nestmodel/Evaluator.h"
#include "thistle/GpBuilder.h"

#include <cstddef>

namespace thistle {

/// Ceiling of RoundingOptions::NumCandidates accepted from users
/// (thistle-opt --candidates, the serve "candidates" field): the
/// rounding width per GP variable.
inline constexpr unsigned MaxRoundingCandidates = 64;

/// Rounding configuration (the paper's n is NumCandidates, "typically 2
/// or 3 to avoid explosion of valid candidate solutions").
struct RoundingOptions {
  unsigned NumCandidates = 2;
  /// Minimum PEsUsed / P ratio; candidates below are filtered out
  /// (paper: "do not meet a minimum threshold on resource utilization").
  double UtilizationThreshold = 0.0;
  /// Cap on the number of (architecture, mapping) candidates evaluated
  /// per rounded solution. The depth-first cross product visits
  /// candidates nearest the real solution first, so a modest cap loses
  /// almost nothing.
  std::size_t MaxMappingCandidates = 4000;
  /// Cost-model backend scoring the integer candidates (and hence the
  /// pair-sweep and network winners built on them); null selects the
  /// nest model, bit-identically to the pre-interface behavior.
  const CostEvaluator *Evaluator = nullptr;
};

/// Best integer design found around one real solution.
struct RoundedDesign {
  bool Found = false;
  ArchConfig Arch;  ///< Fixed arch (dataflow mode) or rounded (co-design).
  Mapping Map;
  EvalResult Eval;
  std::size_t CandidatesTried = 0;
};

/// Rounds \p Real (obtained from the GP built with \p Spec) and returns
/// the best evaluated integer design.
RoundedDesign roundSolution(const Problem &Prob, const GpBuildSpec &Spec,
                            const RealSolution &Real,
                            const RoundingOptions &Options);

} // namespace thistle

#endif // THISTLE_THISTLE_ROUNDING_H
