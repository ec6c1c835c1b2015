//===- thistle/Rounding.h - Real-to-integer design conversion --*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts the solver's real solution into integer designs, following the
/// paper's section IV procedure, on a hierarchy of any depth: memory
/// capacities are rounded to the N closest powers of two; tile sizes are
/// chosen hierarchically as divisors, outer to inner — the outermost
/// on-chip tile from the divisors of each problem extent, each tile
/// further in from the divisors of the one around it, down to the
/// register tile (on the classic machine: SRAM tile, per-PE tile,
/// register tile). The cross product of candidates is filtered
/// (divisibility by construction, capacity/area, optional minimum
/// utilization) and the survivors are priced with the cost model (the
/// paper's Timeloop-model role) as MultiMappings on their hierarchy; the
/// best candidate wins.
///
/// A candidate that provably cannot win is skipped unpriced. A win needs
/// a legal design with a strictly smaller objective than the incumbent's,
/// so two filters drop a complete candidate before the cost model sees
/// it, without changing the winner:
///  - a level's footprint exceeds the level's capacity (tileFootprint:
///    the cost model would flag it illegal);
///  - the objective its outermost (DRAM) traffic alone forces,
///    outerTrafficFloor of outerBoundaryWords, is already >= the
///    incumbent's (the KAPLA-style bound of PAPERS.md: energy >= the MAC
///    term + (eps_S + eps_D) * W_DRAM, cycles >= max(Nops / PEsUsed,
///    W_DRAM / BW_DRAM, W_DRAM / BW_SRAM, 1), EDP >= their product).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_ROUNDING_H
#define THISTLE_THISTLE_ROUNDING_H

#include "multilevel/MultiMapping.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/Evaluator.h"
#include "thistle/GpBuilder.h"

#include <cstddef>
#include <cstdint>
#include <vector>

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
  /// Cap on the number of (architecture, mapping) candidates considered
  /// per rounded solution, priced or skipped: every candidate that passes
  /// the PE-count and utilization filters counts. The depth-first cross
  /// product visits candidates nearest the real solution first, so a
  /// modest cap loses almost nothing.
  std::size_t MaxMappingCandidates = 4000;
  /// Cost-model backend scoring the integer candidates (and hence the
  /// pair-sweep and network winners built on them); null selects the
  /// nest model, bit-identically to the pre-interface behavior.
  const CostEvaluator *Evaluator = nullptr;
};

/// Best integer design found around one real solution on a hierarchy.
struct RoundedHierarchyDesign {
  bool Found = false;
  /// The input hierarchy (dataflow mode) or its rounded co-design.
  Hierarchy Arch;
  MultiMapping Map;
  MultiEvalResult Eval;
  /// Candidates priced by the cost model; skipped ones do not count.
  std::size_t CandidatesTried = 0;
};

/// Best integer design found around one real solution of a classic GP.
struct RoundedDesign {
  bool Found = false;
  ArchConfig Arch;  ///< Fixed arch (dataflow mode) or rounded (co-design).
  Mapping Map;
  EvalResult Eval;
  /// Candidates priced by the cost model; skipped ones do not count.
  std::size_t CandidatesTried = 0;
};

/// Words of every tensor's tile of per-iterator extents \p TileExtents,
/// summed: the occupancy of a level holding such tiles.
std::int64_t tileFootprint(const Problem &Prob,
                           const std::vector<std::int64_t> &TileExtents);

/// Words crossing the outermost boundary of \p H when \p Map's outermost
/// loops enumerate tiles of extents \p TileExtents (its level L-2
/// tiles): analyzeMultiNest's count of that boundary, which has no
/// enclosing loops.
std::int64_t outerBoundaryWords(const Problem &Prob, const Hierarchy &H,
                                const MultiMapping &Map,
                                const std::vector<std::int64_t> &TileExtents);

/// Rounds \p Real (obtained from the GP built for \p H with \p Spec) and
/// returns the best evaluated integer design.
RoundedHierarchyDesign roundSolution(const Problem &Prob, const Hierarchy &H,
                                     const HierarchyGpSpec &Spec,
                                     const RealSolution &Real,
                                     const RoundingOptions &Options);

/// \p Design, rounded on Hierarchy::classic3Level(\p Arch, ...), in the
/// classic machine's terms.
RoundedDesign classicDesign(const Problem &Prob, const ArchConfig &Arch,
                            const RoundedHierarchyDesign &Design);

/// Rounds \p Real (obtained from the GP built with the classic \p Spec)
/// on its classic machine.
RoundedDesign roundSolution(const Problem &Prob, const GpBuildSpec &Spec,
                            const RealSolution &Real,
                            const RoundingOptions &Options);

} // namespace thistle

#endif // THISTLE_THISTLE_ROUNDING_H
