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
/// capacity/area, optional minimum utilization) and the survivors are
/// priced with the cost model (the paper's Timeloop-model role); the
/// best candidate wins.
///
/// A candidate that provably cannot win is skipped unpriced. A win needs
/// a legal design with a strictly smaller objective than the incumbent's,
/// so two filters drop a complete candidate before the cost model sees
/// it, without changing the winner:
///  - its register or SRAM footprint exceeds the architecture's capacity
///    (tileFootprint: the cost model would flag it illegal);
///  - the objective its DRAM traffic alone forces, outerTrafficFloor of
///    dramBoundaryWords, is already >= the incumbent's (the KAPLA-style
///    bound of PAPERS.md: energy >= the MAC term + (eps_S + eps_D) *
///    W_DRAM, cycles >= max(Nops / PEsUsed, W_DRAM / BW_DRAM,
///    W_DRAM / BW_SRAM, 1), EDP >= their product).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_ROUNDING_H
#define THISTLE_THISTLE_ROUNDING_H

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

/// Best integer design found around one real solution.
struct RoundedDesign {
  bool Found = false;
  ArchConfig Arch;  ///< Fixed arch (dataflow mode) or rounded (co-design).
  Mapping Map;
  EvalResult Eval;
  /// Candidates priced by the cost model; skipped ones do not count.
  std::size_t CandidatesTried = 0;
};

/// Register (per PE) and SRAM footprints of a tiling, in words.
struct TileFootprint {
  std::int64_t RegWords = 0;
  std::int64_t SramWords = 0;

  /// Whether both fit \p Arch. For a mapping using at most Arch.NumPEs
  /// PEs this is exactly the cost model's EvalResult::Legal.
  bool fits(const ArchConfig &Arch) const {
    return RegWords <= Arch.RegWordsPerPE && SramWords <= Arch.SramWords;
  }
};

/// The footprints of register tiles \p RegTile and SRAM tiles
/// \p SramTile (per-iterator extents), summed over the tensors.
TileFootprint tileFootprint(const Problem &Prob,
                            const std::vector<std::int64_t> &RegTile,
                            const std::vector<std::int64_t> &SramTile);

/// Words crossing the DRAM <-> SRAM boundary when SRAM tiles \p SramTile
/// are enumerated by DRAM loops with trip counts \p DramTrips in order
/// \p DramPerm (outer to inner): analyzeMultiNest's count of the
/// outermost boundary, which has no enclosing loops and lies above the
/// PE fan-out.
std::int64_t dramBoundaryWords(const Problem &Prob,
                               const std::vector<unsigned> &DramPerm,
                               const std::vector<std::int64_t> &DramTrips,
                               const std::vector<std::int64_t> &SramTile);

/// Rounds \p Real (obtained from the GP built with \p Spec) and returns
/// the best evaluated integer design.
RoundedDesign roundSolution(const Problem &Prob, const GpBuildSpec &Spec,
                            const RealSolution &Real,
                            const RoundingOptions &Options);

} // namespace thistle

#endif // THISTLE_THISTLE_ROUNDING_H
