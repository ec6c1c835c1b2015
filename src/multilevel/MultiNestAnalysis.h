//===- multilevel/MultiNestAnalysis.h - L-level analytical model -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arbitrary-depth generalization of nestmodel/NestAnalysis: for each
/// tensor and each adjacent-level boundary b (between level b and b+1),
/// the words moved across it under the Algorithm-1 counting rules:
///
///  - walk level (b+1)'s loops inner-to-outer with hoisting and the
///    streaming union on the innermost present iterator;
///  - multiply by every trip count of the levels above b+1 (per-level
///    model, no reuse across outer tiles);
///  - spatial factors: boundaries strictly below the fan-out are per-PE
///    private traffic (multiply by all spatial trips); the boundary
///    crossing the fan-out multicast-collapses absent iterators
///    (multiply by present spatial trips only, Eq. 2); boundaries above
///    the fan-out carry tiles that already span the grid (no spatial
///    multiplier).
///
/// Plus occupancy per level and the energy/delay evaluation:
/// energy = (4 eps_0 + eps_op) Nops + sum_b W_b (eps_b + eps_{b+1});
/// cycles = max(Nops / PEs, max_l (W_{l-1} + W_l) / (BW_l * instances)).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_MULTILEVEL_MULTINESTANALYSIS_H
#define THISTLE_MULTILEVEL_MULTINESTANALYSIS_H

#include "multilevel/MultiMapping.h"

#include <cstdint>
#include <string>
#include <vector>

namespace thistle {

/// Access volumes of one mapping on one hierarchy.
struct MultiProfile {
  /// Words[b][t]: words moved across boundary b (levels b <-> b+1) for
  /// tensor t, reads + writes (read-write tensors count twice).
  std::vector<std::vector<std::int64_t>> Words;
  /// Occupancy[l]: sum of tensor tile footprints resident at level l.
  std::vector<std::int64_t> Occupancy;
  std::int64_t PEsUsed = 1;

  /// Total words across boundary \p B over all tensors.
  std::int64_t boundaryWords(unsigned B) const;
};

/// Words of tensor \p T moved across one boundary under the counting
/// rules above: the loops of the level above it (\p Perm outer-to-inner,
/// trip counts \p Trips) walked inner-to-outer with hoisting, the
/// streaming union of the level-below tile \p TileExtents, times \p Outer
/// (the trip counts of every enclosing level and the boundary's spatial
/// multiplier). Read-write tensors count twice. analyzeMultiNest counts
/// every boundary with it; rounding counts the DRAM boundary with it to
/// bound a candidate before pricing it (thistle/Rounding.h).
std::int64_t tensorBoundaryWords(const Tensor &T,
                                 const std::vector<unsigned> &Perm,
                                 const std::vector<std::int64_t> &Trips,
                                 const std::vector<std::int64_t> &TileExtents,
                                 std::int64_t Outer);

/// Analyzes \p Map on \p H (both must validate).
MultiProfile analyzeMultiNest(const Problem &Prob, const Hierarchy &H,
                              const MultiMapping &Map);

/// Evaluated metrics of one multilevel design, with the paper's Eq. 3
/// energy decomposition and Eq. 5/section V-B delay decomposition carried
/// as per-level vectors. On a classic 3-level machine the components map
/// onto the fixed-depth EvalResult exactly (bit-for-bit):
/// EnergyPerLevelPj = {Reg, Sram, Dram} and CyclesPerLevel =
/// {0, SramCycles, DramCycles}.
struct MultiEvalResult {
  bool Legal = false;
  std::string IllegalReason;

  double EnergyPj = 0.0;
  double EnergyPerMacPj = 0.0;
  /// (4 eps_0 + eps_op) * Nops: the compute term including the register
  /// accesses of every MAC.
  double MacEnergyPj = 0.0;
  /// EnergyPerLevelPj[l] = eps_l * (W_{l-1} + W_l): each level's access
  /// energy over the traffic of its two adjacent boundaries (W_{-1} =
  /// W_{L-1} = 0). EnergyPj = MacEnergyPj + sum_l EnergyPerLevelPj[l].
  std::vector<double> EnergyPerLevelPj;

  double EdpPjCycles = 0.0;

  double Cycles = 0.0;
  double ComputeCycles = 0.0; ///< Nops / PEsUsed.
  /// CyclesPerLevel[l] = (W_{l-1} + W_l) / (BW_l * instances), l >= 1;
  /// instances = PEsUsed for per-PE levels, 1 for shared ones.
  /// CyclesPerLevel[0] = 0 (register accesses ride the MAC pipe).
  std::vector<double> CyclesPerLevel;
  double MacIpc = 0.0;

  MultiProfile Profile;
};

/// Evaluates \p Map on \p H.
MultiEvalResult evaluateMultiMapping(const Problem &Prob, const Hierarchy &H,
                                     const MultiMapping &Map);

/// Prices an access-count profile: legality against the level capacities
/// and PE count, the Eq. 3 energy decomposition and the Eq. 5/section V-B
/// delay decomposition. This is the backend-neutral half of
/// evaluateMultiMapping — every CostEvaluator backend produces a
/// MultiProfile its own way and shares this pricing, so two backends that
/// agree on counts agree on energy/delay bit for bit.
MultiEvalResult priceMultiProfile(const Problem &Prob, const Hierarchy &H,
                                  MultiProfile Profile);

/// The metrics priceMultiProfile gives a profile on \p H that uses
/// \p PEsUsed PEs and moves \p OuterWords words across the outermost
/// boundary but nothing across any inner one. Its arithmetic is
/// non-decreasing in every boundary's traffic, so for each profile with
/// that PE count and outermost traffic, the returned EnergyPj, Cycles and
/// EdpPjCycles are lower bounds on the priced ones, exactly in floating
/// point. Legality, the profile and the per-level vectors are left empty.
MultiEvalResult outerTrafficFloor(const Problem &Prob, const Hierarchy &H,
                                  std::int64_t PEsUsed,
                                  std::int64_t OuterWords);

} // namespace thistle

#endif // THISTLE_MULTILEVEL_MULTINESTANALYSIS_H
