//===- multilevel/MultiNestAnalysis.cpp - L-level analytical model --------===//

#include "multilevel/MultiNestAnalysis.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <utility>

using namespace thistle;

namespace {

/// Result of the Algorithm-1 walk of one level for one tensor (shared
/// with nestmodel's fixed-depth version in spirit; reimplemented here
/// over the generic level structure).
struct LevelWalk {
  std::int64_t Multiplier = 1;
  std::optional<unsigned> StreamIter;
  std::int64_t StreamTrip = 1;
};

LevelWalk walkLevel(const Tensor &T, const std::vector<unsigned> &Perm,
                    const std::vector<std::int64_t> &Trips) {
  LevelWalk Walk;
  bool CanHoist = true;
  for (std::size_t Pos = Perm.size(); Pos > 0; --Pos) {
    unsigned It = Perm[Pos - 1];
    std::int64_t Trip = Trips[It];
    if (Trip == 1)
      continue;
    if (CanHoist) {
      if (T.usesIter(It)) {
        CanHoist = false;
        Walk.StreamIter = It;
        Walk.StreamTrip = Trip;
      }
    } else {
      Walk.Multiplier *= Trip;
    }
  }
  return Walk;
}

/// Exact union of StreamTrip consecutive tiles (min(E, shift) per dim).
std::int64_t unionWords(const Tensor &T,
                        const std::vector<std::int64_t> &Extents,
                        const LevelWalk &Walk) {
  std::int64_t Words = 1;
  for (const DimRef &D : T.Dims) {
    std::int64_t DimExtent = D.extentFor(Extents);
    if (Walk.StreamIter && D.uses(*Walk.StreamIter)) {
      std::int64_t Stride = 0;
      for (const DimRef::Term &Term : D.Terms)
        if (Term.Iter == *Walk.StreamIter)
          Stride = Term.Stride;
      std::int64_t Shift = Stride * Extents[*Walk.StreamIter];
      DimExtent += (Walk.StreamTrip - 1) * std::min(DimExtent, Shift);
    }
    Words *= DimExtent;
  }
  return Words;
}

} // namespace

std::int64_t thistle::tensorBoundaryWords(
    const Tensor &T, const std::vector<unsigned> &Perm,
    const std::vector<std::int64_t> &Trips,
    const std::vector<std::int64_t> &TileExtents, std::int64_t Outer) {
  LevelWalk Walk = walkLevel(T, Perm, Trips);
  std::int64_t Volume =
      Walk.Multiplier * Outer * unionWords(T, TileExtents, Walk);
  return T.ReadWrite ? 2 * Volume : Volume;
}

std::int64_t MultiProfile::boundaryWords(unsigned B) const {
  std::int64_t Sum = 0;
  for (std::int64_t W : Words[B])
    Sum += W;
  return Sum;
}

MultiProfile thistle::analyzeMultiNest(const Problem &Prob,
                                       const Hierarchy &H,
                                       const MultiMapping &Map) {
  assert(H.validate().empty() && "hierarchy must validate");
  assert(Map.validate(Prob, H).empty() && "mapping must validate");
  const unsigned NumIters = Prob.numIterators();
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;

  MultiProfile Profile;
  Profile.Words.assign(H.numBoundaries(),
                       std::vector<std::int64_t>(Prob.tensors().size(), 0));
  Profile.Occupancy.assign(L, 0);
  Profile.PEsUsed = Map.numPEsUsed();

  // Per-level tile extents and outer-trip products, hoisted out of the
  // per-tensor loop: this is the hot path of the mapper wrappers.
  std::vector<std::vector<std::int64_t>> Extents(L);
  for (unsigned Lv = 0; Lv < L; ++Lv)
    Extents[Lv] = Map.tileExtents(H, Lv);
  // OuterTrips[Lv] = product of every trip count of levels > Lv.
  std::vector<std::int64_t> OuterTrips(L, 1);
  for (unsigned Lv = L - 1; Lv > 0; --Lv) {
    std::int64_t LevelTrips = 1;
    for (unsigned I = 0; I < NumIters; ++I)
      LevelTrips *= Map.TempFactors[Lv][I];
    OuterTrips[Lv - 1] = OuterTrips[Lv] * LevelTrips;
  }

  for (std::size_t TI = 0; TI < Prob.tensors().size(); ++TI) {
    const Tensor &T = Prob.tensors()[TI];
    for (unsigned B = 0; B < H.numBoundaries(); ++B) {
      const unsigned WalkLevel = B + 1;
      // Every trip count of the levels above the walked one.
      std::int64_t Outer = OuterTrips[WalkLevel];
      // Spatial contribution (see file header).
      if (WalkLevel < F) {
        for (unsigned I = 0; I < NumIters; ++I)
          Outer *= Map.SpatialFactors[I];
      } else if (WalkLevel == F) {
        for (unsigned I = 0; I < NumIters; ++I)
          if (T.usesIter(I))
            Outer *= Map.SpatialFactors[I];
      }
      Profile.Words[B][TI] =
          tensorBoundaryWords(T, Map.Perms[WalkLevel],
                              Map.TempFactors[WalkLevel], Extents[B], Outer);
    }
    for (unsigned Lv = 0; Lv < L; ++Lv)
      Profile.Occupancy[Lv] += T.footprintWords(Extents[Lv]);
  }
  return Profile;
}

MultiEvalResult thistle::evaluateMultiMapping(const Problem &Prob,
                                              const Hierarchy &H,
                                              const MultiMapping &Map) {
  return priceMultiProfile(Prob, H, analyzeMultiNest(Prob, H, Map));
}

namespace {

/// Prices the boundary traffic Traffic(b), the words across boundary b as
/// a double (0 past either end, W_{-1} = W_{L-1} = 0), into Out's energy
/// and delay metrics, and into the per-level decomposition when
/// \p PerLevel is set. Every operation is a sum, a product or quotient by
/// a positive constant, or a maximum of non-negative terms, so the result
/// is non-decreasing in each Traffic(b): less traffic never prices
/// higher, in floating point as in exact arithmetic.
template <typename TrafficFn>
void priceTraffic(const Problem &Prob, const Hierarchy &H,
                  std::int64_t PEsUsed, TrafficFn Traffic, bool PerLevel,
                  MultiEvalResult &Out) {
  const unsigned L = H.numLevels();
  const double Nops = static_cast<double>(Prob.numOps());
  auto adjacent = [&](unsigned Lv) {
    return Traffic(static_cast<int>(Lv) - 1) + Traffic(static_cast<int>(Lv));
  };

  // Energy, Eq. 3 generalized: the MAC term (register accesses ride every
  // operation), then each level priced over the words crossing its two
  // adjacent boundaries. Grouping by level (not by boundary) keeps the
  // floating-point sum identical to the fixed-depth Eq. 3 components.
  Out.MacEnergyPj = (4.0 * H.Levels[0].AccessEnergyPj + H.MacEnergyPj) * Nops;
  if (PerLevel)
    Out.EnergyPerLevelPj.assign(L, 0.0);
  double Energy = Out.MacEnergyPj;
  for (unsigned Lv = 0; Lv < L; ++Lv) {
    const double LevelPj = H.Levels[Lv].AccessEnergyPj * adjacent(Lv);
    if (PerLevel)
      Out.EnergyPerLevelPj[Lv] = LevelPj;
    Energy += LevelPj;
  }
  Out.EnergyPj = Energy;
  Out.EnergyPerMacPj = Energy / Nops;

  // Delay (section V-B): compute bound plus each level's bandwidth over
  // its adjacent boundaries; private levels have one instance per used PE.
  Out.ComputeCycles = Nops / static_cast<double>(PEsUsed);
  if (PerLevel)
    Out.CyclesPerLevel.assign(L, 0.0);
  double Cycles = Out.ComputeCycles;
  for (unsigned Lv = 1; Lv < L; ++Lv) {
    const double Instances =
        Lv < H.FanoutLevel ? static_cast<double>(PEsUsed) : 1.0;
    const double LevelCycles =
        adjacent(Lv) / (H.Levels[Lv].Bandwidth * Instances);
    if (PerLevel)
      Out.CyclesPerLevel[Lv] = LevelCycles;
    Cycles = std::max(Cycles, LevelCycles);
  }
  Out.Cycles = std::max(Cycles, 1.0);
  Out.MacIpc = Nops / Out.Cycles;
  Out.EdpPjCycles = Out.EnergyPj * Out.Cycles;
}

} // namespace

MultiEvalResult thistle::priceMultiProfile(const Problem &Prob,
                                           const Hierarchy &H,
                                           MultiProfile Profile) {
  MultiEvalResult Result;
  Result.Profile = std::move(Profile);
  const MultiProfile &P = Result.Profile;

  // Text is built only for a failed check, so a legal mapping (every
  // candidate rounding prices) allocates nothing here.
  std::string &Why = Result.IllegalReason;
  for (unsigned Lv = 0; Lv + 1 < H.numLevels(); ++Lv)
    if (P.Occupancy[Lv] > H.Levels[Lv].CapacityWords)
      Why += H.Levels[Lv].Name + " tile " + std::to_string(P.Occupancy[Lv]) +
             " words > capacity " +
             std::to_string(H.Levels[Lv].CapacityWords) + "; ";
  if (P.PEsUsed > H.NumPEs)
    Why += "uses " + std::to_string(P.PEsUsed) + " PEs > available " +
           std::to_string(H.NumPEs) + "; ";
  Result.Legal = Why.empty();

  std::vector<double> W(H.numBoundaries());
  for (unsigned B = 0; B < H.numBoundaries(); ++B)
    W[B] = static_cast<double>(P.boundaryWords(B));
  priceTraffic(
      Prob, H, P.PEsUsed,
      [&](int B) {
        return B < 0 || B >= static_cast<int>(W.size()) ? 0.0 : W[B];
      },
      /*PerLevel=*/true, Result);
  return Result;
}

MultiEvalResult thistle::outerTrafficFloor(const Problem &Prob,
                                           const Hierarchy &H,
                                           std::int64_t PEsUsed,
                                           std::int64_t OuterWords) {
  const int Outer = static_cast<int>(H.numBoundaries()) - 1;
  const double W = static_cast<double>(OuterWords);
  MultiEvalResult Floor;
  priceTraffic(
      Prob, H, PEsUsed, [&](int B) { return B == Outer ? W : 0.0; },
      /*PerLevel=*/false, Floor);
  return Floor;
}
