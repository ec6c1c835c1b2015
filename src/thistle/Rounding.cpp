//===- thistle/Rounding.cpp - Real-to-integer design conversion -----------===//

#include "thistle/Rounding.h"

#include "support/MathUtil.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace thistle;

namespace {

/// One per-iterator integer tiling choice: the (SRAM, PE, register) tile
/// size chain with SramTile | extent, PeTile | SramTile, RegTile | PeTile.
struct IterChoice {
  std::int64_t SramTile, PeTile, RegTile;
};

/// Enumerates the hierarchical divisor candidates for one iterator around
/// its real solution (paper section IV).
std::vector<IterChoice> iterChoices(std::int64_t Extent,
                                    const std::array<double, NumTileLevels> &T,
                                    unsigned N) {
  const double RealReg = T[static_cast<unsigned>(TileLevel::Register)];
  const double RealPe =
      RealReg * T[static_cast<unsigned>(TileLevel::PeTemporal)];
  const double RealSram = RealPe * T[static_cast<unsigned>(TileLevel::Spatial)];

  std::vector<IterChoice> Out;
  for (std::int64_t Sram : closestDivisors(Extent, RealSram, N))
    for (std::int64_t Pe : closestDivisors(Sram, RealPe, N))
      for (std::int64_t Reg : closestDivisors(Pe, RealReg, N))
        Out.push_back({Sram, Pe, Reg});
  // The nested divisor chains can repeat choices; deduplicate.
  std::sort(Out.begin(), Out.end(), [](const IterChoice &A,
                                       const IterChoice &B) {
    return std::tie(A.SramTile, A.PeTile, A.RegTile) <
           std::tie(B.SramTile, B.PeTile, B.RegTile);
  });
  Out.erase(std::unique(Out.begin(), Out.end(),
                        [](const IterChoice &A, const IterChoice &B) {
                          return A.SramTile == B.SramTile &&
                                 A.PeTile == B.PeTile && A.RegTile == B.RegTile;
                        }),
            Out.end());
  // Visit candidates nearest the real solution first, so that the
  // depth-first cross product under the evaluation cap concentrates on
  // the neighbourhood of the GP optimum.
  auto logDist = [](std::int64_t V, double Real) {
    return std::abs(std::log(static_cast<double>(V)) -
                    std::log(std::max(Real, 1.0)));
  };
  std::stable_sort(Out.begin(), Out.end(),
                   [&](const IterChoice &A, const IterChoice &B) {
                     double DA = logDist(A.SramTile, RealSram) +
                                 logDist(A.PeTile, RealPe) +
                                 logDist(A.RegTile, RealReg);
                     double DB = logDist(B.SramTile, RealSram) +
                                 logDist(B.PeTile, RealPe) +
                                 logDist(B.RegTile, RealReg);
                     return DA < DB;
                   });
  return Out;
}

/// Materializes a full outer-to-inner permutation: the tiled-iterator
/// representative order followed by all remaining iterators (whose trip
/// counts at this level are 1, making their position irrelevant).
std::vector<unsigned> fullPermutation(const Problem &Prob,
                                      const std::vector<unsigned> &TiledPerm) {
  std::vector<unsigned> Perm = TiledPerm;
  std::vector<bool> Used(Prob.numIterators(), false);
  for (unsigned I : TiledPerm)
    Used[I] = true;
  for (unsigned I = 0; I < Prob.numIterators(); ++I)
    if (!Used[I])
      Perm.push_back(I);
  return Perm;
}

/// Architecture candidates around the real solution.
std::vector<ArchConfig> archCandidates(const GpBuildSpec &Spec,
                                       const RealSolution &Real, unsigned N) {
  if (Spec.Mode == DesignMode::DataflowOnly)
    return {Spec.Arch};

  std::vector<std::int64_t> RegChoices =
      closestPowersOfTwo(Real.RegWords, N, /*MinValue=*/4);
  std::vector<std::int64_t> SramChoices =
      closestPowersOfTwo(Real.SramWords, N, /*MinValue=*/16);
  std::vector<std::int64_t> PeChoices;
  std::int64_t Floor = static_cast<std::int64_t>(std::floor(Real.NumPEs));
  std::int64_t Ceil = static_cast<std::int64_t>(std::ceil(Real.NumPEs));
  PeChoices.push_back(std::max<std::int64_t>(1, Floor));
  if (Ceil != Floor)
    PeChoices.push_back(std::max<std::int64_t>(1, Ceil));

  std::vector<ArchConfig> Out;
  for (std::int64_t R : RegChoices)
    for (std::int64_t S : SramChoices)
      for (std::int64_t P : PeChoices) {
        ArchConfig Arch = Spec.Arch; // Keeps the bandwidth parameters.
        Arch.RegWordsPerPE = R;
        Arch.SramWords = S;
        Arch.NumPEs = P;
        if (Arch.areaUm2(Spec.Tech) <= Spec.AreaBudgetUm2)
          Out.push_back(Arch);
      }
  return Out;
}

} // namespace

TileFootprint
thistle::tileFootprint(const Problem &Prob,
                       const std::vector<std::int64_t> &RegTile,
                       const std::vector<std::int64_t> &SramTile) {
  TileFootprint F;
  for (const Tensor &T : Prob.tensors()) {
    F.RegWords += T.footprintWords(RegTile);
    F.SramWords += T.footprintWords(SramTile);
  }
  return F;
}

std::int64_t
thistle::dramBoundaryWords(const Problem &Prob,
                           const std::vector<unsigned> &DramPerm,
                           const std::vector<std::int64_t> &DramTrips,
                           const std::vector<std::int64_t> &SramTile) {
  std::int64_t Words = 0;
  for (const Tensor &T : Prob.tensors())
    Words += tensorBoundaryWords(T, DramPerm, DramTrips, SramTile,
                                 /*Outer=*/1);
  return Words;
}

RoundedDesign thistle::roundSolution(const Problem &Prob,
                                     const GpBuildSpec &Spec,
                                     const RealSolution &Real,
                                     const RoundingOptions &Options) {
  RoundedDesign Best;
  EnergyModel Energy(Spec.Tech);
  const CostEvaluator &Evaluator = resolveCostEvaluator(Options.Evaluator);

  // Per-iterator candidate chains (single fixed choice for untiled ones).
  const unsigned NumIters = Prob.numIterators();
  std::vector<std::vector<IterChoice>> Choices(NumIters);
  for (unsigned I = 0; I < NumIters; ++I) {
    std::int64_t Extent = Prob.iterators()[I].Extent;
    bool Tiled = std::find(Spec.TiledIters.begin(), Spec.TiledIters.end(),
                           I) != Spec.TiledIters.end();
    if (Tiled) {
      Choices[I] = iterChoices(Extent, Real.Trips[I], Options.NumCandidates);
    } else {
      // Untiled: no temporal trips (SramTile == Extent, PeTile ==
      // RegTile), but the extent may split between the register and
      // spatial levels when the GP chose p > 1 (Eyeriss-style stencil
      // unrolling). Divisor candidates follow the real register tile.
      double RealReg = Real.Trips[I][static_cast<unsigned>(
          TileLevel::Register)];
      for (std::int64_t Reg :
           closestDivisors(Extent, RealReg, Options.NumCandidates))
        Choices[I].push_back({Extent, Reg, Reg});
    }
  }

  std::vector<ArchConfig> Archs = archCandidates(Spec, Real,
                                                 Options.NumCandidates);
  if (Archs.empty())
    return Best;
  // The largest capacities/PE count among candidates, used for pruning
  // partial assignments (a partial footprint already above every
  // candidate's capacity can never become legal).
  std::int64_t MaxReg = 0, MaxSram = 0, MaxPEs = 0;
  // Each candidate's memory levels, as the cost model prices them.
  std::vector<Hierarchy> ArchLevels;
  for (const ArchConfig &A : Archs) {
    MaxReg = std::max(MaxReg, A.RegWordsPerPE);
    MaxSram = std::max(MaxSram, A.SramWords);
    MaxPEs = std::max(MaxPEs, A.NumPEs);
    ArchLevels.push_back(Hierarchy::classic3Level(A, Spec.Tech));
  }

  Mapping Map;
  Map.Factors.resize(NumIters);
  Map.DramPerm = fullPermutation(Prob, Spec.DramPerm);
  Map.PePerm = fullPermutation(Prob, Spec.PePerm);

  double BestObj = 0.0;
  std::size_t Considered = 0, Priced = 0;

  // Depth-first cross product with monotone pruning: register/SRAM
  // footprints and the spatial product only grow as iterators are
  // assigned, so a partial assignment exceeding every architecture
  // candidate can be cut immediately.
  std::vector<std::int64_t> RegExt(NumIters, 1), SramExt(NumIters, 1),
      DramTrips(NumIters, 1);
  std::int64_t SpatialProduct = 1;
  // Footprints of the current assignment; complete at the leaves.
  TileFootprint Footprint;

  auto footprintsFit = [&]() {
    Footprint = tileFootprint(Prob, RegExt, SramExt);
    return Footprint.RegWords <= MaxReg && Footprint.SramWords <= MaxSram;
  };

  // Every candidate that passes the PE and utilization filters counts
  // against the cap, priced or not, so the cap stops the walk where it
  // would without the skips. A skipped candidate cannot win: winning
  // takes a legal design whose objective is strictly below BestObj, and
  // the floor never exceeds the priced objective.
  auto evaluateComplete = [&]() {
    const std::int64_t PEsUsed = Map.numPEsUsed();
    std::int64_t DramWords = -1; // Counted on first use, arch-independent.
    for (std::size_t A = 0; A < Archs.size(); ++A) {
      const ArchConfig &Arch = Archs[A];
      if (PEsUsed > Arch.NumPEs)
        continue;
      if (Options.UtilizationThreshold > 0.0 &&
          static_cast<double>(PEsUsed) <
              Options.UtilizationThreshold *
                  static_cast<double>(Arch.NumPEs))
        continue;
      ++Considered;
      if (!Footprint.fits(Arch))
        continue;
      if (Best.Found) {
        if (DramWords < 0)
          DramWords =
              dramBoundaryWords(Prob, Map.DramPerm, DramTrips, SramExt);
        if (objectiveValue(
                outerTrafficFloor(Prob, ArchLevels[A], PEsUsed, DramWords),
                Spec.Objective) >= BestObj)
          continue;
      }
      ++Priced;
      EvalResult Eval = evaluateMapping(Prob, Map, Arch, Energy, Evaluator);
      if (!Eval.Legal)
        continue;
      double Obj = objectiveValue(Eval, Spec.Objective);
      if (!Best.Found || Obj < BestObj) {
        Best.Found = true;
        Best.Arch = Arch;
        Best.Map = Map;
        Best.Eval = Eval;
        BestObj = Obj;
      }
    }
  };

  auto assignIterator = [&](unsigned I, const IterChoice &C) {
    std::int64_t Extent = Prob.iterators()[I].Extent;
    Map.factor(I, TileLevel::Register) = C.RegTile;
    Map.factor(I, TileLevel::PeTemporal) = C.PeTile / C.RegTile;
    Map.factor(I, TileLevel::Spatial) = C.SramTile / C.PeTile;
    Map.factor(I, TileLevel::DramTemporal) = Extent / C.SramTile;
  };

  // Recursive lambda via explicit stack-free recursion.
  auto recurse = [&](auto &&Self, unsigned I) -> void {
    if (Considered >= Options.MaxMappingCandidates)
      return;
    if (I == NumIters) {
      evaluateComplete();
      return;
    }
    for (const IterChoice &C : Choices[I]) {
      assignIterator(I, C);
      RegExt[I] = C.RegTile;
      SramExt[I] = C.SramTile;
      DramTrips[I] = Map.factor(I, TileLevel::DramTemporal);
      std::int64_t SavedSpatial = SpatialProduct;
      SpatialProduct *= C.SramTile / C.PeTile;
      if (SpatialProduct <= MaxPEs && footprintsFit())
        Self(Self, I + 1);
      SpatialProduct = SavedSpatial;
      RegExt[I] = 1;
      SramExt[I] = 1;
    }
  };
  recurse(recurse, 0);

  Best.CandidatesTried = Priced;
  return Best;
}
