//===- thistle/Rounding.cpp - Real-to-integer design conversion -----------===//

#include "thistle/Rounding.h"

#include "support/MathUtil.h"

#include <algorithm>
#include <cmath>

using namespace thistle;

namespace {

/// One per-iterator integer tiling choice: the cumulative tile extents
/// inside each tile loop, outer to inner, each dividing the one before
/// it (the outermost, the full extent, is implied). On the classic
/// machine: (SRAM tile, per-PE tile, register tile).
using TileChain = std::vector<std::int64_t>;

/// The real trip count of tile-loop \p Slot, counted inner to outer over
/// t_0, ..., t_F, p, t_{F+1}, ... (thistle/ExprGen.h).
double realLoop(const RealSolution &Real, unsigned F, unsigned Slot,
                unsigned Iter) {
  if (Slot <= F)
    return Real.Trips[Slot][Iter];
  return Slot == F + 1 ? Real.Spatial[Iter] : Real.Trips[Slot - 1][Iter];
}

/// Enumerates the hierarchical divisor candidates for one tiled iterator
/// around its real cumulative extents \p RealChain (paper section IV).
std::vector<TileChain> tiledChains(std::int64_t Extent,
                                   const std::vector<double> &RealChain,
                                   unsigned N) {
  std::vector<TileChain> Out;
  TileChain Chain(RealChain.size());
  auto extend = [&](auto &&Self, std::size_t K, std::int64_t Outer) -> void {
    if (K == Chain.size()) {
      Out.push_back(Chain);
      return;
    }
    for (std::int64_t D : closestDivisors(Outer, RealChain[K], N)) {
      Chain[K] = D;
      Self(Self, K + 1, D);
    }
  };
  extend(extend, 0, Extent);
  // The nested divisor chains can repeat choices; deduplicate.
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  // Visit candidates nearest the real solution first, so that the
  // depth-first cross product under the evaluation cap concentrates on
  // the neighbourhood of the GP optimum.
  auto logDist = [&](const TileChain &C) {
    double D = 0.0;
    for (std::size_t K = 0; K < C.size(); ++K)
      D += std::abs(std::log(static_cast<double>(C[K])) -
                    std::log(std::max(RealChain[K], 1.0)));
    return D;
  };
  std::stable_sort(Out.begin(), Out.end(),
                   [&](const TileChain &A, const TileChain &B) {
                     return logDist(A) < logDist(B);
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

/// Architecture candidates around the real solution: \p H itself, or
/// its on-chip capacities rounded to powers of two (re-priced by Eq. 4)
/// and the PE count to the integers around it, within the area budget.
std::vector<Hierarchy> archCandidates(const Hierarchy &H,
                                      const HierarchyGpSpec &Spec,
                                      const RealSolution &Real, unsigned N) {
  if (Spec.Mode == DesignMode::DataflowOnly)
    return {H};

  const unsigned OnChip = H.numLevels() - 1;
  std::vector<std::vector<std::int64_t>> CapChoices;
  for (unsigned Lv = 0; Lv < OnChip; ++Lv)
    CapChoices.push_back(closestPowersOfTwo(Real.CapacityWords[Lv], N,
                                            /*MinValue=*/Lv == 0 ? 4 : 16));
  std::vector<std::int64_t> PeChoices;
  std::int64_t Floor = static_cast<std::int64_t>(std::floor(Real.NumPEs));
  std::int64_t Ceil = static_cast<std::int64_t>(std::ceil(Real.NumPEs));
  PeChoices.push_back(std::max<std::int64_t>(1, Floor));
  if (Ceil != Floor)
    PeChoices.push_back(std::max<std::int64_t>(1, Ceil));

  // Capacities outer loop first, the PE count innermost; the hierarchy
  // keeps its fan-out, bandwidths and outermost level.
  EnergyModel Energy(Spec.Tech);
  std::vector<Hierarchy> Out;
  Hierarchy Cand = H;
  auto pick = [&](auto &&Self, unsigned Lv) -> void {
    if (Lv == OnChip) {
      for (std::int64_t P : PeChoices) {
        Cand.NumPEs = P;
        if (Cand.areaUm2(Spec.Tech) <= Spec.AreaBudgetUm2)
          Out.push_back(Cand);
      }
      return;
    }
    for (std::int64_t C : CapChoices[Lv]) {
      const double Words = static_cast<double>(C);
      Cand.Levels[Lv].CapacityWords = C;
      Cand.Levels[Lv].AccessEnergyPj = Lv == 0 ? Energy.regAccessPj(Words)
                                               : Energy.sramAccessPj(Words);
      Self(Self, Lv + 1);
    }
  };
  pick(pick, 0);
  return Out;
}

} // namespace

std::int64_t
thistle::tileFootprint(const Problem &Prob,
                       const std::vector<std::int64_t> &TileExtents) {
  std::int64_t Words = 0;
  for (const Tensor &T : Prob.tensors())
    Words += T.footprintWords(TileExtents);
  return Words;
}

std::int64_t
thistle::outerBoundaryWords(const Problem &Prob, const Hierarchy &H,
                            const MultiMapping &Map,
                            const std::vector<std::int64_t> &TileExtents) {
  const unsigned Top = H.numLevels() - 1;
  std::int64_t Words = 0;
  for (const Tensor &T : Prob.tensors()) {
    // Only a fan-out directly below the outermost loops multiplies them.
    std::int64_t Outer = 1;
    if (Top == H.FanoutLevel)
      for (unsigned I = 0; I < Prob.numIterators(); ++I)
        if (T.usesIter(I))
          Outer *= Map.SpatialFactors[I];
    Words += tensorBoundaryWords(T, Map.Perms[Top], Map.TempFactors[Top],
                                 TileExtents, Outer);
  }
  return Words;
}

RoundedHierarchyDesign thistle::roundSolution(const Problem &Prob,
                                              const Hierarchy &H,
                                              const HierarchyGpSpec &Spec,
                                              const RealSolution &Real,
                                              const RoundingOptions &Options) {
  RoundedHierarchyDesign Best;
  const CostEvaluator &Evaluator = resolveCostEvaluator(Options.Evaluator);
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;
  const unsigned OnChip = L - 1;
  const unsigned NumIters = Prob.numIterators();

  // Per-iterator candidate chains, outer to inner.
  std::vector<std::vector<TileChain>> Choices(NumIters);
  for (unsigned I = 0; I < NumIters; ++I) {
    std::int64_t Extent = Prob.iterators()[I].Extent;
    bool Tiled = std::find(Spec.TiledIters.begin(), Spec.TiledIters.end(),
                           I) != Spec.TiledIters.end();
    if (Tiled) {
      std::vector<double> RealChain(L);
      double Cum = 1.0;
      for (unsigned Slot = 0; Slot < L; ++Slot)
        RealChain[L - 1 - Slot] = Cum *= realLoop(Real, F, Slot, I);
      Choices[I] = tiledChains(Extent, RealChain, Options.NumCandidates);
    } else {
      // Untiled: no temporal trips above the register level, but the
      // extent may split between the register level and the fan-out
      // when the GP chose p > 1 (Eyeriss-style stencil unrolling).
      // Divisor candidates follow the real register tile.
      for (std::int64_t Reg :
           closestDivisors(Extent, Real.Trips[0][I], Options.NumCandidates)) {
        TileChain Chain(L, Extent);
        std::fill(Chain.end() - (F + 1), Chain.end(), Reg);
        Choices[I].push_back(std::move(Chain));
      }
    }
  }

  std::vector<Hierarchy> Archs =
      archCandidates(H, Spec, Real, Options.NumCandidates);
  if (Archs.empty())
    return Best;
  // The largest capacities/PE count among candidates, used for pruning
  // partial assignments (a partial footprint already above every
  // candidate's capacity can never become legal).
  std::vector<std::int64_t> MaxCap(OnChip, 0);
  std::int64_t MaxPEs = 0;
  for (const Hierarchy &A : Archs) {
    for (unsigned Lv = 0; Lv < OnChip; ++Lv)
      MaxCap[Lv] = std::max(MaxCap[Lv], A.Levels[Lv].CapacityWords);
    MaxPEs = std::max(MaxPEs, A.NumPEs);
  }

  MultiMapping Map = MultiMapping::untiled(Prob, L);
  for (unsigned Lv = 1; Lv < L; ++Lv)
    Map.Perms[Lv] = fullPermutation(Prob, Spec.Perms[Lv]);

  double BestObj = 0.0;
  std::size_t Considered = 0, Priced = 0;

  // Depth-first cross product with monotone pruning: footprints and the
  // spatial product only grow as iterators are assigned, so a partial
  // assignment exceeding every architecture candidate can be cut
  // immediately. Ext[l] holds the level-l tile extents (1 while
  // unassigned).
  std::vector<std::vector<std::int64_t>> Ext(
      OnChip, std::vector<std::int64_t>(NumIters, 1));
  std::int64_t SpatialProduct = 1;
  // Footprints of the current assignment; complete at the leaves.
  std::vector<std::int64_t> Footprint(OnChip, 0);

  auto footprintsFit = [&]() {
    for (unsigned Lv = 0; Lv < OnChip; ++Lv) {
      Footprint[Lv] = tileFootprint(Prob, Ext[Lv]);
      if (Footprint[Lv] > MaxCap[Lv])
        return false;
    }
    return true;
  };

  // Every candidate that passes the PE and utilization filters counts
  // against the cap, priced or not, so the cap stops the walk where it
  // would without the skips. A skipped candidate cannot win: winning
  // takes a legal design whose objective is strictly below BestObj, and
  // the floor never exceeds the priced objective.
  auto evaluateComplete = [&]() {
    const std::int64_t PEsUsed = SpatialProduct;
    std::int64_t OuterWords = -1; // Counted on first use, arch-independent.
    for (const Hierarchy &Arch : Archs) {
      if (PEsUsed > Arch.NumPEs)
        continue;
      if (Options.UtilizationThreshold > 0.0 &&
          static_cast<double>(PEsUsed) <
              Options.UtilizationThreshold *
                  static_cast<double>(Arch.NumPEs))
        continue;
      ++Considered;
      bool Fits = true;
      for (unsigned Lv = 0; Lv < OnChip; ++Lv)
        Fits = Fits && Footprint[Lv] <= Arch.Levels[Lv].CapacityWords;
      if (!Fits)
        continue;
      if (Best.Found) {
        if (OuterWords < 0)
          OuterWords = outerBoundaryWords(Prob, H, Map, Ext[OnChip - 1]);
        if (objectiveValue(outerTrafficFloor(Prob, Arch, PEsUsed, OuterWords),
                           Spec.Objective) >= BestObj)
          continue;
      }
      ++Priced;
      MultiEvalResult Eval = Evaluator.evaluate(Prob, Arch, Map);
      if (!Eval.Legal)
        continue;
      double Obj = objectiveValue(Eval, Spec.Objective);
      if (!Best.Found || Obj < BestObj) {
        Best.Found = true;
        Best.Arch = Arch;
        Best.Map = Map;
        Best.Eval = std::move(Eval);
        BestObj = Obj;
      }
    }
  };

  // Chain[K] is the cumulative extent of tile-loop slot L-1-K (inner to
  // outer over t_0..t_F, p, t_{F+1}..); slot L is the full extent.
  auto assignIterator = [&](unsigned I, const TileChain &Chain) {
    std::int64_t Inner = 1;
    for (unsigned Slot = 0; Slot <= L; ++Slot) {
      const std::int64_t Cum =
          Slot == L ? Prob.iterators()[I].Extent : Chain[L - 1 - Slot];
      const std::int64_t Trip = Cum / Inner;
      if (Slot == F + 1)
        Map.SpatialFactors[I] = Trip;
      else
        Map.TempFactors[Slot <= F ? Slot : Slot - 1][I] = Trip;
      Inner = Cum;
    }
    // A level's tile spans its own loops and those inside, the fan-out
    // included from level F up.
    for (unsigned Lv = 0; Lv < OnChip; ++Lv)
      Ext[Lv][I] = Chain[L - 1 - (Lv < F ? Lv : Lv + 1)];
  };

  auto recurse = [&](auto &&Self, unsigned I) -> void {
    if (Considered >= Options.MaxMappingCandidates)
      return;
    if (I == NumIters) {
      evaluateComplete();
      return;
    }
    for (const TileChain &C : Choices[I]) {
      assignIterator(I, C);
      std::int64_t SavedSpatial = SpatialProduct;
      SpatialProduct *= Map.SpatialFactors[I];
      if (SpatialProduct <= MaxPEs && footprintsFit())
        Self(Self, I + 1);
      SpatialProduct = SavedSpatial;
      for (std::vector<std::int64_t> &LevelExt : Ext)
        LevelExt[I] = 1;
    }
  };
  recurse(recurse, 0);

  Best.CandidatesTried = Priced;
  return Best;
}

RoundedDesign thistle::classicDesign(const Problem &Prob,
                                     const ArchConfig &Arch,
                                     const RoundedHierarchyDesign &Multi) {
  RoundedDesign Design;
  Design.CandidatesTried = Multi.CandidatesTried;
  if (!Multi.Found)
    return Design;
  Design.Found = true;
  Design.Arch = Arch; // Keeps the bandwidth parameters.
  Design.Arch.RegWordsPerPE = Multi.Arch.Levels[0].CapacityWords;
  Design.Arch.SramWords = Multi.Arch.Levels[1].CapacityWords;
  Design.Arch.NumPEs = Multi.Arch.NumPEs;
  Design.Map = Multi.Map.toMapping();
  Design.Eval = evalResultFromMulti(Prob, Design.Arch, Multi.Eval);
  return Design;
}

RoundedDesign thistle::roundSolution(const Problem &Prob,
                                     const GpBuildSpec &Spec,
                                     const RealSolution &Real,
                                     const RoundingOptions &Options) {
  return classicDesign(
      Prob, Spec.Arch,
      roundSolution(Prob, Hierarchy::classic3Level(Spec.Arch, Spec.Tech),
                    hierarchyGpSpec(Spec), Real, Options));
}
