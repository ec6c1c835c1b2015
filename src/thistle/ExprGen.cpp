//===- thistle/ExprGen.cpp - Algorithm 1: symbolic DF/DV ------------------===//

#include "thistle/ExprGen.h"

#include <cassert>

using namespace thistle;

namespace {

/// The paper's letter for the temporal loops of \p Level in a hierarchy
/// of \p NumLevels levels (see the file comment of ExprGen.h).
std::string levelPrefix(unsigned Level, unsigned NumLevels) {
  if (Level == 0)
    return "r_";
  if (Level + 1 == NumLevels)
    return "s_";
  std::string Prefix = "q";
  if (Level > 1)
    Prefix += std::to_string(Level);
  return Prefix += '_';
}

} // namespace

ExprGen::ExprGen(const Problem &Prob, const Hierarchy &H, VarTable &Vars)
    : Prob(Prob), FanoutLevel(H.FanoutLevel), TripVars(H.numLevels()) {
  auto internLevel = [&](std::vector<VarId> &Block,
                         const std::string &Prefix) {
    for (const Iterator &It : Prob.iterators())
      Block.push_back(Vars.intern(Prefix + It.Name));
  };
  // Tile-loop order, outer to inner: the levels above the fan-out, the
  // fan-out, then level F down to the register level.
  const unsigned L = H.numLevels();
  for (unsigned Lv = L; Lv-- > FanoutLevel + 1;)
    internLevel(TripVars[Lv], levelPrefix(Lv, L));
  internLevel(SpatialVars, "p_");
  for (unsigned Lv = FanoutLevel + 1; Lv-- > 0;)
    internLevel(TripVars[Lv], levelPrefix(Lv, L));
}

VarId ExprGen::innerVar(unsigned Level, unsigned Iter) const {
  assert(Level >= 1 && "the register level has no inner level");
  return Level == FanoutLevel + 1 ? spatialVar(Iter)
                                  : tripVar(Level - 1, Iter);
}

FactoredExpr ExprGen::registerFootprint(unsigned TensorIdx) const {
  const Tensor &T = Prob.tensors()[TensorIdx];
  FactoredExpr DF;
  for (const DimRef &D : T.Dims) {
    // Extent of sum_t stride_t * it_t over a tile of r_t points per
    // iterator: sum_t stride_t * r_t - (sum_t stride_t - 1).
    Signomial Extent;
    std::int64_t StrideSum = 0;
    for (const DimRef::Term &Term : D.Terms) {
      Extent += Signomial(Monomial::variable(
          tripVar(0, Term.Iter), 1.0, static_cast<double>(Term.Stride)));
      StrideSum += Term.Stride;
    }
    if (StrideSum != 1)
      Extent += Signomial::constant(-static_cast<double>(StrideSum - 1));
    DF.pushFactor(Extent);
  }
  return DF;
}

LevelExprs ExprGen::constructExpr(unsigned TensorIdx,
                                  const std::vector<unsigned> &Perm,
                                  unsigned Level, const FactoredExpr &DfPrev,
                                  const StepObserver &Observer) const {
  const Tensor &T = Prob.tensors()[TensorIdx];
  LevelExprs State;
  State.DF = DfPrev;
  State.DV = DfPrev;
  // Read-write tensors move data both ways; the paper folds the factor 2
  // into DV (Table I).
  if (T.ReadWrite)
    State.DV.multiplyPrefix(Monomial(2.0));

  bool CanHoist = true;
  // Inner-to-outer traversal of the level's tile loops (Algorithm 1).
  for (std::size_t Pos = Perm.size(); Pos > 0; --Pos) {
    unsigned It = Perm[Pos - 1];
    VarId LevelVar = tripVar(Level, It);
    VarId PrevVar = innerVar(Level, It);
    Monomial Repl =
        Monomial::variable(LevelVar) * Monomial::variable(PrevVar);
    if (CanHoist) {
      if (T.usesIter(It)) {
        // Innermost present iterator: replace in both DF and DV.
        CanHoist = false;
        State.DF = State.DF.substituted(PrevVar, Repl);
        State.DV = State.DV.substituted(PrevVar, Repl);
      }
      // Absent below the hoist point: no change to DF or DV.
    } else {
      if (T.usesIter(It))
        State.DF = State.DF.substituted(PrevVar, Repl);
      // Above the hoist point every loop multiplies the volume.
      State.DV.multiplyPrefix(Monomial::variable(LevelVar));
    }
    if (Observer)
      Observer(It, State);
  }
  return State;
}

FactoredExpr ExprGen::spatialFootprint(unsigned TensorIdx,
                                       const FactoredExpr &DfPe) const {
  const Tensor &T = Prob.tensors()[TensorIdx];
  FactoredExpr DF = DfPe;
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    if (!T.usesIter(I))
      continue;
    // The deepest chained variable of the per-PE slice: the level-F trip
    // count if the iterator was tiled there, else further in (down to
    // the register tile, which always mentions a present iterator).
    unsigned Lv = FanoutLevel;
    while (Lv > 0 && !DF.mentions(tripVar(Lv, I)))
      --Lv;
    VarId Inner = tripVar(Lv, I);
    DF = DF.substituted(Inner, Monomial::variable(spatialVar(I)) *
                                   Monomial::variable(Inner));
  }
  return DF;
}

TensorSymbolicModel ExprGen::buildTensorModel(
    unsigned TensorIdx, const std::vector<std::vector<unsigned>> &Perms) const {
  const Tensor &T = Prob.tensors()[TensorIdx];
  const unsigned L = numLevels();
  TensorSymbolicModel Model;
  Model.Footprint.reserve(L);
  Model.Volume.reserve(L - 1);
  Model.Footprint.push_back(registerFootprint(TensorIdx));

  for (unsigned Lv = 1; Lv < L; ++Lv) {
    LevelExprs Walk =
        constructExpr(TensorIdx, Perms[Lv], Lv, Model.Footprint.back());
    // Every trip count of the levels above multiplies (per-level model);
    // the spatial trips multiply below the fan-out and, multicast
    // collapsing absent iterators (Eq. 2), across it.
    FactoredExpr &DV = Walk.DV;
    for (unsigned I = 0; I < Prob.numIterators(); ++I) {
      if (Lv < FanoutLevel || (Lv == FanoutLevel && T.usesIter(I)))
        DV.multiplyPrefix(Monomial::variable(spatialVar(I)));
      for (unsigned Up = Lv + 1; Up < L; ++Up)
        DV.multiplyPrefix(Monomial::variable(tripVar(Up, I)));
    }
    Model.Volume.push_back(std::move(DV));
    // From level F up, the tile spans the PE grid.
    Model.Footprint.push_back(Lv == FanoutLevel
                                  ? spatialFootprint(TensorIdx, Walk.DF)
                                  : std::move(Walk.DF));
  }
  return Model;
}
