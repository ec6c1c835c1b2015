//===- multilevel/MultiMapping.cpp - L-level tiled mappings ---------------===//

#include "multilevel/MultiMapping.h"

#include <cassert>
#include <numeric>

using namespace thistle;

std::vector<std::int64_t> MultiMapping::tileExtents(const Hierarchy &H,
                                                    unsigned Level) const {
  const std::size_t NumIters = SpatialFactors.size();
  std::vector<std::int64_t> Ext(NumIters, 1);
  for (unsigned L = 0; L <= Level; ++L)
    for (std::size_t I = 0; I < NumIters; ++I)
      Ext[I] *= TempFactors[L][I];
  if (Level >= H.FanoutLevel)
    for (std::size_t I = 0; I < NumIters; ++I)
      Ext[I] *= SpatialFactors[I];
  return Ext;
}

std::vector<std::int64_t>
MultiMapping::sliceExtents(const Hierarchy &H) const {
  const std::size_t NumIters = SpatialFactors.size();
  std::vector<std::int64_t> Ext(NumIters, 1);
  for (unsigned L = 0; L < H.FanoutLevel; ++L)
    for (std::size_t I = 0; I < NumIters; ++I)
      Ext[I] *= TempFactors[L][I];
  // Plus the level-F temporal loops below the... no: the slice is what a
  // single PE covers of the first shared tile *per level-F step*; the
  // spatial partition subdivides the level-F tile, so a PE's slice spans
  // prod_{k <= F} t_k per iterator.
  for (std::size_t I = 0; I < NumIters; ++I)
    Ext[I] *= TempFactors[H.FanoutLevel][I];
  return Ext;
}

std::int64_t MultiMapping::numPEsUsed() const {
  std::int64_t P = 1;
  for (std::int64_t F : SpatialFactors)
    P *= F;
  return P;
}

std::string MultiMapping::validate(const Problem &Prob,
                                   const Hierarchy &H) const {
  // Text is built only for a failed check: analyzeMultiNest asserts this
  // on every evaluation.
  const unsigned NumIters = Prob.numIterators();
  if (TempFactors.size() != H.numLevels())
    return "temporal factor levels do not match the hierarchy depth";
  if (SpatialFactors.size() != NumIters)
    return "spatial factor arity mismatch";
  if (Perms.size() != H.numLevels())
    return "permutation count does not match the hierarchy depth";
  for (const std::vector<std::int64_t> &LevelF : TempFactors)
    if (LevelF.size() != NumIters)
      return "temporal factor arity mismatch";

  for (unsigned I = 0; I < NumIters; ++I) {
    std::int64_t Product = SpatialFactors[I];
    if (Product < 1)
      return "spatial factor < 1";
    for (unsigned L = 0; L < H.numLevels(); ++L) {
      if (TempFactors[L][I] < 1)
        return "temporal factor < 1";
      Product *= TempFactors[L][I];
    }
    if (Product != Prob.iterators()[I].Extent)
      return "iterator " + Prob.iterators()[I].Name + " factors multiply to " +
             std::to_string(Product) + ", expected " +
             std::to_string(Prob.iterators()[I].Extent);
  }
  for (const std::vector<unsigned> &Perm : Perms) {
    if (Perm.size() != NumIters)
      return "permutation arity mismatch";
    std::vector<bool> Seen(NumIters, false);
    for (unsigned P : Perm) {
      if (P >= NumIters || Seen[P])
        return "not a permutation";
      Seen[P] = true;
    }
  }
  return std::string();
}

MultiMapping MultiMapping::untiled(const Problem &Prob, unsigned NumLevels) {
  const unsigned NumIters = Prob.numIterators();
  MultiMapping M;
  M.TempFactors.assign(NumLevels,
                       std::vector<std::int64_t>(NumIters, 1));
  for (unsigned I = 0; I < NumIters; ++I)
    M.TempFactors[0][I] = Prob.iterators()[I].Extent;
  M.SpatialFactors.assign(NumIters, 1);
  std::vector<unsigned> Identity(NumIters);
  std::iota(Identity.begin(), Identity.end(), 0u);
  M.Perms.assign(NumLevels, Identity);
  return M;
}

MultiMapping MultiMapping::fromMapping(const Problem &Prob,
                                       const Mapping &Map) {
  const unsigned NumIters = Prob.numIterators();
  MultiMapping M;
  M.TempFactors.assign(3, std::vector<std::int64_t>(NumIters, 1));
  M.SpatialFactors.assign(NumIters, 1);
  for (unsigned I = 0; I < NumIters; ++I) {
    M.TempFactors[0][I] = Map.factor(I, TileLevel::Register);
    M.TempFactors[1][I] = Map.factor(I, TileLevel::PeTemporal);
    M.TempFactors[2][I] = Map.factor(I, TileLevel::DramTemporal);
    M.SpatialFactors[I] = Map.factor(I, TileLevel::Spatial);
  }
  std::vector<unsigned> Identity(NumIters);
  std::iota(Identity.begin(), Identity.end(), 0u);
  M.Perms = {Identity, Map.PePerm, Map.DramPerm};
  return M;
}

Mapping MultiMapping::toMapping() const {
  assert(numLevels() == 3 && "only 3-level mappings are fixed-depth");
  const std::size_t NumIters = SpatialFactors.size();
  Mapping Map;
  Map.Factors.resize(NumIters);
  for (std::size_t I = 0; I < NumIters; ++I) {
    unsigned It = static_cast<unsigned>(I);
    Map.factor(It, TileLevel::Register) = TempFactors[0][I];
    Map.factor(It, TileLevel::PeTemporal) = TempFactors[1][I];
    Map.factor(It, TileLevel::DramTemporal) = TempFactors[2][I];
    Map.factor(It, TileLevel::Spatial) = SpatialFactors[I];
  }
  Map.PePerm = Perms[1];
  Map.DramPerm = Perms[2];
  return Map;
}
