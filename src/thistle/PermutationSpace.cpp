//===- thistle/PermutationSpace.cpp - Pruned permutation enumeration ------===//

#include "thistle/PermutationSpace.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <sstream>

using namespace thistle;

PermSignature
PermSignature::mapped(const std::vector<unsigned> &IterMap,
                      const std::vector<unsigned> &TensorMap) const {
  PermSignature Out;
  Out.Tensors.resize(Tensors.size());
  for (std::size_t T = 0; T < Tensors.size(); ++T) {
    TensorSig Sig;
    Sig.InnermostPresent =
        Tensors[T].InnermostPresent < 0
            ? Tensors[T].InnermostPresent // Sentinels map to themselves.
            : static_cast<int>(IterMap[Tensors[T].InnermostPresent]);
    for (unsigned H : Tensors[T].Hoisted)
      Sig.Hoisted.push_back(IterMap[H]);
    std::sort(Sig.Hoisted.begin(), Sig.Hoisted.end());
    Out.Tensors[TensorMap[T]] = std::move(Sig);
  }
  return Out;
}

std::string PermSignature::toString(const Problem &Prob) const {
  std::ostringstream OS;
  for (std::size_t T = 0; T < Tensors.size(); ++T) {
    if (T)
      OS << " ";
    OS << Prob.tensors()[T].Name << "(stream=";
    OS << (Tensors[T].InnermostPresent < 0
               ? std::string("-")
               : Prob.iterators()[Tensors[T].InnermostPresent].Name);
    OS << ",hoist={";
    for (std::size_t H = 0; H < Tensors[T].Hoisted.size(); ++H)
      OS << (H ? "," : "") << Prob.iterators()[Tensors[T].Hoisted[H]].Name;
    OS << "})";
  }
  return OS.str();
}

namespace {

/// True if \p It appears in a multi-term (halo) dimension of \p T, where
/// streaming (replace) differs from reloading (multiply).
bool streamsWithHalo(const Tensor &T, unsigned It) {
  for (const DimRef &D : T.Dims)
    if (D.Terms.size() > 1 && D.uses(It))
      return true;
  return false;
}

} // namespace

PermSignature thistle::permSignature(const Problem &Prob,
                                     const std::vector<unsigned> &Perm) {
  PermSignature Sig;
  Sig.Tensors.resize(Prob.tensors().size());
  for (std::size_t TI = 0; TI < Prob.tensors().size(); ++TI) {
    const Tensor &T = Prob.tensors()[TI];
    PermSignature::TensorSig &S = Sig.Tensors[TI];
    for (std::size_t Pos = Perm.size(); Pos > 0; --Pos) {
      unsigned It = Perm[Pos - 1];
      if (T.usesIter(It)) {
        S.InnermostPresent = streamsWithHalo(T, It)
                                 ? static_cast<int>(It)
                                 : PermSignature::TensorSig::NoHaloStream;
        break;
      }
      S.Hoisted.push_back(It);
    }
    std::sort(S.Hoisted.begin(), S.Hoisted.end());
  }
  return Sig;
}

std::vector<PermClass>
thistle::enumeratePermClasses(const Problem &Prob,
                              const std::vector<unsigned> &TiledIters) {
  std::vector<unsigned> Perm = TiledIters;
  std::sort(Perm.begin(), Perm.end());
  std::map<PermSignature, PermClass> Classes;
  do {
    PermSignature Sig = permSignature(Prob, Perm);
    auto [It, Inserted] = Classes.try_emplace(Sig);
    if (Inserted) {
      It->second.Representative = Perm;
      It->second.Signature = Sig;
    }
    ++It->second.MemberCount;
  } while (std::next_permutation(Perm.begin(), Perm.end()));

  std::vector<PermClass> Out;
  Out.reserve(Classes.size());
  for (auto &[Sig, Class] : Classes)
    Out.push_back(std::move(Class));
  return Out;
}

namespace {

/// Order-insensitive shape of a tensor used for symmetry matching: the
/// read/write flag plus the multiset of dimension projections, each a
/// sorted list of (iterator, stride) pairs.
using TensorShape =
    std::pair<bool,
              std::vector<std::vector<std::pair<unsigned, std::int64_t>>>>;

TensorShape shapeOf(const Tensor &T, const std::vector<unsigned> &IterMap) {
  TensorShape Shape;
  Shape.first = T.ReadWrite;
  for (const DimRef &D : T.Dims) {
    std::vector<std::pair<unsigned, std::int64_t>> Terms;
    for (const DimRef::Term &Term : D.Terms)
      Terms.push_back({IterMap[Term.Iter], Term.Stride});
    std::sort(Terms.begin(), Terms.end());
    Shape.second.push_back(std::move(Terms));
  }
  std::sort(Shape.second.begin(), Shape.second.end());
  return Shape;
}

/// Checks whether relabeling iterators by \p IterMap, which preserves
/// every extent, leaves the problem invariant: each tensor's mapped
/// shape must match a distinct one of \p Originals (the identity
/// shapes). Fills \p TensorMap with the induced tensor reordering.
bool isSymmetry(const Problem &Prob, const std::vector<TensorShape> &Originals,
                const std::vector<unsigned> &IterMap,
                std::vector<unsigned> &TensorMap) {
  TensorMap.assign(Prob.tensors().size(), ~0u);
  std::vector<bool> Used(Prob.tensors().size(), false);
  for (std::size_t TI = 0; TI < Prob.tensors().size(); ++TI) {
    TensorShape Mapped = shapeOf(Prob.tensors()[TI], IterMap);
    bool Matched = false;
    for (std::size_t TJ = 0; TJ < Originals.size(); ++TJ) {
      if (Used[TJ] || !(Originals[TJ] == Mapped))
        continue;
      TensorMap[TI] = static_cast<unsigned>(TJ);
      Used[TJ] = true;
      Matched = true;
      break;
    }
    if (!Matched)
      return false;
  }
  return true;
}

} // namespace

std::vector<ProblemSymmetry>
thistle::findProblemSymmetries(const Problem &Prob) {
  const unsigned N = Prob.numIterators();
  std::vector<ProblemSymmetry> Out;

  std::vector<unsigned> Identity(N);
  std::iota(Identity.begin(), Identity.end(), 0u);
  std::vector<TensorShape> Originals;
  for (const Tensor &T : Prob.tensors())
    Originals.push_back(shapeOf(T, Identity));

  // A symmetry must preserve extents, so only transpositions of
  // equal-extent iterators are candidates.
  auto swappable = [&Prob](unsigned A, unsigned B) {
    return Prob.iterators()[A].Extent == Prob.iterators()[B].Extent;
  };
  auto tryMap = [&](std::vector<unsigned> IterMap) {
    std::vector<unsigned> TensorMap;
    if (isSymmetry(Prob, Originals, IterMap, TensorMap))
      Out.push_back({std::move(IterMap), std::move(TensorMap)});
  };

  // Single transpositions.
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = A + 1; B < N; ++B) {
      if (!swappable(A, B))
        continue;
      std::vector<unsigned> Map = Identity;
      std::swap(Map[A], Map[B]);
      tryMap(std::move(Map));
    }

  // Products of two disjoint transpositions (e.g. {h<->w, r<->s}).
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = A + 1; B < N; ++B) {
      if (!swappable(A, B))
        continue;
      for (unsigned C = A + 1; C < N; ++C)
        for (unsigned D = C + 1; D < N; ++D) {
          if (C == B || D == B || !swappable(C, D))
            continue;
          std::vector<unsigned> Map = Identity;
          std::swap(Map[A], Map[B]);
          std::swap(Map[C], Map[D]);
          tryMap(std::move(Map));
        }
    }
  return Out;
}
