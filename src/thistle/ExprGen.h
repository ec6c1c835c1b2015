//===- thistle/ExprGen.h - Algorithm 1: symbolic DF/DV ----------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's Algorithm 1: the compile-time generation of
/// symbolic data-footprint (DF) and data-volume (DV) expressions for each
/// tensor at each tiling level, as functions of per-level trip-count
/// variables, on a memory hierarchy of any depth (section III-A: "an
/// arbitrary number of tiling levels").
///
/// A hierarchy of L levels (multilevel/Hierarchy.h, level 0 = registers,
/// level L-1 = DRAM) with its PE fan-out at level F tiles each iterator
/// into L temporal trip counts and one spatial trip count. Outer to
/// inner, the tile loops are
///
///   t_{L-1}, ..., t_{F+1}, p, t_F, ..., t_1, t_0
///
/// so the fan-out enters directly above level F's temporal loops: a PE's
/// slice of a level-F tile spans t_0 * ... * t_F, and the level-F tile
/// spans the PE grid (the placement of ir/Mapping and
/// MultiMapping::sliceExtents). Variables are named after the paper's
/// convention (section III): r_<it> at level 0, p_<it> for the fan-out,
/// s_<it> at the outermost level, and q_<it> at level 1 (q<l>_<it> at a
/// deeper intermediate level l). On the classic register/SRAM/DRAM
/// machine N_<it> = s*p*q*r.
///
/// The register-level footprint DF^0 handles strided multi-iterator
/// references: a dimension indexed by sum_t stride_t * it_t has symbolic
/// extent sum_t stride_t * r_t - (sum_t stride_t - 1), e.g. In's last
/// dimension (2*w + s) yields 2*r_w + r_s - 2 (section III-A).
///
/// Read-write tensors carry the paper's factor 2 in their DV (both read
/// and write traffic, Table I).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_EXPRGEN_H
#define THISTLE_THISTLE_EXPRGEN_H

#include "expr/FactoredExpr.h"
#include "ir/Problem.h"
#include "multilevel/Hierarchy.h"

#include <functional>
#include <vector>

namespace thistle {

/// The DF/DV pair produced by one run of Algorithm 1.
struct LevelExprs {
  FactoredExpr DF; ///< Data footprint at this tiling level.
  FactoredExpr DV; ///< Data access volume for copies into this level.
};

/// All symbolic expressions the GP builder needs for one tensor, for one
/// choice of per-level permutations. Evaluated at an integer mapping,
/// these are MultiNestAnalysis's occupancies and boundary counts
/// (exactly when no trip-1 loop moves a hoist point and strides leave no
/// holes, an upper bound otherwise).
struct TensorSymbolicModel {
  /// Footprint[l]: the tile resident at level l; from level F up it
  /// spans the PE grid along the tensor's iterators.
  std::vector<FactoredExpr> Footprint;
  /// Volume[b]: words across boundary b (levels b <-> b+1): Algorithm 1
  /// at level b+1, times every trip count of the levels above it, times
  /// the spatial trip counts of every PE (private boundaries, b+1 < F)
  /// or of the tensor's iterators only (the fan-out boundary, b+1 == F:
  /// multicast collapses absent iterators, Eq. 2).
  std::vector<FactoredExpr> Volume;
};

/// Generates trip-count variables and runs Algorithm 1.
class ExprGen {
public:
  /// Interns all trip-count variables of \p Prob tiled onto a hierarchy
  /// shaped like \p H (its depth and fan-out) into \p Vars, block by
  /// block in tile-loop order, outer to inner.
  ExprGen(const Problem &Prob, const Hierarchy &H, VarTable &Vars);

  /// The temporal trip-count variable of \p Iter at level \p Level.
  VarId tripVar(unsigned Level, unsigned Iter) const {
    return TripVars[Level][Iter];
  }

  /// The spatial (PE fan-out) trip-count variable of \p Iter.
  VarId spatialVar(unsigned Iter) const { return SpatialVars[Iter]; }

  /// DF^0: the register-level footprint of tensor \p TensorIdx.
  FactoredExpr registerFootprint(unsigned TensorIdx) const;

  /// Observer invoked after processing each loop of Algorithm 1's walk
  /// (used to reproduce Table I step by step).
  using StepObserver =
      std::function<void(unsigned Iter, const LevelExprs &State)>;

  /// Algorithm 1 for tensor \p TensorIdx at temporal level \p Level >= 1:
  /// \p Perm is the outer-to-inner order of this level's tile loops
  /// (tiled iterators only) and \p DfPrev the footprint of the tile one
  /// loop level further in. The replace() step substitutes that level's
  /// trip-count variable v_prev with v_level * v_prev.
  LevelExprs constructExpr(unsigned TensorIdx,
                           const std::vector<unsigned> &Perm, unsigned Level,
                           const FactoredExpr &DfPrev,
                           const StepObserver &Observer = nullptr) const;

  /// Lifts a per-PE footprint across the fan-out: each present
  /// iterator's innermost-chained variable v becomes p * v (the level-F
  /// tile spans the PE grid).
  FactoredExpr spatialFootprint(unsigned TensorIdx,
                                const FactoredExpr &DfPe) const;

  /// Builds the full symbolic model of one tensor. \p Perms[l] for
  /// 1 <= l < L is the outer-to-inner order of level l's tile loops
  /// (each lists the same tiled iterators; iterators not listed are
  /// untiled temporally); Perms[0] is ignored.
  TensorSymbolicModel
  buildTensorModel(unsigned TensorIdx,
                   const std::vector<std::vector<unsigned>> &Perms) const;

private:
  const Problem &Prob;
  unsigned FanoutLevel;
  std::vector<std::vector<VarId>> TripVars; ///< [level][iterator].
  std::vector<VarId> SpatialVars;           ///< [iterator].

  unsigned numLevels() const { return TripVars.size(); }

  /// The variable of the tile loop directly inside level \p Level's
  /// loops, for substitution chains: the fan-out inside level F+1,
  /// level Level-1 otherwise.
  VarId innerVar(unsigned Level, unsigned Iter) const;
};

} // namespace thistle

#endif // THISTLE_THISTLE_EXPRGEN_H
