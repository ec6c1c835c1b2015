//===- solver/LogSumExp.h - Compiled log-sum-exp functions ------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The log transform of one posynomial over the solver's reduced
/// variables z: F(z) = log sum_k exp(A_k . z + B_k). GpSolver compiles
/// its objective and every inequality into this form once per solve.
///
/// A one-term function (a monomial) is affine in log space: its value is
/// A_0 . z + B_0, its gradient A_0 and its Hessian zero. It takes its own
/// path, which keeps the bits of the log-sum-exp path exactly: with one
/// term the softmax weight is exp(0) / 1 = 1, log 1 = 0, and the
/// curvature w a a^T - g g^T cancels to +0.0 in every entry.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SOLVER_LOGSUMEXP_H
#define THISTLE_SOLVER_LOGSUMEXP_H

#include "expr/Signomial.h"
#include "expr/VarTable.h"
#include "linalg/Matrix.h"

namespace thistle {

/// A log-sum-exp function over the reduced variables z. The exponent
/// rows A_k are one contiguous K x Reduced matrix so the kernels stream
/// them without pointer chasing.
struct LseFunction {
  Matrix Rows;    ///< K x Reduced exponent rows A_k.
  Vector Offsets; ///< B_k.

  std::size_t numTerms() const { return Rows.rows(); }

  /// True for one term: F is affine in z and has no curvature.
  bool affine() const { return numTerms() == 1; }

  /// Value only. \p E is exponent scratch, resized to the term count.
  double value(const Vector &Z, Vector &E) const;

  /// Value, gradient, and (when \p Hess is non-null) Hessian. \p E is
  /// exponent scratch; \p Grad / \p Hess are overwritten.
  double valueGradHess(const Vector &Z, Vector &Grad, Matrix *Hess,
                       Vector &E) const;

  /// The log-sum-exp evaluation for any term count, which value() and
  /// valueGradHess() run for functions of more than one term.
  double lseValue(const Vector &Z, Vector &E) const;
  double lseValueGradHess(const Vector &Z, Vector &Grad, Matrix *Hess,
                          Vector &E) const;
};

/// Compiles the posynomial \p Posy over the affine substitution
/// y = Y0 + Z z (y = log x).
LseFunction compileLse(const Posynomial &Posy, const VarTable &Vars,
                       const Vector &Y0, const Matrix &Z);

} // namespace thistle

#endif // THISTLE_SOLVER_LOGSUMEXP_H
