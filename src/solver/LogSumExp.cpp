//===- solver/LogSumExp.cpp - Compiled log-sum-exp functions --------------===//

#include "solver/LogSumExp.h"

#include "linalg/Kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace thistle;

double LseFunction::value(const Vector &Z, Vector &E) const {
  if (!affine())
    return lseValue(Z, E);
  assert(Z.size() == Rows.cols() && "LSE evaluated at the wrong dimension");
  return kernels::dot(Rows.row(0), Z.data(), Rows.cols()) + Offsets[0];
}

double LseFunction::valueGradHess(const Vector &Z, Vector &Grad,
                                  Matrix *Hess, Vector &E) const {
  if (!affine())
    return lseValueGradHess(Z, Grad, Hess, E);
  const std::size_t N = Rows.cols();
  Grad.assign(Rows.row(0), Rows.row(0) + N);
  if (Hess)
    Hess->reset(N, N);
  return value(Z, E);
}

double LseFunction::lseValue(const Vector &Z, Vector &E) const {
  const std::size_t K = Rows.rows(), N = Rows.cols();
  assert(Z.size() == N && "LSE evaluated at the wrong dimension");
  E.resize(K);
  double Max = -std::numeric_limits<double>::infinity();
  for (std::size_t T = 0; T < K; ++T) {
    E[T] = kernels::dot(Rows.row(T), Z.data(), N) + Offsets[T];
    Max = std::max(Max, E[T]);
  }
  double Sum = kernels::expAccum(E.data(), K, Max);
  return Max + std::log(Sum);
}

/// The Hessian of a log-sum-exp is sum_k w_k a_k a_k^T - g g^T with
/// softmax weights w.
double LseFunction::lseValueGradHess(const Vector &Z, Vector &Grad,
                                     Matrix *Hess, Vector &E) const {
  const std::size_t K = Rows.rows(), N = Rows.cols();
  assert(Z.size() == N && "LSE evaluated at the wrong dimension");
  E.resize(K);
  double Max = -std::numeric_limits<double>::infinity();
  for (std::size_t T = 0; T < K; ++T) {
    E[T] = kernels::dot(Rows.row(T), Z.data(), N) + Offsets[T];
    Max = std::max(Max, E[T]);
  }
  double Sum = kernels::expAccum(E.data(), K, Max);
  Grad.assign(N, 0.0);
  for (std::size_t T = 0; T < K; ++T)
    kernels::axpy(Grad.data(), E[T] / Sum, Rows.row(T), N);
  if (Hess) {
    Hess->reset(N, N);
    for (std::size_t T = 0; T < K; ++T)
      kernels::gramAccum(Hess->data(), Rows.row(T), E[T] / Sum, N);
    kernels::rank1Sub(Hess->data(), Grad.data(), N);
  }
  return Max + std::log(Sum);
}

LseFunction thistle::compileLse(const Posynomial &Posy, const VarTable &Vars,
                                const Vector &Y0, const Matrix &Z) {
  assert(Posy.isPosynomial() && "log transform requires a posynomial");
  const std::size_t Reduced = Z.cols();
  const auto &Monomials = Posy.monomials();
  LseFunction Lse;
  Lse.Rows = Matrix(Monomials.size(), Reduced);
  Lse.Offsets.assign(Monomials.size(), 0.0);
  Vector A(Vars.size(), 0.0);
  for (std::size_t K = 0; K < Monomials.size(); ++K) {
    const Monomial &M = Monomials[K];
    // Full-space exponent vector a over y.
    std::fill(A.begin(), A.end(), 0.0);
    for (const Monomial::Term &T : M.terms())
      A[T.Var] = T.Exp;
    // Reduced row a' = Z^T a and offset b' = ln c + a . y0.
    double *Row = Lse.Rows.row(K);
    for (std::size_t I = 0; I < Vars.size(); ++I)
      if (A[I] != 0.0)
        kernels::axpy(Row, A[I], Z.row(I), Reduced);
    Lse.Offsets[K] = std::log(M.coefficient()) + dot(A, Y0);
  }
  return Lse;
}
