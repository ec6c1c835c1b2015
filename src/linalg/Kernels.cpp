//===- linalg/Kernels.cpp - SIMD kernels for the GP/Newton hot path -------===//
//
// The only translation unit compiled with native vector flags (and with
// -ffp-contract=off, so the scalar backend cannot be silently fused into
// FMA). Every kernel follows the fixed blocking/association order
// documented in Kernels.h; see the bit-identity tests in
// tests/SimdKernelsTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"

#include "support/Simd.h"

#include <cmath>

using namespace thistle;
using simd::Pack4;

const char *kernels::backendName() { return simd::backendName(); }

std::size_t kernels::packWidth() { return simd::PackWidth; }

double kernels::dot(const double *A, const double *B, std::size_t N) {
  Pack4 Acc = simd::zero();
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    Acc = simd::add(Acc, simd::mul(simd::load(A + I), simd::load(B + I)));
  double S = simd::hsum(Acc);
  for (; I < N; ++I)
    S += A[I] * B[I];
  return S;
}

double kernels::sum(const double *A, std::size_t N) {
  Pack4 Acc = simd::zero();
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    Acc = simd::add(Acc, simd::load(A + I));
  double S = simd::hsum(Acc);
  for (; I < N; ++I)
    S += A[I];
  return S;
}

void kernels::axpy(double *Y, double Alpha, const double *X, std::size_t N) {
  const Pack4 VA = simd::set1(Alpha);
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    simd::store(Y + I,
                simd::add(simd::load(Y + I),
                          simd::mul(VA, simd::load(X + I))));
  for (; I < N; ++I)
    Y[I] += Alpha * X[I];
}

void kernels::axpby(double *Out, const double *A, double Alpha,
                    const double *B, std::size_t N) {
  const Pack4 VA = simd::set1(Alpha);
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    simd::store(Out + I,
                simd::add(simd::load(A + I),
                          simd::mul(VA, simd::load(B + I))));
  for (; I < N; ++I)
    Out[I] = A[I] + Alpha * B[I];
}

double kernels::expAccum(double *E, std::size_t N, double Max) {
  Pack4 Acc = simd::zero();
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    // The exponential stays the scalar libm call in every backend, so
    // per-element values never depend on THISTLE_SIMD.
    E[I] = std::exp(E[I] - Max);
    E[I + 1] = std::exp(E[I + 1] - Max);
    E[I + 2] = std::exp(E[I + 2] - Max);
    E[I + 3] = std::exp(E[I + 3] - Max);
    Acc = simd::add(Acc, simd::load(E + I));
  }
  double S = simd::hsum(Acc);
  for (; I < N; ++I) {
    E[I] = std::exp(E[I] - Max);
    S += E[I];
  }
  return S;
}

void kernels::gramAccum(double *H, const double *Row, double W,
                        std::size_t N) {
  for (std::size_t I = 0; I < N; ++I)
    axpy(H + I * N, W * Row[I], Row, N);
}

void kernels::rank1Sub(double *H, const double *G, std::size_t N) {
  for (std::size_t I = 0; I < N; ++I) {
    double *Hr = H + I * N;
    const Pack4 Gi = simd::set1(G[I]);
    std::size_t J = 0;
    for (; J + 4 <= N; J += 4)
      simd::store(Hr + J, simd::sub(simd::load(Hr + J),
                                    simd::mul(Gi, simd::load(G + J))));
    for (; J < N; ++J)
      Hr[J] -= G[I] * G[J];
  }
}

bool kernels::choleskyFactor(double *A, std::size_t N) {
  for (std::size_t J = 0; J < N; ++J) {
    double *RowJ = A + J * N;
    double Diag = RowJ[J] - dot(RowJ, RowJ, J);
    if (!(Diag > 0.0) || !std::isfinite(Diag))
      return false;
    double L = std::sqrt(Diag);
    RowJ[J] = L;
    for (std::size_t I = J + 1; I < N; ++I) {
      double *RowI = A + I * N;
      RowI[J] = (RowI[J] - dot(RowI, RowJ, J)) / L;
    }
  }
  return true;
}

void kernels::choleskySubstitute(const double *L, std::size_t N,
                                 const double *B, double *X,
                                 double *Scratch) {
  // Forward substitution L * Y = B; Y lives in X.
  for (std::size_t I = 0; I < N; ++I)
    X[I] = (B[I] - dot(L + I * N, X, I)) / L[I * N + I];
  // Transpose the factor so back substitution reads contiguous rows.
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = I; J < N; ++J)
      Scratch[I * N + J] = L[J * N + I];
  // Back substitution L^T * X = Y.
  for (std::size_t II = N; II > 0; --II) {
    std::size_t I = II - 1;
    X[I] = (X[I] - dot(Scratch + I * N + I + 1, X + I + 1, N - I - 1)) /
           Scratch[I * N + I];
  }
}

bool kernels::choleskySolveInPlace(double *A, std::size_t N,
                                   const double *B, double *X,
                                   double *Scratch) {
  if (!choleskyFactor(A, N))
    return false;
  choleskySubstitute(A, N, B, X, Scratch);
  return true;
}
