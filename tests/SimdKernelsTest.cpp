//===- tests/SimdKernelsTest.cpp - Kernel-layer bit-identity tests --------===//
//
// The determinism contract of the kernel layer (linalg/Kernels.h,
// docs/PERF.md): every kernel follows a fixed blocking/association order
// independent of the THISTLE_SIMD backend. The tests pin that order by
// comparing each kernel bit-for-bit against an independently written
// reference that spells the canonical order out in plain scalar code.
// If the compiled backend (scalar, SSE2, AVX2, NEON) deviates from the
// canonical order in any lane, these tests fail — so green tests under
// one THISTLE_SIMD setting transitively prove agreement with every
// other setting.
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"
#include "solver/GpProblem.h"
#include "solver/GpSolver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

using namespace thistle;

namespace {

/// Deterministic values in roughly (-1, 1), bit-reproducible everywhere.
double pseudo(std::uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return static_cast<double>(static_cast<std::int64_t>(S % 2000003) -
                             1000001) /
         1000003.0;
}

std::vector<double> randomVec(std::size_t N, std::uint64_t Seed) {
  std::uint64_t S = Seed * 2654435761u + 17;
  std::vector<double> V(N);
  for (double &X : V)
    X = pseudo(S);
  return V;
}

// ---- Canonical-order references (plain scalar code). -------------------

/// The fixed reduction order: four partial sums over blocks of four,
/// combined (l0 + l1) + (l2 + l3), sequential tail.
double refDot(const double *A, const double *B, std::size_t N) {
  double L[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    for (int K = 0; K < 4; ++K)
      L[K] += A[I + K] * B[I + K];
  double S = (L[0] + L[1]) + (L[2] + L[3]);
  for (; I < N; ++I)
    S += A[I] * B[I];
  return S;
}

double refSum(const double *A, std::size_t N) {
  double L[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    for (int K = 0; K < 4; ++K)
      L[K] += A[I + K];
  double S = (L[0] + L[1]) + (L[2] + L[3]);
  for (; I < N; ++I)
    S += A[I];
  return S;
}

double refExpAccum(double *E, std::size_t N, double Max) {
  double L[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    for (int K = 0; K < 4; ++K) {
      E[I + K] = std::exp(E[I + K] - Max);
      L[K] += E[I + K];
    }
  double S = (L[0] + L[1]) + (L[2] + L[3]);
  for (; I < N; ++I) {
    E[I] = std::exp(E[I] - Max);
    S += E[I];
  }
  return S;
}

bool refCholeskySolve(std::vector<double> A, std::size_t N,
                      const std::vector<double> &B, std::vector<double> &X) {
  for (std::size_t J = 0; J < N; ++J) {
    double Diag = A[J * N + J] - refDot(&A[J * N], &A[J * N], J);
    if (!(Diag > 0.0) || !std::isfinite(Diag))
      return false;
    double L = std::sqrt(Diag);
    A[J * N + J] = L;
    for (std::size_t I = J + 1; I < N; ++I)
      A[I * N + J] = (A[I * N + J] - refDot(&A[I * N], &A[J * N], J)) / L;
  }
  X.assign(N, 0.0);
  for (std::size_t I = 0; I < N; ++I)
    X[I] = (B[I] - refDot(&A[I * N], X.data(), I)) / A[I * N + I];
  std::vector<double> T(N * N, 0.0);
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = I; J < N; ++J)
      T[I * N + J] = A[J * N + I];
  for (std::size_t II = N; II > 0; --II) {
    std::size_t I = II - 1;
    X[I] = (X[I] - refDot(&T[I * N + I + 1], &X[I + 1], N - I - 1)) /
           T[I * N + I];
  }
  return true;
}

/// An SPD matrix G^T G + N * I with deterministic G.
std::vector<double> spdMatrix(std::size_t N, std::uint64_t Seed) {
  std::vector<double> G = randomVec(N * N, Seed);
  std::vector<double> A(N * N, 0.0);
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = 0; J < N; ++J) {
      double S = 0.0;
      for (std::size_t K = 0; K < N; ++K)
        S += G[K * N + I] * G[K * N + J];
      A[I * N + J] = S + (I == J ? static_cast<double>(N) : 0.0);
    }
  return A;
}

TEST(SimdKernels, PackWidthIsFour) {
  // The logical width is a fixed property of the layer, not the backend.
  EXPECT_EQ(kernels::packWidth(), 4u);
  EXPECT_NE(kernels::backendName(), nullptr);
}

TEST(SimdKernels, DotMatchesCanonicalOrderBitwise) {
  for (std::size_t N = 0; N <= 67; ++N) {
    std::vector<double> A = randomVec(N, N * 2 + 1), B = randomVec(N, N * 2 + 2);
    double K = kernels::dot(A.data(), B.data(), N);
    double R = refDot(A.data(), B.data(), N);
    EXPECT_EQ(K, R) << "size " << N; // Bitwise: no tolerance.
  }
}

TEST(SimdKernels, SumMatchesCanonicalOrderBitwise) {
  for (std::size_t N = 0; N <= 67; ++N) {
    std::vector<double> A = randomVec(N, N + 100);
    EXPECT_EQ(kernels::sum(A.data(), N), refSum(A.data(), N)) << "size " << N;
  }
}

TEST(SimdKernels, AxpyMatchesScalarLoopBitwise) {
  for (std::size_t N = 0; N <= 67; ++N) {
    std::vector<double> Y = randomVec(N, N + 200), X = randomVec(N, N + 300);
    std::vector<double> YRef = Y;
    kernels::axpy(Y.data(), 0.37, X.data(), N);
    for (std::size_t I = 0; I < N; ++I)
      YRef[I] += 0.37 * X[I];
    EXPECT_EQ(Y, YRef) << "size " << N;
  }
}

TEST(SimdKernels, AxpbyMatchesScalarLoopBitwise) {
  for (std::size_t N = 0; N <= 67; ++N) {
    std::vector<double> A = randomVec(N, N + 400), B = randomVec(N, N + 500);
    std::vector<double> Out(N, 0.0), OutRef(N, 0.0);
    kernels::axpby(Out.data(), A.data(), -1.91, B.data(), N);
    for (std::size_t I = 0; I < N; ++I)
      OutRef[I] = A[I] + -1.91 * B[I];
    EXPECT_EQ(Out, OutRef) << "size " << N;
  }
}

TEST(SimdKernels, ExpAccumMatchesCanonicalOrderBitwise) {
  for (std::size_t N = 0; N <= 67; ++N) {
    std::vector<double> E = randomVec(N, N + 600), ERef = E;
    double K = kernels::expAccum(E.data(), N, 0.5);
    double R = refExpAccum(ERef.data(), N, 0.5);
    EXPECT_EQ(K, R) << "size " << N;
    EXPECT_EQ(E, ERef) << "size " << N; // Per-element exp values too.
  }
}

TEST(SimdKernels, GramAccumMatchesScalarLoopBitwise) {
  for (std::size_t N : {0u, 1u, 3u, 4u, 7u, 16u, 33u}) {
    std::vector<double> H = randomVec(N * N, N + 700), HRef = H;
    std::vector<double> Row = randomVec(N, N + 800);
    kernels::gramAccum(H.data(), Row.data(), 0.73, N);
    for (std::size_t I = 0; I < N; ++I)
      for (std::size_t J = 0; J < N; ++J)
        HRef[I * N + J] += (0.73 * Row[I]) * Row[J];
    EXPECT_EQ(H, HRef) << "size " << N;
  }
}

TEST(SimdKernels, Rank1SubMatchesScalarLoopBitwise) {
  for (std::size_t N : {0u, 1u, 3u, 4u, 7u, 16u, 33u}) {
    std::vector<double> H = randomVec(N * N, N + 900), HRef = H;
    std::vector<double> G = randomVec(N, N + 1000);
    kernels::rank1Sub(H.data(), G.data(), N);
    for (std::size_t I = 0; I < N; ++I)
      for (std::size_t J = 0; J < N; ++J)
        HRef[I * N + J] -= G[I] * G[J];
    EXPECT_EQ(H, HRef) << "size " << N;
  }
}

TEST(SimdKernels, CholeskyMatchesCanonicalOrderBitwise) {
  for (std::size_t N : {1u, 2u, 3u, 4u, 5u, 8u, 13u, 24u}) {
    std::vector<double> A = spdMatrix(N, N + 1100);
    std::vector<double> B = randomVec(N, N + 1200);
    std::vector<double> AK = A, X(N, 0.0), Scratch(N * N, 0.0), XRef;
    ASSERT_TRUE(kernels::choleskySolveInPlace(AK.data(), N, B.data(),
                                              X.data(), Scratch.data()));
    ASSERT_TRUE(refCholeskySolve(A, N, B, XRef));
    EXPECT_EQ(X, XRef) << "size " << N;
  }
}

TEST(SimdKernels, CholeskyRejectsNonSpd) {
  std::vector<double> A = {1.0, 2.0, 2.0, 1.0}; // Indefinite.
  EXPECT_FALSE(kernels::choleskyFactor(A.data(), 2));
}

TEST(SimdKernels, GpSolveTrajectoryIsReproducible) {
  // Same problem, repeated solves: trajectories must agree bit-for-bit
  // (Newton counts included). Combined with the canonical-order kernel
  // pins above, this makes the solver trajectory a function of the
  // problem alone — not of THISTLE_SIMD, which the CI matrix checks by
  // diffing whole runs across native and off builds.
  GpProblem P;
  VarId X = P.addVariable("x");
  VarId Y = P.addVariable("y");
  Posynomial Obj;
  Obj += Signomial(Monomial::variable(X, 1.0, 2.0)); // 2x
  Obj += Signomial(Monomial::variable(Y, 1.0, 3.0)); // + 3y
  P.setObjective(Obj);
  // x^-1 y^-1 <= 1, i.e. xy >= 1.
  P.addUpperBound(Posynomial(Monomial::variable(X, -1.0) *
                             Monomial::variable(Y, -1.0)),
                  1.0, "xy >= 1");
  GpSolverOptions Opts;
  GpSolution A = solveGp(P, Opts);
  GpSolution B = solveGp(P, Opts);
  ASSERT_TRUE(A.Converged);
  EXPECT_EQ(A.NewtonIterations, B.NewtonIterations);
  ASSERT_EQ(A.Values.size(), B.Values.size());
  for (std::size_t I = 0; I < A.Values.size(); ++I)
    EXPECT_EQ(A.Values[I], B.Values[I]);
  EXPECT_EQ(A.Objective, B.Objective);
}

} // namespace
