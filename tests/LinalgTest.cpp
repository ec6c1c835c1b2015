//===- tests/LinalgTest.cpp - linalg/ unit tests --------------------------===//

#include "linalg/Kernels.h"
#include "linalg/Matrix.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace thistle;

namespace {

/// Solves the SPD system A * X = B with the kernel layer's single-system
/// Cholesky; false if A is not (numerically) positive definite.
bool solveSpd(Matrix A, const Vector &B, Vector &X) {
  const std::size_t N = A.rows();
  X.assign(N, 0.0);
  Vector Scratch(N * N);
  return kernels::choleskySolveInPlace(A.data(), N, B.data(), X.data(),
                                       Scratch.data());
}

} // namespace

TEST(Matrix, ApplyAndTranspose) {
  Matrix M(2, 3);
  M.at(0, 0) = 1;
  M.at(0, 1) = 2;
  M.at(0, 2) = 3;
  M.at(1, 0) = 4;
  M.at(1, 1) = 5;
  M.at(1, 2) = 6;
  Vector V{1, 1, 1};
  Vector Out = M.apply(V);
  EXPECT_DOUBLE_EQ(Out[0], 6.0);
  EXPECT_DOUBLE_EQ(Out[1], 15.0);

  Matrix T = M.transposed();
  EXPECT_EQ(T.rows(), 3u);
  EXPECT_EQ(T.cols(), 2u);
  EXPECT_DOUBLE_EQ(T.at(2, 1), 6.0);
}

TEST(Matrix, MultiplyIdentity) {
  Matrix M(2, 2);
  M.at(0, 0) = 2;
  M.at(0, 1) = -1;
  M.at(1, 0) = 0.5;
  M.at(1, 1) = 3;
  Matrix P = M.multiply(Matrix::identity(2));
  for (std::size_t R = 0; R < 2; ++R)
    for (std::size_t C = 0; C < 2; ++C)
      EXPECT_DOUBLE_EQ(P.at(R, C), M.at(R, C));
}

TEST(Cholesky, SolvesSpdSystem) {
  // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
  Matrix A(2, 2);
  A.at(0, 0) = 4;
  A.at(0, 1) = 1;
  A.at(1, 0) = 1;
  A.at(1, 1) = 3;
  Vector X;
  ASSERT_TRUE(solveSpd(A, {1, 2}, X));
  EXPECT_NEAR(X[0], 1.0 / 11.0, 1e-12);
  EXPECT_NEAR(X[1], 7.0 / 11.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix A(2, 2);
  A.at(0, 0) = 1;
  A.at(0, 1) = 2;
  A.at(1, 0) = 2;
  A.at(1, 1) = 1; // Eigenvalues 3 and -1.
  Vector X;
  EXPECT_FALSE(solveSpd(A, {1, 1}, X));
}

TEST(Cholesky, LargerRandomSpd) {
  // Build A = B^T B + I, solve against a known x.
  const std::size_t N = 8;
  Matrix B(N, N);
  unsigned Seed = 12345;
  auto NextVal = [&Seed]() {
    Seed = Seed * 1103515245 + 12345;
    return static_cast<double>((Seed >> 16) % 1000) / 500.0 - 1.0;
  };
  for (std::size_t R = 0; R < N; ++R)
    for (std::size_t C = 0; C < N; ++C)
      B.at(R, C) = NextVal();
  Matrix A = B.transposed().multiply(B);
  for (std::size_t I = 0; I < N; ++I)
    A.at(I, I) += 1.0;

  Vector XTrue(N);
  for (std::size_t I = 0; I < N; ++I)
    XTrue[I] = static_cast<double>(I) - 3.5;
  Vector Rhs = A.apply(XTrue);
  Vector X;
  ASSERT_TRUE(solveSpd(A, Rhs, X));
  for (std::size_t I = 0; I < N; ++I)
    EXPECT_NEAR(X[I], XTrue[I], 1e-9);
}

TEST(NullSpace, SimplePlane) {
  // x + y + z = 0 has a 2D null space.
  Matrix A(1, 3);
  A.at(0, 0) = A.at(0, 1) = A.at(0, 2) = 1;
  Matrix Z = nullSpaceOf(A);
  EXPECT_EQ(Z.rows(), 3u);
  EXPECT_EQ(Z.cols(), 2u);
  // Every column must satisfy A z = 0.
  for (std::size_t C = 0; C < Z.cols(); ++C) {
    double Sum = 0;
    for (std::size_t R = 0; R < 3; ++R)
      Sum += Z.at(R, C);
    EXPECT_NEAR(Sum, 0.0, 1e-12);
  }
}

TEST(NullSpace, FullRankSquareHasEmptyNullSpace) {
  Matrix A = Matrix::identity(3);
  Matrix Z = nullSpaceOf(A);
  EXPECT_EQ(Z.cols(), 0u);
}

TEST(NullSpace, RedundantRowsIgnored) {
  // Two identical constraints: rank 1, null space dim 2.
  Matrix A(2, 3);
  for (std::size_t C = 0; C < 3; ++C) {
    A.at(0, C) = 1.0;
    A.at(1, C) = 1.0;
  }
  EXPECT_EQ(nullSpaceOf(A).cols(), 2u);
}

TEST(SolveParticular, UnderdeterminedConsistent) {
  // x + y = 3 has solutions; particular solution must satisfy it.
  Matrix A(1, 2);
  A.at(0, 0) = 1;
  A.at(0, 1) = 1;
  Vector X;
  ASSERT_TRUE(solveParticular(A, {3}, X));
  EXPECT_NEAR(X[0] + X[1], 3.0, 1e-12);
}

TEST(SolveParticular, DetectsInconsistency) {
  // x + y = 1 and x + y = 2 cannot both hold.
  Matrix A(2, 2);
  A.at(0, 0) = A.at(0, 1) = 1;
  A.at(1, 0) = A.at(1, 1) = 1;
  Vector X;
  EXPECT_FALSE(solveParticular(A, {1, 2}, X));
}

TEST(VectorOps, DotNormAxpy) {
  Vector A{1, 2, 3}, B{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(A, B), 12.0);
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
  Vector C = axpy(A, 2.0, B);
  EXPECT_DOUBLE_EQ(C[0], 9.0);
  EXPECT_DOUBLE_EQ(C[1], -8.0);
  EXPECT_DOUBLE_EQ(C[2], 15.0);
}
