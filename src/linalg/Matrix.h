//===- linalg/Matrix.h - Dense linear algebra kernel ------------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal dense linear algebra used by the geometric-programming solver:
/// a row-major Matrix and a null-space computation (via Gauss-Jordan
/// elimination) used to eliminate the monomial equality constraints of a
/// GP in log space. The Newton systems' Cholesky solves live in the kernel
/// layer (linalg/Kernels.h).
///
/// The problems solved here are small (tens of variables) but sit on the
/// hot path of every co-design query, so the implementations run on the
/// portable SIMD kernel layer (linalg/Kernels.h) with its fixed
/// blocking/association order: results are bit-identical across every
/// `THISTLE_SIMD` setting (see docs/PERF.md).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_LINALG_MATRIX_H
#define THISTLE_LINALG_MATRIX_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace thistle {

/// A dense vector of doubles.
using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
public:
  Matrix() : NumRows(0), NumCols(0) {}
  Matrix(std::size_t Rows, std::size_t Cols)
      : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, 0.0) {}

  std::size_t rows() const { return NumRows; }
  std::size_t cols() const { return NumCols; }

  double &at(std::size_t R, std::size_t C) {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }
  double at(std::size_t R, std::size_t C) const {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }

  /// Raw row-major storage (for the kernel layer, linalg/Kernels.h).
  double *data() { return Data.data(); }
  const double *data() const { return Data.data(); }

  /// Pointer to the start of row \p R.
  double *row(std::size_t R) {
    assert(R < NumRows && "matrix row out of range");
    return Data.data() + R * NumCols;
  }
  const double *row(std::size_t R) const {
    assert(R < NumRows && "matrix row out of range");
    return Data.data() + R * NumCols;
  }

  /// Re-shapes to \p Rows x \p Cols and zero-fills, reusing the existing
  /// allocation when large enough (hot-loop scratch reuse).
  void reset(std::size_t Rows, std::size_t Cols) {
    NumRows = Rows;
    NumCols = Cols;
    Data.assign(Rows * Cols, 0.0);
  }

  /// Returns an identity matrix of size \p N.
  static Matrix identity(std::size_t N);

  /// Returns this * \p V.
  Vector apply(const Vector &V) const;

  /// Returns this * \p Other.
  Matrix multiply(const Matrix &Other) const;

  /// Returns the transpose.
  Matrix transposed() const;

private:
  std::size_t NumRows, NumCols;
  std::vector<double> Data;
};

/// Computes an orthonormal-ish basis of the null space of \p A (rows are
/// constraints) via Gauss-Jordan elimination with partial pivoting.
///
/// Returns a matrix Z with A * Z = 0 whose columns span null(A); each
/// column has a unit entry in one free variable. Entries below \p Tol in
/// magnitude during elimination are treated as zero.
Matrix nullSpaceOf(const Matrix &A, double Tol = 1e-10);

/// Solves the (possibly under-determined, assumed consistent) system
/// A * X = B via Gauss-Jordan elimination, returning one particular
/// solution (free variables set to zero). Returns false if the system is
/// inconsistent within \p Tol.
bool solveParticular(const Matrix &A, const Vector &B, Vector &X,
                     double Tol = 1e-10);

/// Euclidean inner product.
double dot(const Vector &A, const Vector &B);

/// Euclidean norm.
double norm2(const Vector &V);

/// Returns A + Scale * B.
Vector axpy(const Vector &A, double Scale, const Vector &B);

} // namespace thistle

#endif // THISTLE_LINALG_MATRIX_H
