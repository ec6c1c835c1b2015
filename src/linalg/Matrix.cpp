//===- linalg/Matrix.cpp - Dense linear algebra kernel --------------------===//
//
// The Matrix entry points run on the SIMD kernel layer (Kernels.h).
// Reductions (apply, dot) use the kernels' fixed blocked association
// order; element-wise sweeps (multiply, the Gauss-Jordan row updates) are
// bit-identical to the naive scalar loops by construction.
//
//===----------------------------------------------------------------------===//

#include "linalg/Matrix.h"

#include "linalg/Kernels.h"

#include <cmath>

using namespace thistle;

Matrix Matrix::identity(std::size_t N) {
  Matrix I(N, N);
  for (std::size_t K = 0; K < N; ++K)
    I.at(K, K) = 1.0;
  return I;
}

Vector Matrix::apply(const Vector &V) const {
  assert(V.size() == NumCols && "dimension mismatch in apply");
  Vector Out(NumRows, 0.0);
  for (std::size_t R = 0; R < NumRows; ++R)
    Out[R] = kernels::dot(row(R), V.data(), NumCols);
  return Out;
}

Matrix Matrix::multiply(const Matrix &Other) const {
  assert(NumCols == Other.rows() && "dimension mismatch in multiply");
  Matrix Out(NumRows, Other.cols());
  for (std::size_t R = 0; R < NumRows; ++R)
    for (std::size_t K = 0; K < NumCols; ++K) {
      double V = at(R, K);
      if (V == 0.0)
        continue;
      kernels::axpy(Out.row(R), V, Other.row(K), Other.cols());
    }
  return Out;
}

Matrix Matrix::transposed() const {
  Matrix Out(NumCols, NumRows);
  for (std::size_t R = 0; R < NumRows; ++R)
    for (std::size_t C = 0; C < NumCols; ++C)
      Out.at(C, R) = at(R, C);
  return Out;
}

namespace {

/// Runs Gauss-Jordan elimination on [A | B]; returns the pivot column of
/// each eliminated row in \p PivotCols (row R has pivot PivotCols[R]).
/// On return \p A is in reduced row-echelon form.
void gaussJordan(Matrix &A, Vector *B, std::vector<std::size_t> &PivotCols,
                 double Tol) {
  const std::size_t Rows = A.rows(), Cols = A.cols();
  PivotCols.clear();
  std::size_t Row = 0;
  for (std::size_t Col = 0; Col < Cols && Row < Rows; ++Col) {
    // Partial pivoting within this column.
    std::size_t Best = Row;
    for (std::size_t R = Row + 1; R < Rows; ++R)
      if (std::abs(A.at(R, Col)) > std::abs(A.at(Best, Col)))
        Best = R;
    if (std::abs(A.at(Best, Col)) <= Tol)
      continue;
    if (Best != Row) {
      for (std::size_t C = 0; C < Cols; ++C)
        std::swap(A.at(Best, C), A.at(Row, C));
      if (B)
        std::swap((*B)[Best], (*B)[Row]);
    }
    // Normalize the pivot row.
    double Pivot = A.at(Row, Col);
    for (std::size_t C = 0; C < Cols; ++C)
      A.at(Row, C) /= Pivot;
    if (B)
      (*B)[Row] /= Pivot;
    // Eliminate the column from every other row (element-wise axpy: the
    // kernel result is bit-identical to the scalar update).
    for (std::size_t R = 0; R < Rows; ++R) {
      if (R == Row)
        continue;
      double Factor = A.at(R, Col);
      if (Factor == 0.0)
        continue;
      kernels::axpy(A.row(R), -Factor, A.row(Row), Cols);
      if (B)
        (*B)[R] -= Factor * (*B)[Row];
    }
    PivotCols.push_back(Col);
    ++Row;
  }
}

} // namespace

Matrix thistle::nullSpaceOf(const Matrix &A, double Tol) {
  Matrix R = A;
  std::vector<std::size_t> PivotCols;
  gaussJordan(R, /*B=*/nullptr, PivotCols, Tol);

  const std::size_t Cols = A.cols();
  std::vector<bool> IsPivot(Cols, false);
  for (std::size_t P : PivotCols)
    IsPivot[P] = true;

  std::vector<std::size_t> FreeCols;
  for (std::size_t C = 0; C < Cols; ++C)
    if (!IsPivot[C])
      FreeCols.push_back(C);

  Matrix Z(Cols, FreeCols.size());
  for (std::size_t K = 0; K < FreeCols.size(); ++K) {
    std::size_t F = FreeCols[K];
    Z.at(F, K) = 1.0;
    // Pivot row I constrains variable PivotCols[I]:
    //   x_pivot + sum_{free C} R(I, C) x_C = 0.
    for (std::size_t I = 0; I < PivotCols.size(); ++I)
      Z.at(PivotCols[I], K) = -R.at(I, F);
  }
  return Z;
}

bool thistle::solveParticular(const Matrix &A, const Vector &B, Vector &X,
                              double Tol) {
  assert(B.size() == A.rows() && "right-hand side dimension mismatch");
  Matrix R = A;
  Vector Rhs = B;
  std::vector<std::size_t> PivotCols;
  gaussJordan(R, &Rhs, PivotCols, Tol);

  // Inconsistency check: a zero row with a nonzero right-hand side.
  for (std::size_t Row = PivotCols.size(); Row < A.rows(); ++Row)
    if (std::abs(Rhs[Row]) > Tol * 100)
      return false;

  X.assign(A.cols(), 0.0);
  for (std::size_t I = 0; I < PivotCols.size(); ++I)
    X[PivotCols[I]] = Rhs[I];
  return true;
}

double thistle::dot(const Vector &A, const Vector &B) {
  assert(A.size() == B.size() && "dot dimension mismatch");
  return kernels::dot(A.data(), B.data(), A.size());
}

double thistle::norm2(const Vector &V) { return std::sqrt(dot(V, V)); }

Vector thistle::axpy(const Vector &A, double Scale, const Vector &B) {
  assert(A.size() == B.size() && "axpy dimension mismatch");
  Vector Out(A.size());
  kernels::axpby(Out.data(), A.data(), Scale, B.data(), A.size());
  return Out;
}
