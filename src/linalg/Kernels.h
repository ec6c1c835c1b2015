//===- linalg/Kernels.h - SIMD kernels for the GP/Newton hot path -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The portable SIMD kernel layer for the barrier-Newton inner loops:
/// blocked dot/sum/axpy, the fused exp-and-accumulate used by log-sum-exp
/// value/gradient/Hessian assembly, weighted-Gram Hessian accumulation,
/// and a blocked dense Cholesky factor/solve (one call per rung of a
/// Newton step's regularization ladder).
///
/// Determinism rule (docs/PERF.md): every kernel uses a *fixed* blocking
/// and association order — reductions accumulate four partial sums over
/// blocks of four elements, combine them as `(l0 + l1) + (l2 + l3)`, and
/// fold the tail sequentially — independent of the instruction set
/// selected by `THISTLE_SIMD`. Element-wise kernels (axpy, Gram updates)
/// perform exactly one mul and one add per element, never an FMA. The
/// result of every kernel is therefore bit-identical across
/// `THISTLE_SIMD=off/scalar/native`, which keeps full solver trajectories
/// (Newton counts, incidents, winners) invariant under the backend.
///
/// These functions are the only code compiled with native vector flags;
/// callers (solver/GpSolver.cpp, linalg/Matrix.cpp) stay instruction-set
/// agnostic.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_LINALG_KERNELS_H
#define THISTLE_LINALG_KERNELS_H

#include <cstddef>

namespace thistle {
namespace kernels {

/// Name of the instruction set the kernels were compiled for
/// ("avx2", "sse2", "neon", or "scalar").
const char *backendName();

/// Logical register width in doubles (always 4; see support/Simd.h).
std::size_t packWidth();

/// Blocked dot product sum_i A[i]*B[i] in the fixed association order.
double dot(const double *A, const double *B, std::size_t N);

/// Blocked sum of A[0..N) in the fixed association order.
double sum(const double *A, std::size_t N);

/// Y[i] += Alpha * X[i] (element-wise; bit-identical to the scalar loop).
void axpy(double *Y, double Alpha, const double *X, std::size_t N);

/// Out[i] = A[i] + Alpha * B[i] (element-wise).
void axpby(double *Out, const double *A, double Alpha, const double *B,
           std::size_t N);

/// Fused exp-and-accumulate for log-sum-exp assembly: replaces
/// E[k] with exp(E[k] - Max) and returns the blocked sum of the results.
/// The exponential itself is always the scalar libm call, lane by lane,
/// so the per-element values match the naive loop bit for bit; only the
/// final accumulation uses the fixed blocked order.
double expAccum(double *E, std::size_t N, double Max);

/// Weighted Gram accumulation H += W * Row * Row^T for one row:
/// H[i*N + j] += (W * Row[i]) * Row[j]. Element-wise across j, so the
/// result is bit-identical to the naive triple loop.
void gramAccum(double *H, const double *Row, double W, std::size_t N);

/// Rank-one subtraction H[i*N + j] -= G[i] * G[j] (element-wise).
void rank1Sub(double *H, const double *G, std::size_t N);

/// In-place lower-triangular Cholesky factorization of the row-major
/// N x N matrix \p A, with blocked inner dot products. Returns false if
/// a pivot is non-positive or non-finite (A not numerically SPD); \p A
/// is left partially overwritten in that case.
bool choleskyFactor(double *A, std::size_t N);

/// Solves L * L^T * X = B given the factor produced by choleskyFactor.
/// \p Scratch must hold at least N*N doubles (used to transpose L so the
/// back substitution runs on contiguous rows).
void choleskySubstitute(const double *L, std::size_t N, const double *B,
                        double *X, double *Scratch);

/// Factor-and-solve of one SPD system: A is overwritten with its factor.
/// \p Scratch must hold at least N*N doubles.
bool choleskySolveInPlace(double *A, std::size_t N, const double *B,
                          double *X, double *Scratch);

} // namespace kernels
} // namespace thistle

#endif // THISTLE_LINALG_KERNELS_H
