//===- support/Simd.h - Fixed-width portable SIMD pack ----------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-width register abstraction in the spirit of RAJA's register
/// pattern: `Pack4` is always four doubles, whatever the instruction set.
/// The backend — AVX2 (one 256-bit register), SSE2 / NEON (two 128-bit
/// halves), or plain scalar emulation — is selected at configure time via
/// the `THISTLE_SIMD` CMake option and never changes the *meaning* of an
/// operation: every lane performs the same IEEE-754 double operation, and
/// the horizontal sum always reduces with the fixed tree
/// `(l0 + l1) + (l2 + l3)`.
///
/// This is the determinism invariant of the kernel layer (linalg/Kernels.h):
/// because the logical width and the association order are fixed properties
/// of the *kernel*, not of the selected backend, every `THISTLE_SIMD`
/// setting produces bit-identical results. The kernels translation unit is
/// compiled with `-ffp-contract=off` so the scalar backend cannot be
/// contracted into FMA behind our back (the intrinsic backends use explicit
/// mul/add and never fuse).
///
/// Only linalg/Kernels.cpp should include this header: it is the single
/// translation unit built with native vector flags, which keeps the code
/// generation of the rest of the project independent of `THISTLE_SIMD`.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_SIMD_H
#define THISTLE_SUPPORT_SIMD_H

#include <cstddef>

// Backend selection: THISTLE_SIMD=off/scalar define
// THISTLE_SIMD_FORCE_SCALAR; otherwise the best instruction set the
// compiler advertises is used. The scalar backend is always available.
#if !defined(THISTLE_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#define THISTLE_SIMD_BACKEND_AVX2 1
#include <immintrin.h>
#elif !defined(THISTLE_SIMD_FORCE_SCALAR) && defined(__SSE2__)
#define THISTLE_SIMD_BACKEND_SSE2 1
#include <emmintrin.h>
#elif !defined(THISTLE_SIMD_FORCE_SCALAR) && defined(__ARM_NEON) &&          \
    defined(__aarch64__)
#define THISTLE_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#else
#define THISTLE_SIMD_BACKEND_SCALAR 1
#endif

namespace thistle {
namespace simd {

/// The fixed logical register width of the kernel layer, in doubles.
/// Kernels block every loop by this width regardless of the backend.
constexpr std::size_t PackWidth = 4;

#if defined(THISTLE_SIMD_BACKEND_AVX2)

struct Pack4 {
  __m256d V;
};

inline const char *backendName() { return "avx2"; }

inline Pack4 zero() { return {_mm256_setzero_pd()}; }
inline Pack4 set1(double X) { return {_mm256_set1_pd(X)}; }
inline Pack4 load(const double *P) { return {_mm256_loadu_pd(P)}; }
inline void store(double *P, Pack4 A) { _mm256_storeu_pd(P, A.V); }
inline Pack4 add(Pack4 A, Pack4 B) { return {_mm256_add_pd(A.V, B.V)}; }
inline Pack4 sub(Pack4 A, Pack4 B) { return {_mm256_sub_pd(A.V, B.V)}; }
inline Pack4 mul(Pack4 A, Pack4 B) { return {_mm256_mul_pd(A.V, B.V)}; }

/// The fixed horizontal-sum tree (l0 + l1) + (l2 + l3).
inline double hsum(Pack4 A) {
  __m128d Lo = _mm256_castpd256_pd128(A.V);    // l0 l1
  __m128d Hi = _mm256_extractf128_pd(A.V, 1);  // l2 l3
  double S01 =
      _mm_cvtsd_f64(_mm_add_sd(Lo, _mm_unpackhi_pd(Lo, Lo)));
  double S23 =
      _mm_cvtsd_f64(_mm_add_sd(Hi, _mm_unpackhi_pd(Hi, Hi)));
  return S01 + S23;
}

#elif defined(THISTLE_SIMD_BACKEND_SSE2)

struct Pack4 {
  __m128d Lo, Hi; // lanes 0-1, lanes 2-3
};

inline const char *backendName() { return "sse2"; }

inline Pack4 zero() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
inline Pack4 set1(double X) { return {_mm_set1_pd(X), _mm_set1_pd(X)}; }
inline Pack4 load(const double *P) {
  return {_mm_loadu_pd(P), _mm_loadu_pd(P + 2)};
}
inline void store(double *P, Pack4 A) {
  _mm_storeu_pd(P, A.Lo);
  _mm_storeu_pd(P + 2, A.Hi);
}
inline Pack4 add(Pack4 A, Pack4 B) {
  return {_mm_add_pd(A.Lo, B.Lo), _mm_add_pd(A.Hi, B.Hi)};
}
inline Pack4 sub(Pack4 A, Pack4 B) {
  return {_mm_sub_pd(A.Lo, B.Lo), _mm_sub_pd(A.Hi, B.Hi)};
}
inline Pack4 mul(Pack4 A, Pack4 B) {
  return {_mm_mul_pd(A.Lo, B.Lo), _mm_mul_pd(A.Hi, B.Hi)};
}

inline double hsum(Pack4 A) {
  double S01 =
      _mm_cvtsd_f64(_mm_add_sd(A.Lo, _mm_unpackhi_pd(A.Lo, A.Lo)));
  double S23 =
      _mm_cvtsd_f64(_mm_add_sd(A.Hi, _mm_unpackhi_pd(A.Hi, A.Hi)));
  return S01 + S23;
}

#elif defined(THISTLE_SIMD_BACKEND_NEON)

struct Pack4 {
  float64x2_t Lo, Hi; // lanes 0-1, lanes 2-3
};

inline const char *backendName() { return "neon"; }

inline Pack4 zero() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
inline Pack4 set1(double X) { return {vdupq_n_f64(X), vdupq_n_f64(X)}; }
inline Pack4 load(const double *P) {
  return {vld1q_f64(P), vld1q_f64(P + 2)};
}
inline void store(double *P, Pack4 A) {
  vst1q_f64(P, A.Lo);
  vst1q_f64(P + 2, A.Hi);
}
inline Pack4 add(Pack4 A, Pack4 B) {
  return {vaddq_f64(A.Lo, B.Lo), vaddq_f64(A.Hi, B.Hi)};
}
inline Pack4 sub(Pack4 A, Pack4 B) {
  return {vsubq_f64(A.Lo, B.Lo), vsubq_f64(A.Hi, B.Hi)};
}
inline Pack4 mul(Pack4 A, Pack4 B) {
  return {vmulq_f64(A.Lo, B.Lo), vmulq_f64(A.Hi, B.Hi)};
}

inline double hsum(Pack4 A) {
  double S01 = vgetq_lane_f64(A.Lo, 0) + vgetq_lane_f64(A.Lo, 1);
  double S23 = vgetq_lane_f64(A.Hi, 0) + vgetq_lane_f64(A.Hi, 1);
  return S01 + S23;
}

#else // scalar emulation

struct Pack4 {
  double L[4];
};

inline const char *backendName() { return "scalar"; }

inline Pack4 zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
inline Pack4 set1(double X) { return {{X, X, X, X}}; }
inline Pack4 load(const double *P) { return {{P[0], P[1], P[2], P[3]}}; }
inline void store(double *P, Pack4 A) {
  P[0] = A.L[0];
  P[1] = A.L[1];
  P[2] = A.L[2];
  P[3] = A.L[3];
}
inline Pack4 add(Pack4 A, Pack4 B) {
  return {{A.L[0] + B.L[0], A.L[1] + B.L[1], A.L[2] + B.L[2],
           A.L[3] + B.L[3]}};
}
inline Pack4 sub(Pack4 A, Pack4 B) {
  return {{A.L[0] - B.L[0], A.L[1] - B.L[1], A.L[2] - B.L[2],
           A.L[3] - B.L[3]}};
}
inline Pack4 mul(Pack4 A, Pack4 B) {
  return {{A.L[0] * B.L[0], A.L[1] * B.L[1], A.L[2] * B.L[2],
           A.L[3] * B.L[3]}};
}

inline double hsum(Pack4 A) {
  return (A.L[0] + A.L[1]) + (A.L[2] + A.L[3]);
}

#endif

} // namespace simd
} // namespace thistle

#endif // THISTLE_SUPPORT_SIMD_H
