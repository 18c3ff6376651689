// AVX2 + FMA level of the micro-kernels: the 4-lane ymm ops the kernel
// bodies of kernels/simd.hpp and kernels/lane_tile.hpp are written over,
// and this level's kernels as forwarders to those bodies.
//
// Only compiled when the translation unit is built with AVX2 and FMA
// enabled (-march=x86-64-v3 / native via the IUP_ARCH CMake knob); the
// dispatch header includes this file conditionally, so a baseline build
// contains no AVX2 code at all.  The rounding contract relative to
// kernels::scalar is stated in simd.hpp and kernels.hpp.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <limits>

#include "linalg/kernels/simd.hpp"

namespace iup::linalg::kernels::avx2 {

/// Lane-vector ops: one ymm holds 4 doubles (4 elements of a row, or one
/// element of all 4 systems of a lane tile), fma is this level's axpy
/// element op, and lane masks select through blends.
struct Lanes {
  static constexpr std::size_t kWidth = 4;
  using Vec = __m256d;
  using Mask = __m256d;
  /// The first k lanes, for partial loads and stores.
  using First = __m256i;
  static Vec zero() { return _mm256_setzero_pd(); }
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec set1(double v) { return _mm256_set1_pd(v); }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
  static Vec fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }
  /// Exact sign flip (-x, never 0 - x, which would turn -0 into +0).
  static Vec negate(Vec v) { return _mm256_xor_pd(v, _mm256_set1_pd(-0.0)); }
  static First first(std::size_t k) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(k)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  /// Lanes outside m load as +0 and are never stored.
  static Vec load_first(First m, const double* p) {
    return _mm256_maskload_pd(p, m);
  }
  static void store_first(First m, double* p, Vec v) {
    _mm256_maskstore_pd(p, m, v);
  }
  static Mask mask(unsigned bits) {
    const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(bits), lane_bit), lane_bit));
  }
  /// fma(a, b, c) in the lanes of m, c elsewhere.
  static Vec fma_if(Mask m, Vec a, Vec b, Vec c) {
    return _mm256_blendv_pd(c, _mm256_fmadd_pd(a, b, c), m);
  }
  /// Bit mask of the lanes whose value is not == 0 (NaN included).
  static unsigned nonzero(Vec v) {
    return static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ)));
  }
  /// Bit mask of the lanes with 0 < v < inf (NaN excluded).
  static unsigned pivot_ok(Vec v) {
    const Vec inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    return static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ),
                      _mm256_cmp_pd(v, inf, _CMP_LT_OQ))));
  }
  /// sqrt(v) in the lanes of `bits`, 1.0 elsewhere.
  static Vec sqrt_where(unsigned bits, Vec v) {
    return _mm256_sqrt_pd(_mm256_blendv_pd(set1(1.0), v, mask(bits)));
  }
};

/// Systems per lane tile: one per ymm lane.
inline constexpr std::size_t kSpdLanes = Lanes::kWidth;

inline double dot(const double* a, const double* b, std::size_t n) {
  return simd::dot<Lanes>(a, b, n);
}
inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  simd::axpy<Lanes>(alpha, x, y, n);
}
inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  simd::axpy2<Lanes>(a, x, b, y, out, n);
}
inline double norm_sq(const double* x, std::size_t n) {
  return simd::norm_sq<Lanes>(x, n);
}
inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  return simd::diff_norm_sq<Lanes>(x, y, n);
}
inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  return simd::masked_diff_norm_sq<Lanes>(mask, x, y, n);
}
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  simd::dot_panel<Lanes>(a, b, ldb, n, k, out);
}
inline void axpy_sequence(const double* alpha, const double* const* x,
                          std::size_t count, double* y, std::size_t n) {
  simd::axpy_sequence<Lanes>(alpha, x, count, y, n);
}
inline void axpy_panel(const double* coef, std::size_t ldc, std::size_t rows,
                       const double* const* x, std::size_t count, double* y,
                       std::size_t ldy, std::size_t n) {
  simd::axpy_panel<Lanes>(coef, ldc, rows, x, count, y, ldy, n);
}
inline bool gram_upper(const double* a, std::size_t rows, std::size_t n,
                       double* out) {
  return simd::gram_upper<Lanes>(a, rows, n, out);
}
inline unsigned spd_factor_lanes(double* tile, std::size_t n) {
  return simd::spd_factor_lanes<Lanes>(tile, n);
}
inline void spd_solve_lanes(const double* tile, double* rhs, std::size_t n) {
  simd::spd_solve_lanes<Lanes>(tile, rhs, n);
}

}  // namespace iup::linalg::kernels::avx2
