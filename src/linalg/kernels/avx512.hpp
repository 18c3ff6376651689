// AVX-512F implementations of the micro-kernels.
//
// Only compiled when the translation unit is built with AVX-512
// Foundation enabled (-march=x86-64-v4 / native via the IUP_ARCH CMake
// knob); the dispatch header includes this file conditionally, so builds
// without AVX-512 contain none of this code.  Only zmm arithmetic from
// AVX-512F is used (loadu/set1/fmadd/add/mul/store) — no VL/BW/DQ
// dependence — so any avx512f CPU runs this level.
//
// Rounding contract relative to kernels::scalar (see kernels.hpp):
//  * element-wise kernels (axpy, axpy2) evaluate each
//    element with one FMA, exactly like the AVX2 level, and are
//    position-independent: an element produces the same bits in a zmm
//    lane or in the std::fma tail, so splitting a row into segments
//    cannot change results;
//  * reductions (dot, norm_sq, diff_norm_sq, masked_diff_norm_sq) use two
//    8-lane accumulators over a 16-element body, one optional 8-element
//    chunk, a scalar tail (explicit fma for dot — dot_panel replays it —
//    mul+add for the norms), and the fixed combine tree
//    hsum8(acc0 + acc1) + tail with
//    hsum8(v) = ((v0+v1)+(v2+v3)) + ((v4+v5)+(v6+v7)).
//    All the *_norm_sq reductions share that tree, keeping identities
//    like diff_norm_sq(x, y) == norm_sq(x - y) exact;
//  * dot_panel reproduces THIS level's dot tree per RHS column while
//    vectorising across columns (see the contract in kernels.hpp);
//  * the lane kernels (axpy_sequence, axpy_panel, spd_factor_lanes,
//    spd_solve_lanes, and the generic lane-tile kernels over Lanes)
//    replay this level's axpy / dot op sequence per element and per lane.
#pragma once

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace iup::linalg::kernels::avx512 {

namespace detail {

/// Fixed-order 8-lane horizontal sum:
/// ((v0 + v1) + (v2 + v3)) + ((v4 + v5) + (v6 + v7)).
inline double hsum8(__m512d v) {
  alignas(64) double lane[8];
  _mm512_store_pd(lane, v);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/// Exact sign flip (-x, never 0 - x, which would turn -0 into +0).  AVX-512F
/// has no double-precision xor, so it runs on the integer view.
inline __m512d negate(__m512d v) {
  const __m512i sign =
      _mm512_set1_epi64(std::numeric_limits<std::int64_t>::min());
  return _mm512_castsi512_pd(
      _mm512_xor_epi64(_mm512_castpd_si512(v), sign));
}

/// Per-lane dot(a, b, n) over lane-interleaved vectors (element p of lane
/// l at a[p * 8 + l]): this level's dot() tree replayed in every lane,
/// exactly like dot_panel but with `a` loaded per lane instead of
/// broadcast.  Below 8 elements every chunk accumulator stays +0, so the
/// hsum8 tree reduces to +0 and only `0 + tail` remains.
inline __m512d dot_lanes(const double* a, const double* b, std::size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d t = zero;
  if (n < 8) {
    for (std::size_t p = 0; p < n; ++p) {
      t = _mm512_fmadd_pd(_mm512_loadu_pd(a + p * 8),
                          _mm512_loadu_pd(b + p * 8), t);
    }
    return _mm512_add_pd(zero, t);
  }
  __m512d acc[16];
  for (int l = 0; l < 16; ++l) acc[l] = zero;
  std::size_t p = 0;
  for (; p + 16 <= n; p += 16) {
    for (int l = 0; l < 16; ++l) {
      acc[l] = _mm512_fmadd_pd(_mm512_loadu_pd(a + (p + l) * 8),
                               _mm512_loadu_pd(b + (p + l) * 8), acc[l]);
    }
  }
  if (p + 8 <= n) {
    for (int l = 0; l < 8; ++l) {
      acc[l] = _mm512_fmadd_pd(_mm512_loadu_pd(a + (p + l) * 8),
                               _mm512_loadu_pd(b + (p + l) * 8), acc[l]);
    }
    p += 8;
  }
  for (; p < n; ++p) {
    t = _mm512_fmadd_pd(_mm512_loadu_pd(a + p * 8),
                        _mm512_loadu_pd(b + p * 8), t);
  }
  __m512d s[8];
  for (int l = 0; l < 8; ++l) s[l] = _mm512_add_pd(acc[l], acc[l + 8]);
  const __m512d left = _mm512_add_pd(_mm512_add_pd(s[0], s[1]),
                                     _mm512_add_pd(s[2], s[3]));
  const __m512d right = _mm512_add_pd(_mm512_add_pd(s[4], s[5]),
                                      _mm512_add_pd(s[6], s[7]));
  return _mm512_add_pd(_mm512_add_pd(left, right), t);
}

}  // namespace detail

inline double dot(const double* a, const double* b, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    i += 8;
  }
  // Explicit fma pins the tail arithmetic the optimiser was already
  // emitting under default FP contraction — dot_panel must be able to
  // replay it exactly (lane or scalar), so it cannot be left to flags.
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], b[i], tail);
  return detail::hsum8(_mm512_add_pd(acc0, acc1)) + tail;
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i,
        _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

/// Per-element: out[i] += fma(b, y[i], a * x[i]), evaluated identically in
/// lanes and tail (the same per-element formula as the AVX2 level).
inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  const __m512d vb = _mm512_set1_pd(b);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d t = _mm512_fmadd_pd(
        vb, _mm512_loadu_pd(y + i),
        _mm512_mul_pd(va, _mm512_loadu_pd(x + i)));
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(out + i), t));
  }
  for (; i < n; ++i) out[i] += std::fma(b, y[i], a * x[i]);
}

inline double norm_sq(const double* x, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d v0 = _mm512_loadu_pd(x + i);
    const __m512d v1 = _mm512_loadu_pd(x + i + 8);
    acc0 = _mm512_fmadd_pd(v0, v0, acc0);
    acc1 = _mm512_fmadd_pd(v1, v1, acc1);
  }
  if (i + 8 <= n) {
    const __m512d v = _mm512_loadu_pd(x + i);
    acc0 = _mm512_fmadd_pd(v, v, acc0);
    i += 8;
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += x[i] * x[i];
  return detail::hsum8(_mm512_add_pd(acc0, acc1)) + tail;
}

inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 =
        _mm512_sub_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    const __m512d d1 =
        _mm512_sub_pd(_mm512_loadu_pd(x + i + 8), _mm512_loadu_pd(y + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    acc0 = _mm512_fmadd_pd(d, d, acc0);
    i += 8;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    tail += d * d;
  }
  return detail::hsum8(_mm512_add_pd(acc0, acc1)) + tail;
}

inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 =
        _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(mask + i),
                                    _mm512_loadu_pd(x + i)),
                      _mm512_loadu_pd(y + i));
    const __m512d d1 =
        _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(mask + i + 8),
                                    _mm512_loadu_pd(x + i + 8)),
                      _mm512_loadu_pd(y + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    const __m512d d =
        _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(mask + i),
                                    _mm512_loadu_pd(x + i)),
                      _mm512_loadu_pd(y + i));
    acc0 = _mm512_fmadd_pd(d, d, acc0);
    i += 8;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = mask[i] * x[i] - y[i];
    tail += d * d;
  }
  return detail::hsum8(_mm512_add_pd(acc0, acc1)) + tail;
}

/// Panel dot (the trsv_multi back-substitution kernel): out[c] =
/// avx512::dot(a, column c of the row-major n x k panel b) bit for bit,
/// vectorised ACROSS the k RHS columns.  Per column the chunk/lane role
/// structure of this level's dot() is replayed exactly: sixteen
/// accumulators (one per mod-16 position class), the optional 8-chunk
/// feeding classes 0..7, an fma tail chain, and the hsum8 combine
/// tree.  Column blocks of 8 run in zmm registers (18 live zmm of the
/// 32); leftover columns replay the identical op sequence in scalar
/// std::fma arithmetic.
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  std::size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    __m512d acc[16];
    for (int l = 0; l < 16; ++l) acc[l] = _mm512_setzero_pd();
    std::size_t p = 0;
    for (; p + 16 <= n; p += 16) {
      for (int l = 0; l < 16; ++l) {
        acc[l] = _mm512_fmadd_pd(_mm512_set1_pd(a[p + l]),
                                 _mm512_loadu_pd(b + (p + l) * ldb + c),
                                 acc[l]);
      }
    }
    if (p + 8 <= n) {
      for (int l = 0; l < 8; ++l) {
        acc[l] = _mm512_fmadd_pd(_mm512_set1_pd(a[p + l]),
                                 _mm512_loadu_pd(b + (p + l) * ldb + c),
                                 acc[l]);
      }
      p += 8;
    }
    __m512d t = _mm512_setzero_pd();
    for (; p < n; ++p) {
      t = _mm512_fmadd_pd(_mm512_set1_pd(a[p]),
                          _mm512_loadu_pd(b + p * ldb + c), t);
    }
    // hsum8(acc0 + acc1) + tail, replayed per column: lane l of
    // (acc0 + acc1) is acc[l] + acc[l + 8].
    __m512d s[8];
    for (int l = 0; l < 8; ++l) s[l] = _mm512_add_pd(acc[l], acc[l + 8]);
    const __m512d left = _mm512_add_pd(_mm512_add_pd(s[0], s[1]),
                                       _mm512_add_pd(s[2], s[3]));
    const __m512d right = _mm512_add_pd(_mm512_add_pd(s[4], s[5]),
                                        _mm512_add_pd(s[6], s[7]));
    _mm512_storeu_pd(out + c,
                     _mm512_add_pd(_mm512_add_pd(left, right), t));
  }
  for (; c < k; ++c) {
    double acc[16] = {};
    std::size_t p = 0;
    for (; p + 16 <= n; p += 16) {
      for (int l = 0; l < 16; ++l) {
        acc[l] = std::fma(a[p + l], b[(p + l) * ldb + c], acc[l]);
      }
    }
    if (p + 8 <= n) {
      for (int l = 0; l < 8; ++l) {
        acc[l] = std::fma(a[p + l], b[(p + l) * ldb + c], acc[l]);
      }
      p += 8;
    }
    double t = 0.0;
    for (; p < n; ++p) t = std::fma(a[p], b[p * ldb + c], t);
    const double s0 = acc[0] + acc[8], s1 = acc[1] + acc[9];
    const double s2 = acc[2] + acc[10], s3 = acc[3] + acc[11];
    const double s4 = acc[4] + acc[12], s5 = acc[5] + acc[13];
    const double s6 = acc[6] + acc[14], s7 = acc[7] + acc[15];
    out[c] = (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + t;
  }
}

/// Ordered axpy sequence y += alpha[t] * x[t] (t ascending), bit for bit
/// the repeated axpy() calls: each element still takes one FMA per term,
/// but y stays in one or two zmm registers (masked at the row end) for
/// n <= 16 instead of being reloaded and stored per term.  Longer rows
/// run the axpy loop.
inline void axpy_sequence(const double* alpha, const double* const* x,
                          std::size_t count, double* y, std::size_t n) {
  if (n > 16) {
    for (std::size_t t = 0; t < count; ++t) axpy(alpha[t], x[t], y, n);
    return;
  }
  if (n == 8) {  // the factor width of 8-link sites: no masking at all
    __m512d acc = _mm512_loadu_pd(y);
    for (std::size_t t = 0; t < count; ++t) {
      acc = _mm512_fmadd_pd(_mm512_set1_pd(alpha[t]), _mm512_loadu_pd(x[t]),
                            acc);
    }
    _mm512_storeu_pd(y, acc);
    return;
  }
  if (n < 8) {
    const auto m = static_cast<__mmask8>((1u << n) - 1u);
    __m512d acc = _mm512_maskz_loadu_pd(m, y);
    for (std::size_t t = 0; t < count; ++t) {
      acc = _mm512_fmadd_pd(_mm512_set1_pd(alpha[t]),
                            _mm512_maskz_loadu_pd(m, x[t]), acc);
    }
    _mm512_mask_storeu_pd(y, m, acc);
    return;
  }
  const auto m = static_cast<__mmask8>((1u << (n - 8)) - 1u);
  __m512d lo = _mm512_loadu_pd(y);
  __m512d hi = _mm512_maskz_loadu_pd(m, y + 8);
  for (std::size_t t = 0; t < count; ++t) {
    const __m512d va = _mm512_set1_pd(alpha[t]);
    lo = _mm512_fmadd_pd(va, _mm512_loadu_pd(x[t]), lo);
    hi = _mm512_fmadd_pd(va, _mm512_maskz_loadu_pd(m, x[t] + 8), hi);
  }
  _mm512_storeu_pd(y, lo);
  _mm512_mask_storeu_pd(y + 8, m, hi);
}

/// Panel of ordered axpy sequences: row c of y (leading dimension ldy)
/// gets axpy_sequence(coef + c * ldc, x, count, ., n), bit for bit — per
/// element the same FMA chain, t ascending — with several rows' chains
/// interleaved over one load of each x[t]: four rows of one zmm for
/// n <= 8, two rows of two for n <= 16.  Leftover rows and longer rows
/// run axpy_sequence.
inline void axpy_panel(const double* coef, std::size_t ldc, std::size_t rows,
                       const double* const* x, std::size_t count, double* y,
                       std::size_t ldy, std::size_t n) {
  std::size_t c = 0;
  if (n <= 8) {
    const auto m = static_cast<__mmask8>((1u << n) - 1u);
    for (; c + 4 <= rows; c += 4) {
      const double* k = coef + c * ldc;
      double* yc = y + c * ldy;
      __m512d acc0 = _mm512_maskz_loadu_pd(m, yc);
      __m512d acc1 = _mm512_maskz_loadu_pd(m, yc + ldy);
      __m512d acc2 = _mm512_maskz_loadu_pd(m, yc + 2 * ldy);
      __m512d acc3 = _mm512_maskz_loadu_pd(m, yc + 3 * ldy);
      for (std::size_t t = 0; t < count; ++t) {
        const __m512d xt = _mm512_maskz_loadu_pd(m, x[t]);
        acc0 = _mm512_fmadd_pd(_mm512_set1_pd(k[t]), xt, acc0);
        acc1 = _mm512_fmadd_pd(_mm512_set1_pd(k[ldc + t]), xt, acc1);
        acc2 = _mm512_fmadd_pd(_mm512_set1_pd(k[2 * ldc + t]), xt, acc2);
        acc3 = _mm512_fmadd_pd(_mm512_set1_pd(k[3 * ldc + t]), xt, acc3);
      }
      _mm512_mask_storeu_pd(yc, m, acc0);
      _mm512_mask_storeu_pd(yc + ldy, m, acc1);
      _mm512_mask_storeu_pd(yc + 2 * ldy, m, acc2);
      _mm512_mask_storeu_pd(yc + 3 * ldy, m, acc3);
    }
  } else if (n <= 16) {
    const auto m = static_cast<__mmask8>((1u << (n - 8)) - 1u);
    for (; c + 2 <= rows; c += 2) {
      const double* k = coef + c * ldc;
      double* yc = y + c * ldy;
      __m512d lo0 = _mm512_loadu_pd(yc);
      __m512d hi0 = _mm512_maskz_loadu_pd(m, yc + 8);
      __m512d lo1 = _mm512_loadu_pd(yc + ldy);
      __m512d hi1 = _mm512_maskz_loadu_pd(m, yc + ldy + 8);
      for (std::size_t t = 0; t < count; ++t) {
        const __m512d xlo = _mm512_loadu_pd(x[t]);
        const __m512d xhi = _mm512_maskz_loadu_pd(m, x[t] + 8);
        const __m512d a0 = _mm512_set1_pd(k[t]);
        const __m512d a1 = _mm512_set1_pd(k[ldc + t]);
        lo0 = _mm512_fmadd_pd(a0, xlo, lo0);
        hi0 = _mm512_fmadd_pd(a0, xhi, hi0);
        lo1 = _mm512_fmadd_pd(a1, xlo, lo1);
        hi1 = _mm512_fmadd_pd(a1, xhi, hi1);
      }
      _mm512_storeu_pd(yc, lo0);
      _mm512_mask_storeu_pd(yc + 8, m, hi0);
      _mm512_storeu_pd(yc + ldy, lo1);
      _mm512_mask_storeu_pd(yc + ldy + 8, m, hi1);
    }
  }
  for (; c < rows; ++c) {
    axpy_sequence(coef + c * ldc, x, count, y + c * ldy, n);
  }
}

/// Lane-vector ops of the generic lane-tile kernels (kernels/lane_tile.hpp):
/// one zmm holds one element of all 8 systems of a tile, and fma is this
/// level's axpy element op.
struct Lanes {
  static constexpr std::size_t kWidth = 8;
  using Vec = __m512d;
  using Mask = __mmask8;
  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Vec set1(double v) { return _mm512_set1_pd(v); }
  static Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec fma(Vec a, Vec b, Vec c) { return _mm512_fmadd_pd(a, b, c); }
  static Mask mask(unsigned bits) { return static_cast<__mmask8>(bits); }
  /// fma(a, b, c) in the lanes of m, c elsewhere.
  static Vec fma_if(Mask m, Vec a, Vec b, Vec c) {
    return _mm512_mask3_fmadd_pd(a, b, c, m);
  }
  /// Bit mask of the lanes whose value is not == 0 (NaN included).
  static unsigned nonzero(Vec v) {
    return _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_NEQ_UQ);
  }
};

/// Systems per lane tile: one per zmm lane.
inline constexpr std::size_t kSpdLanes = Lanes::kWidth;

/// Lane-batched R^T R factorisation of 8 interleaved n x n systems
/// (tile[(a * n + b) * 8 + lane], diagonal + strict upper triangle).
/// Every lane runs cholesky_upper_in_place's op sequence at this level —
/// sqrt pivot, division of the pivot row, fma row updates with the
/// exactly negated multiplier — and fails exactly where it would (a pivot
/// <= 0 or non-finite).  A failed lane keeps running on a 1.0 pivot so it
/// cannot disturb anything; its bits are garbage and the caller replays
/// it.  Returns the failed-lane mask.
inline unsigned spd_factor_lanes(double* tile, std::size_t n) {
  constexpr std::size_t w = kSpdLanes;
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d inf =
      _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __mmask8 failed = 0;
  for (std::size_t j = 0; j < n; ++j) {
    double* row_j = tile + j * n * w;
    const __m512d diag = _mm512_loadu_pd(row_j + j * w);
    const __mmask8 good = _mm512_cmp_pd_mask(diag, zero, _CMP_GT_OQ) &
                          _mm512_cmp_pd_mask(diag, inf, _CMP_LT_OQ);
    failed |= static_cast<__mmask8>(~good);
    // sqrt of the good lanes; failed lanes keep running on a 1.0 pivot.
    const __m512d rjj = _mm512_mask_sqrt_pd(one, good, diag);
    _mm512_storeu_pd(row_j + j * w, rjj);
    for (std::size_t k = j + 1; k < n; ++k) {
      _mm512_storeu_pd(row_j + k * w,
                       _mm512_div_pd(_mm512_loadu_pd(row_j + k * w), rjj));
    }
    for (std::size_t i = j + 1; i < n; ++i) {
      const __m512d neg = detail::negate(_mm512_loadu_pd(row_j + i * w));
      double* row_i = tile + i * n * w;
      for (std::size_t b = i; b < n; ++b) {
        _mm512_storeu_pd(row_i + b * w,
                         _mm512_fmadd_pd(neg, _mm512_loadu_pd(row_j + b * w),
                                         _mm512_loadu_pd(row_i + b * w)));
      }
    }
  }
  return failed;
}

/// Solve every lane of a spd_factor_lanes tile: rhs[a * 8 + lane] holds b
/// on entry and x on exit, each lane bit-identical to solve_factored_spd
/// at this level (fma forward elimination, dot-tree back substitution
/// replayed per lane by detail::dot_lanes).
inline void spd_solve_lanes(const double* tile, double* rhs, std::size_t n) {
  constexpr std::size_t w = kSpdLanes;
  for (std::size_t j = 0; j < n; ++j) {
    const double* row_j = tile + j * n * w;
    const __m512d yj = _mm512_div_pd(_mm512_loadu_pd(rhs + j * w),
                                     _mm512_loadu_pd(row_j + j * w));
    _mm512_storeu_pd(rhs + j * w, yj);
    const __m512d neg = detail::negate(yj);
    for (std::size_t b = j + 1; b < n; ++b) {
      _mm512_storeu_pd(rhs + b * w,
                       _mm512_fmadd_pd(neg, _mm512_loadu_pd(row_j + b * w),
                                       _mm512_loadu_pd(rhs + b * w)));
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* row_i = tile + i * n * w;
    const __m512d d =
        detail::dot_lanes(row_i + (i + 1) * w, rhs + (i + 1) * w, n - i - 1);
    const __m512d acc = _mm512_sub_pd(_mm512_loadu_pd(rhs + i * w), d);
    _mm512_storeu_pd(rhs + i * w,
                     _mm512_div_pd(acc, _mm512_loadu_pd(row_i + i * w)));
  }
}

}  // namespace iup::linalg::kernels::avx512
