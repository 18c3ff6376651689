// AVX2 + FMA implementations of the micro-kernels.
//
// Only compiled when the translation unit is built with AVX2 and FMA
// enabled (-march=x86-64-v3 / native via the IUP_ARCH CMake knob); the
// dispatch header includes this file conditionally, so a baseline build
// contains no AVX2 code at all.
//
// Rounding contract relative to kernels::scalar (see kernels.hpp):
//  * element-wise kernels (axpy, axpy2) evaluate each
//    element with FMA — one rounding instead of the scalar mul+add two —
//    and are position-independent: an element produces the same bits
//    whether it lands in a vector lane or in the std::fma tail, so
//    splitting a row into tile segments cannot change results;
//  * reductions (dot, norm_sq, diff_norm_sq, masked_diff_norm_sq) use two
//    4-lane accumulators combined in a fixed tree, so their value depends
//    only on the input length, never on alignment or call site.  All the
//    *_norm_sq reductions share one tree shape, which keeps identities
//    like diff_norm_sq(x, y) == norm_sq(x - y) exact;
//  * the lane kernels (axpy_sequence, axpy_panel, spd_factor_lanes,
//    spd_solve_lanes, and the generic lane-tile kernels over Lanes)
//    replay this level's axpy / dot op sequence per element and per lane.
#pragma once

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <limits>

namespace iup::linalg::kernels::avx2 {

namespace detail {

/// Fixed-order horizontal sum: ((v0 + v1) + (v2 + v3)).
inline double hsum(__m256d v) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

/// Exact sign flip (-x, never 0 - x, which would turn -0 into +0).
inline __m256d negate(__m256d v) {
  return _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
}

/// Per-lane dot(a, b, n) over lane-interleaved vectors (element p of lane
/// l at a[p * 4 + l]): this level's dot() tree replayed in every lane,
/// exactly like dot_panel but with `a` loaded per lane instead of
/// broadcast.  Below 4 elements every chunk accumulator stays +0, so the
/// hsum tree reduces to +0 and only `0 + tail` remains.
inline __m256d dot_lanes(const double* a, const double* b, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d t = zero;
  if (n < 4) {
    for (std::size_t p = 0; p < n; ++p) {
      t = _mm256_fmadd_pd(_mm256_loadu_pd(a + p * 4),
                          _mm256_loadu_pd(b + p * 4), t);
    }
    return _mm256_add_pd(zero, t);
  }
  __m256d acc[8];
  for (int l = 0; l < 8; ++l) acc[l] = zero;
  std::size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    for (int l = 0; l < 8; ++l) {
      acc[l] = _mm256_fmadd_pd(_mm256_loadu_pd(a + (p + l) * 4),
                               _mm256_loadu_pd(b + (p + l) * 4), acc[l]);
    }
  }
  if (p + 4 <= n) {
    for (int l = 0; l < 4; ++l) {
      acc[l] = _mm256_fmadd_pd(_mm256_loadu_pd(a + (p + l) * 4),
                               _mm256_loadu_pd(b + (p + l) * 4), acc[l]);
    }
    p += 4;
  }
  for (; p < n; ++p) {
    t = _mm256_fmadd_pd(_mm256_loadu_pd(a + p * 4),
                        _mm256_loadu_pd(b + p * 4), t);
  }
  __m256d s[4];
  for (int l = 0; l < 4; ++l) s[l] = _mm256_add_pd(acc[l], acc[l + 4]);
  const __m256d r = _mm256_add_pd(_mm256_add_pd(s[0], s[1]),
                                  _mm256_add_pd(s[2], s[3]));
  return _mm256_add_pd(r, t);
}

/// axpy_panel / axpy_sequence body: blocks of R rows, each held in V ymm
/// registers (the last one masked at the row end; unmasked when it is
/// full, e.g. the 8-link factor width), every x[t] loaded once per block.
/// Returns the number of rows done (a multiple of R).
template <std::size_t V, std::size_t R>
std::size_t axpy_panel_regs(const double* coef, std::size_t ldc,
                            std::size_t rows, const double* const* x,
                            std::size_t count, double* y, std::size_t ldy,
                            std::size_t n) {
  const auto rem = static_cast<long long>(n - 4 * (V - 1));
  const __m256i m = _mm256_cmpgt_epi64(_mm256_set1_epi64x(rem),
                                       _mm256_setr_epi64x(0, 1, 2, 3));
  const bool full = rem == 4;
  const auto load_last = [&](const double* p) {
    return full ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, m);
  };
  std::size_t c = 0;
  for (; c + R <= rows; c += R) {
    __m256d acc[R][V];
    for (std::size_t r = 0; r < R; ++r) {
      const double* yr = y + (c + r) * ldy;
      for (std::size_t v = 0; v + 1 < V; ++v) {
        acc[r][v] = _mm256_loadu_pd(yr + 4 * v);
      }
      acc[r][V - 1] = load_last(yr + 4 * (V - 1));
    }
    const double* k = coef + c * ldc;
    for (std::size_t t = 0; t < count; ++t) {
      __m256d xt[V];
      for (std::size_t v = 0; v + 1 < V; ++v) {
        xt[v] = _mm256_loadu_pd(x[t] + 4 * v);
      }
      xt[V - 1] = load_last(x[t] + 4 * (V - 1));
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d a = _mm256_set1_pd(k[r * ldc + t]);
        for (std::size_t v = 0; v < V; ++v) {
          acc[r][v] = _mm256_fmadd_pd(a, xt[v], acc[r][v]);
        }
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      double* yr = y + (c + r) * ldy;
      for (std::size_t v = 0; v + 1 < V; ++v) {
        _mm256_storeu_pd(yr + 4 * v, acc[r][v]);
      }
      if (full) {
        _mm256_storeu_pd(yr + 4 * (V - 1), acc[r][V - 1]);
      } else {
        _mm256_maskstore_pd(yr + 4 * (V - 1), m, acc[r][V - 1]);
      }
    }
  }
  return c;
}

}  // namespace detail

inline double dot(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    i += 4;
  }
  // Explicit fma pins the tail arithmetic the optimiser was already
  // emitting under default FP contraction — dot_panel must be able to
  // replay it exactly (lane or scalar), so it cannot be left to flags.
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], b[i], tail);
  return detail::hsum(_mm256_add_pd(acc0, acc1)) + tail;
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i,
        _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

/// Per-element: out += round(a * x) with b * y fused in:
/// out[i] += fma(b, y[i], a * x[i]), evaluated identically in lanes and
/// tail.
inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  const __m256d vb = _mm256_set1_pd(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_fmadd_pd(vb, _mm256_loadu_pd(y + i),
                                      _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), t));
  }
  for (; i < n; ++i) out[i] += std::fma(b, y[i], a * x[i]);
}

inline double norm_sq(const double* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc0 = _mm256_fmadd_pd(v, v, acc0);
    i += 4;
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += x[i] * x[i];
  return detail::hsum(_mm256_add_pd(acc0, acc1)) + tail;
}

inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
    i += 4;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    tail += d * d;
  }
  return detail::hsum(_mm256_add_pd(acc0, acc1)) + tail;
}

inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(mask + i),
                                    _mm256_loadu_pd(x + i)),
                      _mm256_loadu_pd(y + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(mask + i + 4),
                                    _mm256_loadu_pd(x + i + 4)),
                      _mm256_loadu_pd(y + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d d =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(mask + i),
                                    _mm256_loadu_pd(x + i)),
                      _mm256_loadu_pd(y + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
    i += 4;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = mask[i] * x[i] - y[i];
    tail += d * d;
  }
  return detail::hsum(_mm256_add_pd(acc0, acc1)) + tail;
}

/// Panel dot (the trsv_multi back-substitution kernel): out[c] =
/// avx2::dot(a, column c of the row-major n x k panel b) bit for bit,
/// vectorised ACROSS the k RHS columns.  Per column the chunk/lane role
/// structure of this level's dot() is replayed exactly: eight
/// accumulators (one per mod-8 position class — acc0's four lanes are
/// classes 0..3, acc1's are 4..7), the optional 4-chunk feeding classes
/// 0..3, an fma tail chain, and the combine hsum(acc0 + acc1) + tail
/// — lane sums acc[l] + acc[l+4] first, then the fixed
/// (l0+l1)+(l2+l3) tree, then + tail.  Column blocks of 4 run in ymm
/// registers; leftover columns replay the identical op sequence in
/// scalar std::fma arithmetic.
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    __m256d acc[8];
    for (int l = 0; l < 8; ++l) acc[l] = _mm256_setzero_pd();
    std::size_t p = 0;
    for (; p + 8 <= n; p += 8) {
      for (int l = 0; l < 8; ++l) {
        acc[l] = _mm256_fmadd_pd(_mm256_set1_pd(a[p + l]),
                                 _mm256_loadu_pd(b + (p + l) * ldb + c),
                                 acc[l]);
      }
    }
    if (p + 4 <= n) {
      for (int l = 0; l < 4; ++l) {
        acc[l] = _mm256_fmadd_pd(_mm256_set1_pd(a[p + l]),
                                 _mm256_loadu_pd(b + (p + l) * ldb + c),
                                 acc[l]);
      }
      p += 4;
    }
    __m256d t = _mm256_setzero_pd();
    for (; p < n; ++p) {
      t = _mm256_fmadd_pd(_mm256_set1_pd(a[p]),
                          _mm256_loadu_pd(b + p * ldb + c), t);
    }
    // hsum(acc0 + acc1) + tail, replayed per column: lane l of
    // (acc0 + acc1) is acc[l] + acc[l + 4].
    __m256d s[4];
    for (int l = 0; l < 4; ++l) s[l] = _mm256_add_pd(acc[l], acc[l + 4]);
    const __m256d r = _mm256_add_pd(_mm256_add_pd(s[0], s[1]),
                                    _mm256_add_pd(s[2], s[3]));
    _mm256_storeu_pd(out + c, _mm256_add_pd(r, t));
  }
  for (; c < k; ++c) {
    double acc[8] = {};
    std::size_t p = 0;
    for (; p + 8 <= n; p += 8) {
      for (int l = 0; l < 8; ++l) {
        acc[l] = std::fma(a[p + l], b[(p + l) * ldb + c], acc[l]);
      }
    }
    if (p + 4 <= n) {
      for (int l = 0; l < 4; ++l) {
        acc[l] = std::fma(a[p + l], b[(p + l) * ldb + c], acc[l]);
      }
      p += 4;
    }
    double t = 0.0;
    for (; p < n; ++p) t = std::fma(a[p], b[p * ldb + c], t);
    const double s0 = acc[0] + acc[4], s1 = acc[1] + acc[5];
    const double s2 = acc[2] + acc[6], s3 = acc[3] + acc[7];
    out[c] = ((s0 + s1) + (s2 + s3)) + t;
  }
}

/// Ordered axpy sequence y += alpha[t] * x[t] (t ascending), bit for bit
/// the repeated axpy() calls: each element still takes one FMA per term,
/// but y stays in up to four ymm registers (masked at the row end) for
/// n <= 16 instead of being reloaded and stored per term.  Longer rows
/// run the axpy loop.
inline void axpy_sequence(const double* alpha, const double* const* x,
                          std::size_t count, double* y, std::size_t n) {
  switch ((n + 3) / 4) {
    case 0:
      return;
    case 1:
      detail::axpy_panel_regs<1, 1>(alpha, count, 1, x, count, y, n, n);
      return;
    case 2:
      detail::axpy_panel_regs<2, 1>(alpha, count, 1, x, count, y, n, n);
      return;
    case 3:
      detail::axpy_panel_regs<3, 1>(alpha, count, 1, x, count, y, n, n);
      return;
    case 4:
      detail::axpy_panel_regs<4, 1>(alpha, count, 1, x, count, y, n, n);
      return;
    default:
      for (std::size_t t = 0; t < count; ++t) axpy(alpha[t], x[t], y, n);
  }
}

/// Panel of ordered axpy sequences: row c of y (leading dimension ldy)
/// gets axpy_sequence(coef + c * ldc, x, count, ., n), bit for bit — per
/// element the same FMA chain, t ascending — with R rows of V ymm each
/// interleaved over one load of each x[t]: four rows for n <= 8, two for
/// n <= 16.  Leftover rows and longer rows run axpy_sequence.
inline void axpy_panel(const double* coef, std::size_t ldc, std::size_t rows,
                       const double* const* x, std::size_t count, double* y,
                       std::size_t ldy, std::size_t n) {
  std::size_t c = 0;
  switch ((n + 3) / 4) {
    case 1:
      c = detail::axpy_panel_regs<1, 4>(coef, ldc, rows, x, count, y, ldy, n);
      break;
    case 2:
      c = detail::axpy_panel_regs<2, 4>(coef, ldc, rows, x, count, y, ldy, n);
      break;
    case 3:
      c = detail::axpy_panel_regs<3, 2>(coef, ldc, rows, x, count, y, ldy, n);
      break;
    case 4:
      c = detail::axpy_panel_regs<4, 2>(coef, ldc, rows, x, count, y, ldy, n);
      break;
    default:
      break;
  }
  for (; c < rows; ++c) {
    axpy_sequence(coef + c * ldc, x, count, y + c * ldy, n);
  }
}

/// Lane-vector ops of the generic lane-tile kernels (kernels/lane_tile.hpp):
/// one ymm holds one element of all 4 systems of a tile, fma is this
/// level's axpy element op, and lane masks select through blends.
struct Lanes {
  static constexpr std::size_t kWidth = 4;
  using Vec = __m256d;
  using Mask = __m256d;
  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec set1(double v) { return _mm256_set1_pd(v); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }
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
};

/// Systems per lane tile: one per ymm lane.
inline constexpr std::size_t kSpdLanes = Lanes::kWidth;

/// Lane-batched R^T R factorisation of 4 interleaved n x n systems
/// (tile[(a * n + b) * 4 + lane], diagonal + strict upper triangle).
/// Every lane runs cholesky_upper_in_place's op sequence at this level —
/// sqrt pivot, division of the pivot row, fma row updates with the
/// exactly negated multiplier — and fails exactly where it would (a pivot
/// <= 0 or non-finite).  A failed lane keeps running on a 1.0 pivot so it
/// cannot disturb anything; its bits are garbage and the caller replays
/// it.  Returns the failed-lane mask.
inline unsigned spd_factor_lanes(double* tile, std::size_t n) {
  constexpr std::size_t w = kSpdLanes;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  unsigned failed = 0;
  for (std::size_t j = 0; j < n; ++j) {
    double* row_j = tile + j * n * w;
    const __m256d diag = _mm256_loadu_pd(row_j + j * w);
    const __m256d good = _mm256_and_pd(_mm256_cmp_pd(diag, zero, _CMP_GT_OQ),
                                       _mm256_cmp_pd(diag, inf, _CMP_LT_OQ));
    failed |= ~static_cast<unsigned>(_mm256_movemask_pd(good)) & 0xfu;
    const __m256d rjj = _mm256_sqrt_pd(_mm256_blendv_pd(one, diag, good));
    _mm256_storeu_pd(row_j + j * w, rjj);
    for (std::size_t k = j + 1; k < n; ++k) {
      _mm256_storeu_pd(row_j + k * w,
                       _mm256_div_pd(_mm256_loadu_pd(row_j + k * w), rjj));
    }
    for (std::size_t i = j + 1; i < n; ++i) {
      const __m256d neg = detail::negate(_mm256_loadu_pd(row_j + i * w));
      double* row_i = tile + i * n * w;
      for (std::size_t b = i; b < n; ++b) {
        _mm256_storeu_pd(row_i + b * w,
                         _mm256_fmadd_pd(neg, _mm256_loadu_pd(row_j + b * w),
                                         _mm256_loadu_pd(row_i + b * w)));
      }
    }
  }
  return failed;
}

/// Solve every lane of a spd_factor_lanes tile: rhs[a * 4 + lane] holds b
/// on entry and x on exit, each lane bit-identical to solve_factored_spd
/// at this level (fma forward elimination, dot-tree back substitution
/// replayed per lane by detail::dot_lanes).
inline void spd_solve_lanes(const double* tile, double* rhs, std::size_t n) {
  constexpr std::size_t w = kSpdLanes;
  for (std::size_t j = 0; j < n; ++j) {
    const double* row_j = tile + j * n * w;
    const __m256d yj = _mm256_div_pd(_mm256_loadu_pd(rhs + j * w),
                                     _mm256_loadu_pd(row_j + j * w));
    _mm256_storeu_pd(rhs + j * w, yj);
    const __m256d neg = detail::negate(yj);
    for (std::size_t b = j + 1; b < n; ++b) {
      _mm256_storeu_pd(rhs + b * w,
                       _mm256_fmadd_pd(neg, _mm256_loadu_pd(row_j + b * w),
                                       _mm256_loadu_pd(rhs + b * w)));
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* row_i = tile + i * n * w;
    const __m256d d =
        detail::dot_lanes(row_i + (i + 1) * w, rhs + (i + 1) * w, n - i - 1);
    const __m256d acc = _mm256_sub_pd(_mm256_loadu_pd(rhs + i * w), d);
    _mm256_storeu_pd(rhs + i * w,
                     _mm256_div_pd(acc, _mm256_loadu_pd(row_i + i * w)));
  }
}

}  // namespace iup::linalg::kernels::avx2
