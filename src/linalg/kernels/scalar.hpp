// Scalar reference implementations of the micro-kernels.
//
// These are the semantic ground truth of the kernel layer: every loop is
// written exactly like the hand-rolled loops the `_into` kernels and the
// solver sweep used before the kernel layer existed, so a build at the
// scalar dispatch level (no -march / IUP_ARCH) reproduces the historical
// results bit for bit.  The AVX2 level (kernels/avx2.hpp) must match these
// within documented rounding differences (FMA contraction on the
// element-wise kernels, vector-lane accumulators on the reductions); the
// dispatch header (kernels/kernels.hpp) states the exact contract.
//
// A target with a fused multiply-add (__FP_FAST_FMA: -mfma, so every
// x86-64-v3 or AVX-512 build) lets the compiler contract `acc + a * b`,
// and GCC's default -ffp-contract=fast does so path by path: a reduction
// it vectorises in order keeps each product rounded, while its scalar
// remainder and dot_panel's loop across columns are fused.  There every
// reduction step is therefore spelled as the fma itself (detail::madd),
// so a reduction's bits do not depend on how it was compiled and
// dot_panel still equals dot.  Without an FMA nothing can contract, and
// the plain loops give the historical bits.
#pragma once

#include <cmath>
#include <cstddef>

namespace iup::linalg::kernels::scalar {

namespace detail {

/// acc + a * b: one reduction step, fused wherever the target has an FMA.
inline double madd(double acc, double a, double b) {
#if defined(__FP_FAST_FMA)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

}  // namespace detail

/// sum_i a[i] * b[i], accumulated left to right in one scalar accumulator.
inline double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc = detail::madd(acc, a[i], b[i]);
  return acc;
}

/// y[i] += alpha * x[i].
inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// out[i] += a * x[i] + b * y[i] — the fused form of two consecutive
/// axpys over the same destination (one pass over `out`).
inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += a * x[i] + b * y[i];
}

/// sum_i x[i]^2.
inline double norm_sq(const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc = detail::madd(acc, x[i], x[i]);
  return acc;
}

/// sum_i (x[i] - y[i])^2.
inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = x[i] - y[i];
    acc = detail::madd(acc, d, d);
  }
  return acc;
}

/// sum_i (mask[i] * x[i] - y[i])^2 — the paper's data term
/// ||B o (L R^T) - X_B||_F^2 in one pass.
inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = mask[i] * x[i] - y[i];
    acc = detail::madd(acc, d, d);
  }
  return acc;
}

/// Panel dot (the trsv_multi back-substitution kernel): out[c] =
/// scalar::dot(a, column c of the row-major n x k panel b), bit for bit.
/// Each column keeps one sequential accumulator fed in ascending p order
/// — the exact op chain of scalar::dot — while the p-outer / c-inner loop
/// order lets the compiler vectorise across the independent columns.
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  for (std::size_t c = 0; c < k; ++c) out[c] = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const double ap = a[p];
    const double* row = b + p * ldb;
    for (std::size_t c = 0; c < k; ++c) {
      out[c] = detail::madd(out[c], ap, row[c]);
    }
  }
}

/// Ordered axpy sequence: y += alpha[t] * x[t] for t = 0 .. count-1 in
/// order, bit for bit the repeated axpy() calls — at this level it IS that
/// loop (the same `y[i] += alpha * x[i]` expression, so whatever FP
/// contraction the compiler applies to axpy applies here too).
inline void axpy_sequence(const double* alpha, const double* const* x,
                          std::size_t count, double* y, std::size_t n) {
  for (std::size_t t = 0; t < count; ++t) axpy(alpha[t], x[t], y, n);
}

/// Panel of ordered axpy sequences: row c of y (leading dimension ldy)
/// gets axpy_sequence(coef + c * ldc, x, count, ., n) — at this level
/// exactly that call per row.
inline void axpy_panel(const double* coef, std::size_t ldc, std::size_t rows,
                       const double* const* x, std::size_t count, double* y,
                       std::size_t ldy, std::size_t n) {
  for (std::size_t c = 0; c < rows; ++c) {
    axpy_sequence(coef + c * ldc, x, count, y + c * ldy, n);
  }
}

/// The register-blocked Gram build of the vector levels: this level has
/// none, so it always returns false and linalg::gram_into runs its
/// row-at-a-time axpy_sequence build.
inline bool gram_upper(const double*, std::size_t, std::size_t, double*) {
  return false;
}

/// Lane-vector ops of the generic lane-tile kernels (kernels/lane_tile.hpp).
/// One lane: a lane vector is one double, and fma is axpy's element
/// expression, so every lane-tile kernel reduces to the per-system loop.
struct Lanes {
  static constexpr std::size_t kWidth = 1;
  using Vec = double;
  using Mask = bool;
  static Vec load(const double* p) { return *p; }
  static void store(double* p, Vec v) { *p = v; }
  static Vec set1(double v) { return v; }
  static Vec mul(Vec a, Vec b) { return a * b; }
  static Vec fma(Vec a, Vec b, Vec c) { return c + a * b; }
  static Mask mask(unsigned bits) { return (bits & 1u) != 0; }
  /// fma(a, b, c) in the lanes of m, c elsewhere.
  static Vec fma_if(Mask m, Vec a, Vec b, Vec c) {
    return m ? c + a * b : c;
  }
  /// Bit mask of the lanes whose value is not == 0 (NaN included).
  static unsigned nonzero(Vec v) { return v != 0.0 ? 1u : 0u; }
};

/// Systems per lane tile of spd_factor_lanes / spd_solve_lanes.
inline constexpr std::size_t kSpdLanes = Lanes::kWidth;

/// Lane-batched SPD factorisation a = R^T R of kSpdLanes n x n systems
/// interleaved as tile[(a * n + b) * kSpdLanes + lane]; reads and writes
/// the diagonal and strict upper triangle only.  Returns the mask of
/// failed lanes (a pivot <= 0 or non-finite).  With one lane this is
/// linalg::cholesky_upper_in_place's loop verbatim.
inline unsigned spd_factor_lanes(double* tile, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double* row_j = tile + j * n;
    const double diag = row_j[j];
    if (diag <= 0.0 || !std::isfinite(diag)) return 1u;
    const double rjj = std::sqrt(diag);
    row_j[j] = rjj;
    for (std::size_t k = j + 1; k < n; ++k) row_j[k] /= rjj;
    for (std::size_t i = j + 1; i < n; ++i) {
      axpy(-row_j[i], row_j + i, tile + i * n + i, n - i);
    }
  }
  return 0u;
}

/// Solve against a spd_factor_lanes tile: rhs[a * kSpdLanes + lane] holds
/// b on entry and x on exit.  With one lane this is
/// linalg::solve_factored_spd's loop verbatim.
inline void spd_solve_lanes(const double* tile, double* rhs, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double* row_j = tile + j * n;
    const double yj = rhs[j] / row_j[j];
    rhs[j] = yj;
    if (j + 1 < n) axpy(-yj, row_j + j + 1, rhs + j + 1, n - j - 1);
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* row_i = tile + i * n;
    const double acc = rhs[i] - dot(row_i + i + 1, rhs + i + 1, n - i - 1);
    rhs[i] = acc / row_i[i];
  }
}

}  // namespace iup::linalg::kernels::scalar
