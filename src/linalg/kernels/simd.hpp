// The vector micro-kernels, written once over a level's lane-vector ops.
//
// Every kernel here is a template over `L`, the Lanes op struct of one
// SIMD dispatch level (avx2::Lanes, W = 4; avx512::Lanes, W = 8), and the
// level headers forward their kernels to these bodies.  The scalar level
// keeps its own single-accumulator loops (kernels/scalar.hpp).
//
// Rounding contract relative to kernels::scalar (see kernels.hpp):
//  * element-wise kernels (axpy, axpy2) evaluate each element with FMA —
//    one rounding instead of the scalar mul+add two — and are
//    position-independent: an element produces the same bits in a vector
//    lane or in the std::fma tail, so splitting a row into segments
//    cannot change results;
//  * reductions (dot, norm_sq, diff_norm_sq, masked_diff_norm_sq) use two
//    W-lane accumulators over a 2W-element body, one optional W-element
//    chunk into the first, a scalar tail (explicit fma for dot — dot_panel
//    replays it — and `t + x * x` for the norms), and the fixed combine
//    tree(acc0 + acc1) + tail, where tree is the pairwise lane sum
//    ((v0 + v1) + (v2 + v3)) at W = 4 and its two halves summed the same
//    way at W = 8.  Their value depends only on the length, never on
//    alignment or call site, and the *_norm_sq reductions share one tree,
//    which keeps identities like diff_norm_sq(x, y) == norm_sq(x - y)
//    exact;
//  * the panel and lane kernels (dot_panel, axpy_sequence, axpy_panel,
//    spd_factor_lanes, spd_solve_lanes, and the lane-tile kernels of
//    lane_tile.hpp) replay this level's dot / axpy op sequence per
//    column, per element and per lane.
//
// Every body is `inline` and the small shared helpers are always inlined:
// GCC gives function templates that are not declared inline its lower
// auto-inline limit, and these bodies are the inner loops of the sweep
// and the OMP matcher.
#pragma once

#include <cmath>
#include <cstddef>

namespace iup::linalg::kernels::simd {

namespace detail {

/// Pairwise sum of w values: ((v0 + v1) + (v2 + v3)) at w = 4,
/// (((v0 + v1) + (v2 + v3)) + ((v4 + v5) + (v6 + v7))) at w = 8.  The
/// left half is evaluated first, as the hand-written trees did: the order
/// cannot change a bit, but it sets the instruction schedule.
template <std::size_t W, class T, class Add>
[[gnu::always_inline]] inline T tree(const T* v, Add add) {
  if constexpr (W == 1) {
    return v[0];
  } else {
    const T left = tree<W / 2>(v, add);
    return add(left, tree<W / 2>(v + W / 2, add));
  }
}

/// tree over the lanes of one vector.
template <class L>
[[gnu::always_inline]] inline double hsum(typename L::Vec v) {
  alignas(64) double lane[L::kWidth];
  L::store(lane, v);
  return tree<L::kWidth>(lane, [](double a, double b) { return a + b; });
}

/// The reduction body: `step(i, acc)` folds the W elements at i into a
/// lane accumulator, `tail(i, t)` one element into the scalar tail.
template <class L, class Step, class Tail>
[[gnu::always_inline]] inline double reduce(std::size_t n, Step step,
                                            Tail tail) {
  constexpr std::size_t w = L::kWidth;
  auto acc0 = L::zero();
  auto acc1 = L::zero();
  std::size_t i = 0;
  for (; i + 2 * w <= n; i += 2 * w) {
    acc0 = step(i, acc0);
    acc1 = step(i + w, acc1);
  }
  if (i + w <= n) {
    acc0 = step(i, acc0);
    i += w;
  }
  double t = 0.0;
  for (; i < n; ++i) t = tail(i, t);
  return hsum<L>(L::add(acc0, acc1)) + t;
}

/// Scalar ops with the vector levels' element arithmetic, for replaying a
/// lane chain one column at a time.
struct FmaScalar {
  using Vec = double;
  static double zero() { return 0.0; }
  static double add(double a, double b) { return a + b; }
  static double fma(double a, double b, double c) { return std::fma(a, b, c); }
};

/// Lane-parallel dot(a, b, n) with W = L::kWidth: the reduce() tree of
/// this level replayed in every lane of `Ops` (L's own ops, or FmaScalar
/// for one lane at a time), `a_at(p)` / `b_at(p)` giving element p.  The
/// 2W class accumulators are reduce()'s two vector accumulators lane by
/// lane (class l < W is lane l of acc0, class l >= W lane l - W of acc1).  Below W
/// elements every class accumulator stays +0, so the tree reduces to +0
/// and `0 + tail` remains, as in dot; an early return there would give
/// the same bits, but it made dot_panel too large for GCC to inline into
/// the OMP matcher, which then ran ~5% slower.
template <class L, class Ops, class A, class B>
[[gnu::always_inline]] inline typename Ops::Vec dot_lanes(A a_at, B b_at,
                                                          std::size_t n) {
  constexpr std::size_t w = L::kWidth;
  using Vec = typename Ops::Vec;
  Vec t = Ops::zero();
  Vec acc[2 * w];
  for (std::size_t l = 0; l < 2 * w; ++l) acc[l] = Ops::zero();
  std::size_t p = 0;
  for (; p + 2 * w <= n; p += 2 * w) {
    for (std::size_t l = 0; l < 2 * w; ++l) {
      acc[l] = Ops::fma(a_at(p + l), b_at(p + l), acc[l]);
    }
  }
  if (p + w <= n) {
    for (std::size_t l = 0; l < w; ++l) {
      acc[l] = Ops::fma(a_at(p + l), b_at(p + l), acc[l]);
    }
    p += w;
  }
  for (; p < n; ++p) t = Ops::fma(a_at(p), b_at(p), t);
  Vec s[w];
  for (std::size_t l = 0; l < w; ++l) s[l] = Ops::add(acc[l], acc[l + w]);
  return Ops::add(tree<w>(s, [](Vec x, Vec y) { return Ops::add(x, y); }), t);
}

/// axpy_panel / axpy_sequence body: blocks of R rows, each held in V
/// registers (the last one masked at the row end; unmasked when it is
/// full, e.g. the 8-link factor width), every x[t] loaded once per block.
/// Returns the number of rows done (a multiple of R).
template <class L, std::size_t V, std::size_t R>
inline std::size_t axpy_panel_regs(const double* coef, std::size_t ldc,
                                   std::size_t rows, const double* const* x,
                                   std::size_t count, double* y,
                                   std::size_t ldy, std::size_t n) {
  constexpr std::size_t w = L::kWidth;
  using Vec = typename L::Vec;
  const std::size_t rem = n - w * (V - 1);
  const auto m = L::first(rem);
  const bool full = rem == w;
  const auto load_last = [&](const double* p) {
    return full ? L::load(p) : L::load_first(m, p);
  };
  std::size_t c = 0;
  for (; c + R <= rows; c += R) {
    Vec acc[R][V];
    for (std::size_t r = 0; r < R; ++r) {
      const double* yr = y + (c + r) * ldy;
      for (std::size_t v = 0; v + 1 < V; ++v) acc[r][v] = L::load(yr + w * v);
      acc[r][V - 1] = load_last(yr + w * (V - 1));
    }
    const double* k = coef + c * ldc;
    for (std::size_t t = 0; t < count; ++t) {
      Vec xt[V];
      for (std::size_t v = 0; v + 1 < V; ++v) xt[v] = L::load(x[t] + w * v);
      xt[V - 1] = load_last(x[t] + w * (V - 1));
      for (std::size_t r = 0; r < R; ++r) {
        const Vec a = L::set1(k[r * ldc + t]);
        for (std::size_t v = 0; v < V; ++v) {
          acc[r][v] = L::fma(a, xt[v], acc[r][v]);
        }
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      double* yr = y + (c + r) * ldy;
      for (std::size_t v = 0; v + 1 < V; ++v) L::store(yr + w * v, acc[r][v]);
      if (full) {
        L::store(yr + w * (V - 1), acc[r][V - 1]);
      } else {
        L::store_first(m, yr + w * (V - 1), acc[r][V - 1]);
      }
    }
  }
  return c;
}

/// axpy_panel_regs at V = ceil(n / W) registers per row, for
/// 0 < n <= 16, in blocks of R8 rows for n <= 8 and R16 rows for n <= 16.
/// Returns the number of rows done.
template <class L, std::size_t R8, std::size_t R16, std::size_t V = 1>
[[gnu::always_inline]] inline std::size_t axpy_regs(
    const double* coef, std::size_t ldc, std::size_t rows,
    const double* const* x, std::size_t count, double* y, std::size_t ldy,
    std::size_t n) {
  constexpr std::size_t w = L::kWidth;
  if constexpr (w * V < 16) {
    if (n > w * V) {
      return axpy_regs<L, R8, R16, V + 1>(coef, ldc, rows, x, count, y, ldy,
                                          n);
    }
  }
  constexpr std::size_t kRows = w * V <= 8 ? R8 : R16;
  return axpy_panel_regs<L, V, kRows>(coef, ldc, rows, x, count, y, ldy, n);
}

}  // namespace detail

template <class L>
inline double dot(const double* a, const double* b, std::size_t n) {
  return detail::reduce<L>(
      n,
      [=](std::size_t i, auto acc) {
        return L::fma(L::load(a + i), L::load(b + i), acc);
      },
      // Explicit fma pins the tail arithmetic the optimiser would emit
      // under default FP contraction anyway: dot_panel and the lane solve
      // must be able to replay it exactly, so it cannot be left to flags.
      [=](std::size_t i, double t) { return std::fma(a[i], b[i], t); });
}

template <class L>
inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  constexpr std::size_t w = L::kWidth;
  const auto va = L::set1(alpha);
  std::size_t i = 0;
  for (; i + w <= n; i += w) {
    L::store(y + i, L::fma(va, L::load(x + i), L::load(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

/// Per element: out[i] += fma(b, y[i], a * x[i]), evaluated identically
/// in lanes and tail.
template <class L>
inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  constexpr std::size_t w = L::kWidth;
  const auto va = L::set1(a);
  const auto vb = L::set1(b);
  std::size_t i = 0;
  for (; i + w <= n; i += w) {
    const auto t = L::fma(vb, L::load(y + i), L::mul(va, L::load(x + i)));
    L::store(out + i, L::add(L::load(out + i), t));
  }
  for (; i < n; ++i) out[i] += std::fma(b, y[i], a * x[i]);
}

template <class L>
inline double norm_sq(const double* x, std::size_t n) {
  return detail::reduce<L>(
      n,
      [=](std::size_t i, auto acc) {
        const auto v = L::load(x + i);
        return L::fma(v, v, acc);
      },
      [=](std::size_t i, double t) { return t + x[i] * x[i]; });
}

template <class L>
inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  return detail::reduce<L>(
      n,
      [=](std::size_t i, auto acc) {
        const auto d = L::sub(L::load(x + i), L::load(y + i));
        return L::fma(d, d, acc);
      },
      [=](std::size_t i, double t) {
        const double d = x[i] - y[i];
        return t + d * d;
      });
}

template <class L>
inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  return detail::reduce<L>(
      n,
      [=](std::size_t i, auto acc) {
        const auto d =
            L::sub(L::mul(L::load(mask + i), L::load(x + i)), L::load(y + i));
        return L::fma(d, d, acc);
      },
      [=](std::size_t i, double t) {
        const double d = mask[i] * x[i] - y[i];
        return t + d * d;
      });
}

/// Panel dot (the trsv_multi back-substitution kernel): out[c] =
/// dot<L>(a, column c of the row-major n x k panel b) bit for bit,
/// vectorised ACROSS the k RHS columns: blocks of W columns run
/// detail::dot_lanes with `a` broadcast, and leftover columns replay the
/// identical op sequence in scalar std::fma arithmetic.
template <class L>
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  constexpr std::size_t w = L::kWidth;
  std::size_t c = 0;
  for (; c + w <= k; c += w) {
    const double* bc = b + c;
    L::store(out + c, detail::dot_lanes<L, L>(
                          [=](std::size_t p) { return L::set1(a[p]); },
                          [=](std::size_t p) { return L::load(bc + p * ldb); },
                          n));
  }
  for (; c < k; ++c) {
    const double* bc = b + c;
    out[c] = detail::dot_lanes<L, detail::FmaScalar>(
        [=](std::size_t p) { return a[p]; },
        [=](std::size_t p) { return bc[p * ldb]; }, n);
  }
}

/// Ordered axpy sequence y += alpha[t] * x[t] (t ascending), bit for bit
/// the repeated axpy() calls: each element still takes one FMA per term,
/// but y stays in registers (masked at the row end) for n <= 16 instead
/// of being reloaded and stored per term.  Longer rows run the axpy loop.
template <class L>
inline void axpy_sequence(const double* alpha, const double* const* x,
                          std::size_t count, double* y, std::size_t n) {
  if (n > 0 && n <= 16) {
    detail::axpy_regs<L, 1, 1>(alpha, count, 1, x, count, y, n, n);
    return;
  }
  for (std::size_t t = 0; t < count; ++t) axpy<L>(alpha[t], x[t], y, n);
}

/// Panel of ordered axpy sequences: row c of y (leading dimension ldy)
/// gets axpy_sequence(coef + c * ldc, x, count, ., n), bit for bit — per
/// element the same FMA chain, t ascending — with several rows' chains
/// interleaved over one load of each x[t]: four rows for n <= 8, two for
/// n <= 16.  Leftover rows and longer rows run axpy_sequence.
template <class L>
inline void axpy_panel(const double* coef, std::size_t ldc, std::size_t rows,
                       const double* const* x, std::size_t count, double* y,
                       std::size_t ldy, std::size_t n) {
  std::size_t c = 0;
  if (n > 0 && n <= 16) {
    c = detail::axpy_regs<L, 4, 2>(coef, ldc, rows, x, count, y, ldy, n);
  }
  for (; c < rows; ++c) {
    axpy_sequence<L>(coef + c * ldc, x, count, y + c * ldy, n);
  }
}

/// Lane-batched R^T R factorisation of W interleaved n x n systems
/// (tile[(a * n + b) * W + lane], diagonal + strict upper triangle).
/// Every lane runs cholesky_upper_in_place's op sequence at this level —
/// sqrt pivot, division of the pivot row, fma row updates with the
/// exactly negated multiplier — and fails exactly where it would (a pivot
/// <= 0 or non-finite).  A failed lane keeps running on a 1.0 pivot so it
/// cannot disturb anything; its bits are garbage and the caller replays
/// it.  Returns the failed-lane mask.
template <class L>
inline unsigned spd_factor_lanes(double* tile, std::size_t n) {
  constexpr std::size_t w = L::kWidth;
  unsigned failed = 0;
  for (std::size_t j = 0; j < n; ++j) {
    double* row_j = tile + j * n * w;
    const auto diag = L::load(row_j + j * w);
    const unsigned good = L::pivot_ok(diag);
    failed |= ~good & ((1u << w) - 1u);
    const auto rjj = L::sqrt_where(good, diag);
    L::store(row_j + j * w, rjj);
    for (std::size_t k = j + 1; k < n; ++k) {
      L::store(row_j + k * w, L::div(L::load(row_j + k * w), rjj));
    }
    for (std::size_t i = j + 1; i < n; ++i) {
      const auto neg = L::negate(L::load(row_j + i * w));
      double* row_i = tile + i * n * w;
      for (std::size_t b = i; b < n; ++b) {
        L::store(row_i + b * w,
                 L::fma(neg, L::load(row_j + b * w), L::load(row_i + b * w)));
      }
    }
  }
  return failed;
}

/// Solve every lane of a spd_factor_lanes tile: rhs[a * W + lane] holds b
/// on entry and x on exit, each lane bit-identical to solve_factored_spd
/// at this level (fma forward elimination, dot-tree back substitution
/// replayed per lane by detail::dot_lanes with `a` loaded per lane).
template <class L>
inline void spd_solve_lanes(const double* tile, double* rhs, std::size_t n) {
  constexpr std::size_t w = L::kWidth;
  for (std::size_t j = 0; j < n; ++j) {
    const double* row_j = tile + j * n * w;
    const auto yj = L::div(L::load(rhs + j * w), L::load(row_j + j * w));
    L::store(rhs + j * w, yj);
    const auto neg = L::negate(yj);
    for (std::size_t b = j + 1; b < n; ++b) {
      L::store(rhs + b * w,
               L::fma(neg, L::load(row_j + b * w), L::load(rhs + b * w)));
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* row_i = tile + i * n * w;
    const double* ri = row_i + (i + 1) * w;
    const double* xi = rhs + (i + 1) * w;
    const auto d = detail::dot_lanes<L, L>(
        [=](std::size_t p) { return L::load(ri + p * w); },
        [=](std::size_t p) { return L::load(xi + p * w); }, n - i - 1);
    L::store(rhs + i * w,
             L::div(L::sub(L::load(rhs + i * w), d), L::load(row_i + i * w)));
  }
}

}  // namespace iup::linalg::kernels::simd
