// iup::linalg::kernels — the SIMD micro-kernel layer of the solver hot
// path.
//
// One dispatch header, compile-time level selection: every translation
// unit of a build sees the same level, chosen by the flags the whole
// build was compiled with (the IUP_ARCH CMake knob; scripts/bench.sh
// benches at -march=native, CI exercises both a baseline and an
// x86-64-v3 cell).
//
//   kernels::dot / axpy / axpy2 / norm_sq /
//   diff_norm_sq / masked_diff_norm_sq /
//   dot_panel / axpy_sequence / axpy_panel /
//   spd_factor_lanes / spd_solve_lanes  — forward to the active level
//   kernels::tile_* / lanes_*            — lane-tile builds, written once
//                                          over the level's Lanes ops
//                                          (kernels/lane_tile.hpp)
//   kernels::scalar::*                   — always available (reference)
//   kernels::avx2::*                     — only at the AVX2+ levels
//   kernels::avx512::*                   — only at the AVX-512 level
//
// The two vector levels share one body per kernel (kernels/simd.hpp),
// written over the level's Lanes ops; avx2.hpp and avx512.hpp hold only
// those ops and one-line forwarders.
//
// Determinism contract (the load-bearing guarantee):
//
//  * WITHIN one build (one dispatch level) every kernel is a pure
//    function of its operand values and length — never of alignment,
//    call site, tiling or thread count.  The batched engine entry points
//    (update_batch, localize_batch, the RASS fits) therefore produce
//    identical results at 1 and N threads at every dispatch level.
//  * ACROSS levels results may differ at ulp magnitude: the AVX2 and
//    AVX-512 levels contract mul+add to FMA on the element-wise kernels
//    and reduce dot/norm accumulations through vector-lane accumulators
//    (4-lane pairs at AVX2, 8-lane pairs at AVX-512) instead of one
//    scalar accumulator.  The scalar level reproduces the historical
//    (pre-kernel-layer) loops exactly in a build without FMA; on an FMA
//    target it spells each reduction step as an fma (scalar.hpp), so the
//    promises below hold for it in every build.
//  * dot_panel (the trsv_multi / multi-RHS back-substitution kernel) is
//    held to a STRONGER promise: at every level, out[c] is bit-identical
//    to kernels::dot(a, column c of the panel) at that same level — the
//    panel solve in linalg/cholesky.cpp relies on it to keep each RHS of
//    a multi-RHS SPD solve exactly equal to the historical one-column
//    solve_factored_spd loop.
//  * The lane kernels are held to the same per-element / per-lane
//    promise.  axpy_sequence(alpha, x, count, y, n) is bit-identical to
//    axpy(alpha[t], x[t], y, n) for t = 0 .. count-1 in order (it keeps y
//    in registers instead of memory).  axpy_panel(coef, ldc, rows, x,
//    count, y, ldy, n) is, row by row, bit-identical to
//    axpy_sequence(coef + c * ldc, x, count, y + c * ldy, n) (it runs
//    several rows' chains at once over one load of each x[t]).  The
//    lane-tile kernels (lane_tile.hpp) give every lane of a tile exactly
//    the element chain of the per-system axpy_sequence build they replace
//    — same terms, same order, same zero-skips — and leave the lanes
//    outside their `active` mask untouched.  spd_factor_lanes + spd_solve_lanes
//    factor and solve kSpdLanes interleaved SPD systems at once (8 at
//    AVX-512, 4 at AVX2, 1 at scalar), and every lane is bit-identical to
//    linalg::cholesky_upper_in_place + solve_factored_spd at that same
//    level — the factor's pivot/divide/fma chain per lane, the back
//    substitution through this level's dot() tree per lane (dot_panel's
//    replay with `a` loaded per lane) — and fails exactly when that
//    factorisation fails.  The batched sweep (core/self_augmented.cpp)
//    relies on all of them to keep every committed bit.
//  * Zero-skips (the rank-1 row skips of gram_into and the sweep's Q
//    build, the wide multiply_into pivot skip) are exact no-ops on finite
//    data: a contribution 0.0 * v adds +/-0, and an accumulator seeded
//    with +0 never becomes -0 by a sum, so skipping cannot change any
//    finite result.  The one exception is a nonzero product that
//    underflows to -0: an accumulator holding that -0 turns +0 when a
//    +0 term is added.  The same argument lets the sweep's right-hand-side
//    panels, and multiply_into's axpy_panel route for outputs of up to 16
//    columns, carry a zero entry as an exact zero coefficient instead of
//    skipping its term.  gram_into keeps its skip exactly: its register
//    blocks (gram_upper) interleave the output rows over one pass of the
//    rows of a, and skip each zero pivot through a masked FMA.
#pragma once

#include <cstddef>

#include "linalg/kernels/scalar.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#define IUP_KERNELS_AVX2 1
#include "linalg/kernels/avx2.hpp"
#endif

#if defined(__AVX512F__)
#define IUP_KERNELS_AVX512 1
#include "linalg/kernels/avx512.hpp"
#endif

namespace iup::linalg::kernels {

/// Compile-time dispatch levels.  kAvx512 requires AVX-512F
/// (e.g. -march=x86-64-v4); kAvx2 requires both AVX2 and FMA
/// (e.g. -march=x86-64-v3); anything else runs kScalar.  A build that
/// enables AVX-512 always dispatches the AVX-512 level (AVX2 is implied
/// by every avx512f target, but the wider level wins).
enum class Level { kScalar, kAvx2, kAvx512 };

// The ONE level-selection point: every forwarding wrapper below calls
// through `active`, so adding a dispatch level (or a kernel) is a single
// edit here plus the new implementation — no per-function #if ladders
// that could drift out of sync.
#if defined(IUP_KERNELS_AVX512)
namespace active = avx512;
#elif defined(IUP_KERNELS_AVX2)
namespace active = avx2;
#else
namespace active = scalar;
#endif

constexpr Level active_level() {
#if defined(IUP_KERNELS_AVX512)
  return Level::kAvx512;
#elif defined(IUP_KERNELS_AVX2)
  return Level::kAvx2;
#else
  return Level::kScalar;
#endif
}

constexpr const char* active_level_name() {
  return active_level() == Level::kAvx512  ? "avx512"
         : active_level() == Level::kAvx2 ? "avx2"
                                          : "scalar";
}

inline double dot(const double* a, const double* b, std::size_t n) {
  return active::dot(a, b, n);
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  active::axpy(alpha, x, y, n);
}

inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  active::axpy2(a, x, b, y, out, n);
}

inline double norm_sq(const double* x, std::size_t n) {
  return active::norm_sq(x, n);
}

inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  return active::diff_norm_sq(x, y, n);
}

inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  return active::masked_diff_norm_sq(mask, x, y, n);
}

/// out[c] = dot(a, column c of the row-major n x k panel `b` with leading
/// dimension ldb), for c in [0, k) — bit-identical per column to calling
/// this level's dot() on a contiguous copy of that column, vectorised
/// across the RHS columns instead of along them.  Consumers: the
/// multi-RHS SPD back substitution (linalg/cholesky.cpp), the sweep
/// objective's X_hat = L R^T (core/self_augmented.cpp) and the OMP greedy
/// step, which scores all N dictionary columns per atom in one call
/// (loc/omp.cpp).
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  active::dot_panel(a, b, ldb, n, k, out);
}

/// y += alpha[t] * x[t] for t = 0 .. count-1 in order, each x[t] of
/// length n — bit-identical to the repeated axpy() calls, with y held in
/// registers for n <= 16.
inline void axpy_sequence(const double* alpha, const double* const* x,
                          std::size_t count, double* y, std::size_t n) {
  active::axpy_sequence(alpha, x, count, y, n);
}

/// Row c of y (leading dimension ldy) += coef[c * ldc + t] * x[t] for
/// t = 0 .. count-1 in order, c in [0, rows) — per row bit-identical to
/// axpy_sequence(coef + c * ldc, x, count, y + c * ldy, n), with several
/// rows in registers at once for n <= 16.  The sweep's right-hand sides
/// (core/self_augmented.cpp) run through it, one panel per half-sweep.
inline void axpy_panel(const double* coef, std::size_t ldc, std::size_t rows,
                       const double* const* x, std::size_t count, double* y,
                       std::size_t ldy, std::size_t n) {
  active::axpy_panel(coef, ldc, rows, x, count, y, ldy, n);
}

/// Upper triangle of the Gram matrix A^T A of the row-major rows x n
/// matrix a into the row-major n x n `out`, element (p, q) the chain over
/// the rows i ascending of a(i, p) * a(i, q), from +0, skipping
/// a(i, p) == 0 — the row-at-a-time axpy_sequence build of
/// linalg::gram_into, bit for bit — with blocks of output rows held in
/// registers over one pass of a each.  The strict lower triangle is left
/// holding scratch.  Returns false, writing nothing, where the active
/// level has no such kernel: the scalar level, and n == 0 or n > 16.
inline bool gram_upper(const double* a, std::size_t rows, std::size_t n,
                       double* out) {
  return active::gram_upper(a, rows, n, out);
}

/// First column of an upper-triangle row build with axpy_sequence: row a
/// of an n x n symmetric matrix needs columns a .. n-1, and starting at
/// most 8 columns from the end (column 0 when n <= 8) keeps the row in one
/// unmasked 8-wide register, or two 4-wide ones, wherever the width allows.
/// The extra columns left of a are scratch that callers mirror over; the
/// element arithmetic is position-independent, so the start cannot change
/// any bit.
inline std::size_t upper_row_start(std::size_t a, std::size_t n) {
  return n > 8 ? (a < n - 8 ? a : n - 8) : 0;
}

/// Systems per spd_factor_lanes tile at the active level.
inline constexpr std::size_t kSpdLanes = active::kSpdLanes;

/// Factor kSpdLanes n x n SPD systems interleaved as
/// tile[(a * n + b) * kSpdLanes + lane] in place (diagonal + strict upper
/// triangle; the strict lower triangle is never touched).  Returns the
/// bit mask of lanes whose factorisation failed (a pivot <= 0 or
/// non-finite); a failed lane's tile and solutions are garbage.
inline unsigned spd_factor_lanes(double* tile, std::size_t n) {
  return active::spd_factor_lanes(tile, n);
}

/// Solve every lane of a spd_factor_lanes tile: rhs[a * kSpdLanes + lane]
/// holds lane's b on entry and its solution on exit.
inline void spd_solve_lanes(const double* tile, double* rhs, std::size_t n) {
  active::spd_solve_lanes(tile, rhs, n);
}

}  // namespace iup::linalg::kernels

#include "linalg/kernels/lane_tile.hpp"
