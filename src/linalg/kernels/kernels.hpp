// iup::linalg::kernels — the SIMD micro-kernel layer of the solver hot
// path.
//
// One dispatch header, compile-time level selection: every translation
// unit of a build sees the same level, chosen by the flags the whole
// build was compiled with (the IUP_ARCH CMake knob; scripts/bench.sh
// benches at -march=native, CI exercises both a baseline and an
// x86-64-v3 cell).
//
//   kernels::dot / axpy / axpy2 / add_outer_upper / norm_sq /
//   diff_norm_sq / masked_diff_norm_sq /
//   dot_panel                            — forward to the active level
//   kernels::gemm_accumulate             — register-blocked packed GEMM
//                                          (kernels/gemm.hpp)
//   kernels::scalar::*                   — always available (reference)
//   kernels::avx2::*                     — only at the AVX2+ levels
//   kernels::avx512::*                   — only at the AVX-512 level
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
//    (pre-kernel-layer) loops exactly.
//  * dot_panel (the trsv_multi / multi-RHS back-substitution kernel) is
//    held to a STRONGER promise: at every level, out[c] is bit-identical
//    to kernels::dot(a, column c of the panel) at that same level — the
//    panel solve in linalg/cholesky.cpp relies on it to keep each RHS of
//    a multi-RHS SPD solve exactly equal to the historical one-column
//    solve_factored_spd loop.
//  * Zero-skips (add_outer_upper rows, the multiply_into pivot skip) are
//    exact no-ops on finite data: a contribution 0.0 * v adds +/-0, and
//    an accumulator seeded with +0 can never round to -0, so skipping
//    cannot change any finite result.
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

inline void add_outer_upper(double weight, const double* v, std::size_t n,
                            double* q, std::size_t ld) {
  active::add_outer_upper(weight, v, n, q, ld);
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
/// across the RHS columns instead of along them.  The multi-RHS SPD
/// back substitution (linalg/cholesky.cpp) is the consumer.
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  active::dot_panel(a, b, ldb, n, k, out);
}

}  // namespace iup::linalg::kernels
