// Cholesky factorisation for symmetric positive-definite systems.
//
// The normal-equation solves inside Algorithm 1 (Eq. 24) and the LRR
// Z-update are SPD by construction (Gram matrices plus lambda*I), so the
// solver pipeline prefers Cholesky.  When the factorisation fails (e.g.
// lambda == 0 with a rank-deficient factor) the solve does NOT silently
// fall back to a fresh LU factorisation any more: it first retries with a
// deterministic diagonal bump (the usual "jitter" fix for near-singular
// normal equations, scaled to the matrix), and only then pays for LU.
// Every failure/recovery/fallback is counted in SpdStats so a sweep that
// quietly degrades to the 4x-slower path is visible in diagnostics.
//
// factor_spd, solve_factored_spd and solve_spd_into are the
// allocation-free hot-path kernels: they factor and solve entirely inside
// caller-owned storage.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace iup::linalg {

/// Factor an SPD matrix in place with the same deterministic diagonal-bump
/// retry policy as solve_spd_into (failures/recoveries counted in the
/// process-wide SpdStats).  `diag_scratch` must have length a.rows(); it
/// receives the original diagonal.  On true, `a` holds an opaque SPD
/// factor usable with solve_factored_spd (an UPPER-triangular R with
/// a = R^T R — on row-major storage every elimination and substitution
/// loop then runs over contiguous row suffixes, which is what lets the
/// SIMD kernel layer vectorise the whole solve path); on false, `a` is
/// restored to the symmetrised unbumped input so the caller can fall back
/// to LU.  This is the factor-once entry point for solvers whose normal
/// matrix is fixed across iterations (the LRR Z-update): factor here,
/// back-substitute per iteration.
bool factor_spd(Matrix& a, std::span<double> diag_scratch);

/// Allocation-free solve against a factor_spd / solve_spd_into factor: on
/// entry `bx` holds b, on exit the solution.
void solve_factored_spd(const Matrix& r, std::span<double> bx);

/// Solve a x = b for SPD a.  Retries with a diagonal bump, then falls back
/// to LU, so callers never have to branch on definiteness themselves.
std::vector<double> solve_spd(const Matrix& a, std::span<const double> b);

/// Allocation-free SPD solve: the per-system path of the Algorithm-1
/// sweep, which replays through it every lane whose batched factorisation
/// (kernels::spd_factor_lanes) failed.  `a` is destroyed
/// (it ends up holding a Cholesky factor or retry scratch); on entry `bx`
/// holds b and on exit the solution.  `diag_scratch` must have length
/// a.rows() — it preserves the original diagonal across retries.
///
/// Failure policy (all deterministic, no RNG):
///   1. plain Cholesky;
///   2. two retries with the diagonal bumped by 1e-10 resp. 1e-6 times
///      the mean diagonal magnitude — the "jittered" lambda bump that
///      rescues nearly-PSD normal equations for a fraction of the cost of
///      a full LU solve;
///   3. LU with partial pivoting on the (symmetrised) original.
/// Every stage is counted in the process-wide SpdStats.
void solve_spd_into(Matrix& a, std::span<double> bx,
                    std::span<double> diag_scratch);

/// Diagnostic counters for the SPD solve path (process-wide, updated with
/// relaxed atomics — cheap enough to leave on in release builds).
struct SpdStats {
  std::uint64_t cholesky_failures = 0;  ///< initial factorisations failed
  std::uint64_t bump_recoveries = 0;    ///< rescued by the diagonal bump
  std::uint64_t lu_fallbacks = 0;       ///< paid for the full LU solve
};

/// Snapshot of the counters since process start / the last reset.
SpdStats spd_stats();
void reset_spd_stats();

}  // namespace iup::linalg
