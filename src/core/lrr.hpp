// Low-rank representation (LRR) solver — Eq. 12 of the paper:
//
//     min_{Z,E}  ||Z||_* + eps ||E||_{2,1}   s.t.  X = X_MIC Z + E,
//
// solved by the inexact Augmented Lagrange Multiplier method of
// Liu, Lin & Yu (ICML 2010).  Z is the "inherent correlation matrix" that
// links the MIC columns to every other column; it is computed once from the
// original (or latest updated) fingerprint matrix and reused at every
// subsequent update (Constraint 1 of the self-augmented RSVD), which is why
// a fresh survey of only the reference locations suffices.
//
// Performance: the ADMM state is kept transposed (grid columns are
// contiguous rows), the fixed normal matrix I + A^T A is factored exactly
// once per call (back-substitution only per iteration), the J-update's
// singular-value thresholding runs through the n x n Gram eigenproblem
// instead of an SVD of the tall iterate.  The Z-update runs in lane tiles
// of kernels::kSpdLanes consecutive grid columns: the right-hand sides
// and A Z come from kernels::dot_panel passes and one
// kernels::spd_solve_lanes call solves the tile against the factor held
// in every lane, each column bit-identical to the one-column dot and
// solve_factored_spd loop (tests/core_mic_lrr_test.cpp pins it).  On a
// 4-vCPU AVX-512 host at -march=native that took about half off the
// office (8 x 96) warm refresh and a third to a half off its cold solve
// (BM_LrrCorrelationWarm, BM_LrrCorrelation).  Steady-state iterations
// perform zero heap allocations.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace iup::core {

struct LrrOptions {
  double epsilon = 0.5;     ///< weight of the ||E||_{2,1} corruption term
  double mu = 1e-4;         ///< initial ALM penalty
  double mu_max = 1e10;
  double rho = 1.6;         ///< penalty growth factor
  double tol = 1e-7;        ///< relative stopping tolerance
  std::size_t max_iters = 500;
};

struct LrrResult {
  linalg::Matrix z;       ///< n x N correlation matrix
  linalg::Matrix e;       ///< M x N sparse-column corruption
  linalg::Matrix y1;      ///< M x N data-constraint multiplier at exit
  linalg::Matrix y2;      ///< n x N Z=J multiplier at exit
  double mu_final = 0.0;  ///< penalty at exit (seed for warm restarts)
  std::size_t iterations = 0;
  bool converged = false;
  double residual = 0.0;  ///< final ||X - A Z - E||_F / ||X||_F
};

/// Warm restart of the ADMM state, e.g. from the previous snapshot's
/// correlation when the fingerprint matrix drifts slowly between updates
/// (the paper's premise).  `z` seeds the primal iterate; `y1`/`y2` resume
/// dual ascent (used only when their shapes match the problem AND z was
/// accepted — multipliers are meaningless without the iterate they came
/// from); `mu > 0` resumes the penalty at mu / rho^2 (clamped to
/// [options.mu, options.mu_max]), skipping the small-mu warm-up entirely.
/// A shape mismatch on `z` (e.g. the reference set changed) falls back to
/// the cold start, so stale state can degrade convergence speed but never
/// correctness.
struct LrrWarmStart {
  linalg::Matrix z;    ///< n x N previous correlation
  linalg::Matrix y1;   ///< optional M x N multiplier
  linalg::Matrix y2;   ///< optional n x N multiplier
  double mu = 0.0;     ///< optional penalty to resume from (0 = cold mu)
};

/// Solve Eq. 12 with dictionary `a` (= X_MIC, M x n) and data `x` (M x N).
/// `warm` (optional) resumes from a previous solve's state.  A warm
/// restart with a penalty to resume (warm->mu > 0) runs an adaptive mu
/// schedule: while the combined residual stagnates (> 90% of the previous
/// iteration's) the penalty grows by rho^2 instead of rho; once residuals
/// fall geometrically it drops back to rho.  The sequence stays monotone
/// non-decreasing (capped at mu_max), so the inexact-ALM convergence
/// argument is unaffected.  Cold solves keep the fixed rho schedule.
LrrResult solve_lrr(const linalg::Matrix& a, const linalg::Matrix& x,
                    const LrrOptions& options = {},
                    const LrrWarmStart* warm = nullptr);

}  // namespace iup::core
