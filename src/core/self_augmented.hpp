// Self-augmented RSVD — Eq. 18 and Algorithm 1 of the paper.
//
// Objective (weights shown where our implementation generalises the paper):
//
//   min  lambda (||L||_F^2 + ||R||_F^2)            regularisation
//      + ||B o (L R^T) - X_B||_F^2                 no-decrease data term
//      + w1 ||L R^T - X_R Z||_F^2                  Constraint 1 (correlation)
//      + w2 ||X_D * G||_F^2 + w3 ||H * X_D||_F^2   Constraint 2 (continuity /
//                                                  adjacent-link similarity)
//
// solved by alternating per-column (R-update) and per-row (L-update) ridge
// systems in closed form, exactly the structure of the published MyInverse
// routine (Eq. 24).  Two published index bugs are repaired and documented
// in self_augmented.cpp; the ablation bench compares the literal and the
// repaired (Gauss-Seidel) treatment of Constraint 2.
//
// Performance: the sweep runs serially — at paper scale (6-8 links x
// 72-120 cells) a fan-out inside one solve costs more than it saves; the
// engine parallelises across sites instead.  Each half-sweep is one
// batched pass.  First every right-hand side, in one
// kernels::axpy_panel pass over coefficient panels fixed for the solve
// ([B o X_B] then w1 P per column / row, unobserved entries as exact
// zeros), plus the Constraint-2 cross terms.  Then the systems (the
// R-update's mask groups and singleton columns, the L-update's rows) in
// tiles of kernels::kSpdLanes (8 at AVX-512, 4 at AVX2, 1 at scalar):
// each tile's Q is built straight into the interleaved lane tile
// (kernels/lane_tile.hpp) — the R-update element by element across the
// lanes with lane-masked downdates over the union of the tile's
// unobserved rows, the L-update one lane at a time with all Q rows of a
// system in one axpy_panel pass over its own unobserved columns, its
// Constraint-2 Theta products computed for all lanes at once — then
// factored and solved lane-parallel (kernels::spd_factor_lanes /
// spd_solve_lanes); a group's members solve in "member rounds", round t
// taking member t of every lane.  Every lane and every accumulated
// element replays the per-system op sequence of its dispatch level, so
// the bits are those of the one-system-at-a-time solve; a lane whose
// unbumped factorisation fails replays through linalg::solve_spd_into /
// factor_spd (bump ladder, LU fallback) from a copy of its tile taken
// before factoring.  All sweep scratch lives in a SweepContext sized once
// per solve, so steady-state iterations perform zero heap allocations.
// The solve runs only until the reconstruction settles
// (RsvdOptions::converge_db): after each sweep the X_hat the objective
// builds is compared with the previous sweep's (two swapped buffers), and
// the solve ends at the first sweep, holding the best objective so far,
// at which no entry moved by more than converge_db (0.01 dB by default).
// A warm-started update settles in about 8-16 sweeps instead of
// max_iters = 60.  The decision reads only the iterates, so a stopped
// solve is a bit-exact prefix of the fixed trajectory and every
// bit-identity below (threads, grouping, recovery) holds; the sweep count
// may differ between dispatch levels.
//
// Mask-grouping invariant (RsvdOptions::group_masks, default on).  The
// normal matrix Q of the column-j R-update is
//
//   Q_j = (lambda*I + L^T L) - sum_{i unobserved in column j} l_i l_i^T
//       + w1 L^T L                                     (Constraint 1)
//       + (w2 ||G(jj,:)||^2 + w3 c_ii) l_ii l_ii^T     (Constraint 2)
//
// with ii = band_of(j), jj = slot_of(j) and c_ii the similarity curvature
// count.  Q_j therefore depends ONLY on (a) the column's unobserved row
// set, (b) its band row ii, and (c) the two scalar curvature weights —
// never on the observed VALUES, which enter the right-hand side alone.
// Columns that agree on (a)-(c) share Q bit for bit in every sweep (same
// inputs, same op sequence), so the sweep groups them once per solve,
// builds and factors each group's Q once, and solves every member against
// that one factor.  The same holds for L-update rows when
// Constraint 2 is inactive (with c2 active, the per-row Theta curvature
// makes every row's Q unique).  Without grouping every index is a group of
// one on the same batched path, so grouped and ungrouped sweeps differ
// only in how indices are grouped and are exactly equal at every kernel
// dispatch level (tests/linalg_spd_multi_test.cpp).
#pragma once

#include <utility>

#include "core/fingerprint.hpp"
#include "core/rsvd.hpp"

namespace iup::core {

/// Reusable buffers for one solve() call: factor iterates, shared sweep
/// products and the per-index workspace.  Defined in self_augmented.cpp;
/// stack-allocated by solve().
struct SweepContext;

class SelfAugmentedRsvd {
 public:
  /// `layout` describes the band structure used by Constraint 2.
  SelfAugmentedRsvd(BandLayout layout, RsvdOptions options);

  const RsvdOptions& options() const { return options_; }
  const linalg::Matrix& continuity() const { return g_; }
  const linalg::Matrix& similarity() const { return h_; }

  /// Run Algorithm 1 on a fully-specified problem.
  RsvdResult solve(const RsvdProblem& problem) const;

  /// The L0 iterate solve() starts from (Algorithm 1 line 1): the explicit
  /// problem.l0 when given (kWarmStart), otherwise the SVD factor of the
  /// completed matrix, or a seeded random factor for kRandom.  Public so
  /// callers that cache warm starts (api::Engine) and tests can reproduce
  /// the initialisation exactly.
  linalg::Matrix initial_factor(const RsvdProblem& problem) const;

 private:
  struct Weights {
    double w1 = 0.0;  ///< Constraint-1 weight (0 when disabled)
    double w2 = 0.0;  ///< continuity weight
    double w3 = 0.0;  ///< similarity weight
  };

  /// X_B completed with the Constraint-1 prediction (or row means): the
  /// warm-start matrix, also the reference iterate for auto-scaling.
  linalg::Matrix warm_matrix(const RsvdProblem& problem) const;

  /// The two scalar Constraint-2 curvature weights of column j's normal
  /// matrix (the coefficients of its l_band outer products): {w2c, w3c}
  /// with w2c = w2 ||G(jj,:)||^2 and w3c the similarity count /
  /// h-column factor of band ii.  Single source of truth for the
  /// R-update's Q build AND solve()'s mask-group signature — the
  /// grouping invariant is only sound while the signature encodes
  /// exactly the scalars the Q build applies.
  std::pair<double, double> c2_curvature(const Weights& w,
                                         std::size_t j) const;
  Weights effective_weights(const RsvdProblem& problem) const;
  double objective(const RsvdProblem& problem, const Weights& w,
                   const linalg::Matrix& l, const linalg::Matrix& r,
                   SweepContext& ctx) const;

  /// Closed-form update of every column of Theta = R^T with L fixed
  /// (Algorithm 1 line 3 / Eq. 24).  Writes ctx.r_next.
  void update_r(const RsvdProblem& problem, const Weights& w,
                const linalg::Matrix& l, const linalg::Matrix& r_prev,
                SweepContext& ctx) const;

  /// Closed-form update of every row of L with R fixed (line 4).
  /// Writes ctx.l_next.
  void update_l(const RsvdProblem& problem, const Weights& w,
                const linalg::Matrix& l_prev, const linalg::Matrix& r,
                SweepContext& ctx) const;

  BandLayout layout_;
  RsvdOptions options_;
  linalg::Matrix g_;    ///< continuity matrix (S x S)
  linalg::Matrix g_t_;  ///< G^T, precomputed for the L-update cross terms
  linalg::Matrix h_;    ///< similarity matrix (M x M)
};

}  // namespace iup::core
