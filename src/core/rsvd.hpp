// Shared problem/option types for the RSVD family of solvers, plus the
// basic regularized-SVD matrix completion (Eq. 11) as a convenience entry
// point.  The full self-augmented method (Eq. 18 / Algorithm 1) lives in
// core/self_augmented.hpp and subsumes this one (basic RSVD is the special
// case with both constraints disabled).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace iup::core {

/// How Constraint 2 enters the per-column normal equations.
enum class Constraint2Mode {
  /// The published pseudo code: Q4/Q5 are the squared-norm curvature terms
  /// and C4 = C5 = 0 — a data-independent shrinkage of the largely-decrease
  /// entries along the current factor direction.
  kPaperLiteral,
  /// Block-coordinate (Gauss-Seidel) linearisation: the cross terms with
  /// the neighbouring entries of the *current* estimate are kept, so the
  /// penalty genuinely pulls each entry toward its neighbour average /
  /// adjacent-link value.  This matches the stated intent of Observations
  /// 2/3 and is the default.
  kGaussSeidel,
};

/// How the factor L is initialised (Algorithm 1 line 1).
enum class FactorInit {
  kRandom,     ///< the paper's choice: random L0
  kWarmStart,  ///< SVD factors of X_B completed with X_R * Z (faster, used
               ///< by default; benches verify both reach similar objectives)
};

struct RsvdOptions {
  double lambda = 0.05;        ///< rank/fit tradeoff (Eq. 11)
  std::size_t rank = 0;        ///< factor width r; 0 = use the row count M
  std::size_t max_iters = 60;  ///< Algorithm 1 line 2 ("t"): the sweep cap
  double v_threshold = 1e-9;   ///< Algorithm 1 "v_th", relative to the data
                               ///< scale ||X_B||_F^2
  bool use_constraint1 = true;
  bool use_constraint2 = true;
  Constraint2Mode c2_mode = Constraint2Mode::kGaussSeidel;
  FactorInit init = FactorInit::kWarmStart;
  std::uint64_t init_seed = 7;  ///< seed for kRandom initialisation
  /// Convergence stop: the solve ends after the first sweep, from the
  /// second on, at which no entry of the reconstruction X_hat = L R^T
  /// moved by more than this against the previous sweep's X_hat and the
  /// objective is the lowest so far (RsvdResult::converged).  In the
  /// units of X_B: dB for RSS fingerprints.  A NaN change never reads as
  /// converged.  A stopped solve is a bit-exact prefix of the full
  /// max_iters trajectory; 0 disables the stop and always runs that
  /// trajectory, the paper's fixed t sweeps.
  double converge_db = 0.01;

  // Term weights.  The paper scales the constraint terms "to the same
  // order of magnitude" (Sec. IV-E); with auto_scale the weights below are
  // multiplied by data_term / constraint_term measured at the warm-start
  // completion (clamped to [1e-3, 1e3]).  The fixed defaults equalise the
  // per-entry curvature of the terms instead, which keeps Constraint 2 an
  // outlier-rejecting regulariser rather than letting it dominate the
  // (naturally much smaller) difference terms; the ablation bench compares
  // both policies.
  bool auto_scale = false;
  double w_constraint1 = 1.0;
  double w_continuity = 0.3;  ///< weight of ||X_D * G||_F^2
  double w_similarity = 0.05;  ///< weight of ||H * X_D||_F^2
};

/// The data of one reconstruction problem.
struct RsvdProblem {
  linalg::Matrix x_b;   ///< M x N, no-decrease measurements (zeros elsewhere)
  linalg::Matrix b;     ///< M x N 0/1 index matrix (Eq. 8)
  linalg::Matrix p;     ///< M x N prediction X_R * Z (Constraint 1); may be
                        ///< empty when use_constraint1 is false
  linalg::Matrix l0;    ///< optional M x r warm-start factor: when non-empty
                        ///< and FactorInit::kWarmStart is selected,
                        ///< Algorithm 1 starts from this L0 and skips the
                        ///< SVD of the completed matrix.  api::Engine feeds
                        ///< the previous snapshot's converged factor here
                        ///< through its versioned warm-start cache.
};

struct RsvdResult {
  linalg::Matrix x_hat;  ///< reconstructed fingerprint matrix
  linalg::Matrix l;      ///< M x r factor
  linalg::Matrix r;      ///< N x r factor
  std::vector<double> objective_history;  ///< v per iteration (line 5)
  std::size_t iterations = 0;
  bool reached_threshold = false;  ///< objective fell below v_th
  bool converged = false;  ///< stopped by RsvdOptions::converge_db
  /// Always 0: every grid column factors its own Q, so none shares one.
  /// Kept only because perfbench (perfbench/src/layers.cpp) reads it for
  /// its core.grouped_share metric; it goes when that metric is retired.
  std::size_t grouped_columns = 0;
};

/// Basic RSVD (Eq. 11): complete `x_b` over the observed mask `b` with no
/// additional constraints.
RsvdResult basic_rsvd(const linalg::Matrix& x_b, const linalg::Matrix& b,
                      RsvdOptions options = {});

}  // namespace iup::core
