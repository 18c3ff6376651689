// MIC extraction and the LRR correlation solver.  The lane-tile identity
// test at the end runs in every SIMD dispatch cell of CI.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/lrr.hpp"
#include "core/mic.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/norms.hpp"
#include "linalg/svd.hpp"
#include "linalg/vec.hpp"
#include "test_util.hpp"

namespace iup::core {
namespace {

TEST(Mic, CountEqualsRankOnSyntheticLowRank) {
  rng::Rng rng(51);
  const auto x = iup::test::random_low_rank(6, 30, 4, rng);
  const auto mic = extract_mic(x);
  EXPECT_EQ(mic.rank, 4u);
  EXPECT_EQ(mic.reference_cells.size(), 4u);
  EXPECT_EQ(mic.x_mic.cols(), 4u);
  // The selected columns must actually span the column space.
  EXPECT_EQ(linalg::numerical_rank(mic.x_mic, 1e-8), 4u);
}

TEST(Mic, OfficeFingerprintNeedsExactlyMReferences) {
  // Sec. IV-B / Claim 1: the number of reference locations equals the
  // matrix rank, which equals the link count (8 for the office).
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const auto mic = extract_mic(x, 1e-6);
  EXPECT_EQ(mic.reference_cells.size(), 8u);
}

TEST(Mic, QrcpCellsSortedAndValid) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const auto mic = extract_mic(x);
  for (std::size_t k = 1; k < mic.reference_cells.size(); ++k) {
    EXPECT_LT(mic.reference_cells[k - 1], mic.reference_cells[k]);
  }
  for (std::size_t c : mic.reference_cells) EXPECT_LT(c, x.cols());
}

TEST(Mic, FromExplicitCells) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const std::vector<std::size_t> cells = {1, 10, 50};
  const auto mic = mic_from_cells(x, cells);
  EXPECT_EQ(mic.x_mic.cols(), 3u);
  EXPECT_DOUBLE_EQ(mic.x_mic(3, 1), x(3, 10));
  EXPECT_THROW((void)mic_from_cells(x, {}), std::invalid_argument);
}

TEST(Mic, EmptyMatrixThrows) {
  EXPECT_THROW((void)extract_mic(linalg::Matrix{}), std::invalid_argument);
}

TEST(Lrr, ExactRepresentationOnCleanData) {
  // X built from its own dictionary: X = A Z_true, no corruption.
  rng::Rng rng(52);
  const auto a = iup::test::random_matrix(8, 4, rng);
  const auto z_true = iup::test::random_matrix(4, 20, rng);
  const auto x = a * z_true;
  const auto result = solve_lrr(a, x);
  EXPECT_TRUE(result.converged);
  // A Z reproduces X even if Z itself may differ in the null space.
  EXPECT_LT(linalg::relative_error(a * result.z, x), 1e-4);
  EXPECT_LT(linalg::frobenius_norm(result.e), 1e-3);
}

TEST(Lrr, ColumnCorruptionLandsInE) {
  rng::Rng rng(53);
  const auto a = iup::test::random_matrix(8, 4, rng);
  const auto z_true = iup::test::random_matrix(4, 30, rng);
  auto x = a * z_true;
  // Corrupt three columns heavily.
  for (std::size_t j : {std::size_t{5}, std::size_t{12}, std::size_t{20}}) {
    for (std::size_t i = 0; i < 8; ++i) x(i, j) += rng.normal(0.0, 5.0);
  }
  LrrOptions opt;
  opt.epsilon = 0.15;  // favour explaining corruption through E
  const auto result = solve_lrr(a, x, opt);
  // E's energy should concentrate on the corrupted columns.
  double corrupted = 0.0, clean = 0.0;
  for (std::size_t j = 0; j < 30; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < 8; ++i) col += result.e(i, j) * result.e(i, j);
    if (j == 5 || j == 12 || j == 20) {
      corrupted += col;
    } else {
      clean += col;
    }
  }
  EXPECT_GT(corrupted, 5.0 * clean);
}

TEST(Lrr, CorrelationPredictsHeldOutColumns) {
  // The iUpdater use case: Z learned at day 0 maps reference columns to
  // the full matrix.
  const auto& run = iup::test::office_run();
  const auto& x0 = run.ground_truth.at_day(0);
  const auto mic = extract_mic(x0);
  const auto lrr = solve_lrr(mic.x_mic, x0);
  EXPECT_LT(linalg::relative_error(mic.x_mic * lrr.z, x0), 0.05);
}

TEST(Lrr, RowMismatchThrows) {
  EXPECT_THROW(
      (void)solve_lrr(linalg::Matrix(3, 2), linalg::Matrix(4, 5)),
      std::invalid_argument);
}

TEST(Lrr, IterationBudgetRespected) {
  rng::Rng rng(54);
  const auto a = iup::test::random_matrix(6, 3, rng);
  const auto x = iup::test::random_matrix(6, 10, rng);
  LrrOptions opt;
  opt.max_iters = 7;
  opt.tol = 0.0;  // never converges by tolerance
  const auto result = solve_lrr(a, x, opt);
  EXPECT_EQ(result.iterations, 7u);
  EXPECT_FALSE(result.converged);
}

TEST(LrrWarmStart, ConvergesToTheColdFixedPointInFarFewerIterations) {
  // The refresh scenario: solve on the day-0 database, drift to day 45,
  // then compare a cold re-solve with one warm-started from the day-0
  // state.  Warm must (a) converge, (b) land on the same Z within the
  // ADMM tolerance scale, (c) need well under half the cold iterations.
  const auto& run = iup::test::office_run();
  const auto& x0 = run.ground_truth.at_day(0);
  const auto& x1 = run.ground_truth.at_day(45);
  const auto mic0 = extract_mic(x0);
  const LrrOptions opt;

  const auto cold0 = solve_lrr(mic0.x_mic, x0, opt);
  ASSERT_TRUE(cold0.converged);
  EXPECT_GT(cold0.mu_final, opt.mu);

  const auto mic1 = mic_from_cells(x1, mic0.reference_cells);
  const auto cold1 = solve_lrr(mic1.x_mic, x1, opt);
  ASSERT_TRUE(cold1.converged);

  LrrWarmStart warm;
  warm.z = cold0.z;
  warm.y1 = cold0.y1;
  warm.y2 = cold0.y2;
  warm.mu = cold0.mu_final;
  const auto warm1 = solve_lrr(mic1.x_mic, x1, opt, &warm);
  ASSERT_TRUE(warm1.converged);
  EXPECT_LE(warm1.iterations * 2, cold1.iterations)
      << "warm " << warm1.iterations << " vs cold " << cold1.iterations;
  EXPECT_LT(linalg::relative_error(warm1.z, cold1.z), 1e-5);
  // Same reconstruction quality as the cold fixed point.
  EXPECT_LT(linalg::relative_error(mic1.x_mic * warm1.z, x1), 0.05);
}

TEST(LrrWarmStart, ShapeMismatchResetsToCold) {
  // A reference-set change alters the dictionary width: the stale state
  // must be ignored, reproducing the cold solve bit for bit.
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const auto mic = extract_mic(x);
  const LrrOptions opt;
  const auto cold = solve_lrr(mic.x_mic, x, opt);

  LrrWarmStart stale;
  stale.z = linalg::Matrix(mic.x_mic.cols() + 1, x.cols(), 0.1);
  stale.mu = 7.0;
  const auto reset = solve_lrr(mic.x_mic, x, opt, &stale);
  EXPECT_EQ(reset.z, cold.z);
  EXPECT_EQ(reset.iterations, cold.iterations);
  EXPECT_EQ(reset.mu_final, cold.mu_final);
}

// --- lane-tiled Z-update == per-column reference ----------------------

// Reference: solve_lrr's ADMM iteration with a one-column Z-update — per
// grid column, 2n dots for the right-hand side, one solve_factored_spd
// and m dots for A Z.  Its E-update and multiplier loops are the
// library's character for character, so comparing the two pins the
// lane-tiled Z-update (dot_panel + spd_solve_lanes) to the one-column
// loop bit for bit.
namespace reference {

struct LrrWorkspace {
  linalg::Matrix xt;    ///< N x M : X^T
  linalg::Matrix at;    ///< n x M : A^T (rows contiguous for the rhs dots)
  linalg::Matrix lfac;  ///< n x n : Cholesky factor of I + A^T A
  linalg::Matrix zt;    ///< N x n : Z^T (also holds the rhs pre-solve)
  linalg::Matrix jt;    ///< N x n : J^T
  linalg::Matrix y2t;   ///< N x n : Y2^T
  linalg::Matrix et;    ///< N x M : E^T
  linalg::Matrix y1t;   ///< N x M : Y1^T
  linalg::Matrix dt;    ///< N x M : (X - E)^T rhs scratch
  linalg::Matrix azt;   ///< N x M : (A Z)^T, shared by E-update and residual
  linalg::Matrix jin;   ///< N x n : (Z + Y2/mu)^T, the SVT input
  linalg::Matrix gmat;  ///< n x n : jin^T jin, eigendecomposed in place
  linalg::Matrix evec;  ///< n x n : eigenvectors of gmat
  linalg::Matrix smat;  ///< n x n : V diag(f(sigma)/sigma) V^T
  std::vector<double> scale;  ///< n : per-mode SVT shrink factors
  std::vector<double> diag;   ///< n : factor_spd retry scratch
};

// Jt = SVT(Jin) at level tau, computed through the small side: with
// G = Jin^T Jin = V Sigma^2 V^T (n x n, n = MIC rank), the thresholded
// iterate is Jin * V diag(max(sigma - tau, 0)/sigma) V^T — no SVD of the
// tall N x n iterate needed.  Modes with sigma <= tau (including exact
// null directions) are zeroed, exactly like the dense SVT.
void svt_via_gram(LrrWorkspace& ws, double tau) {
  linalg::gram_into(ws.jin, ws.gmat);
  linalg::eigh_sym_in_place(ws.gmat, ws.evec);
  const std::size_t n = ws.gmat.rows();
  ws.scale.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double lambda = ws.gmat(k, k);
    const double sigma = lambda > 0.0 ? std::sqrt(lambda) : 0.0;
    ws.scale[k] = sigma > tau ? (sigma - tau) / sigma : 0.0;
  }
  ws.smat.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (ws.scale[k] == 0.0) continue;
        acc += ws.scale[k] * ws.evec(i, k) * ws.evec(j, k);
      }
      ws.smat(i, j) = acc;
    }
  }
  linalg::multiply_into(ws.jin, ws.smat, ws.jt);
}

LrrResult per_column_solve_lrr(const linalg::Matrix& a,
                               const linalg::Matrix& x,
                               const LrrOptions& options,
                               const LrrWarmStart* warm = nullptr) {
  if (a.rows() != x.rows()) {
    throw std::invalid_argument("solve_lrr: dictionary/data row mismatch");
  }
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t big_n = x.cols();

  LrrWorkspace ws;
  linalg::transpose_into(x, ws.xt);
  linalg::transpose_into(a, ws.at);

  // Warm restart: accept the previous correlation only when its shape
  // matches this problem exactly (a reference-set change resets to cold —
  // the convergence-preserving reset).  Multipliers and the resumed
  // penalty ride along only with an accepted Z.
  const bool warm_z =
      warm != nullptr && warm->z.rows() == n && warm->z.cols() == big_n;
  const bool warm_y = warm_z && warm->y1.rows() == m &&
                      warm->y1.cols() == big_n && warm->y2.rows() == n &&
                      warm->y2.cols() == big_n;

  // The Z-update normal matrix I + A^T A is fixed for the whole ADMM run:
  // factor it exactly once (with the deterministic diagonal-bump retry of
  // the SPD pipeline) and back-substitute per iteration.
  linalg::gram_into(a, ws.lfac);
  for (std::size_t i = 0; i < n; ++i) ws.lfac(i, i) += 1.0;
  ws.diag.resize(n);
  if (!linalg::factor_spd(ws.lfac, ws.diag)) {
    throw std::runtime_error("solve_lrr: (I + A^T A) not SPD (numerical)");
  }

  if (warm_z) {
    linalg::transpose_into(warm->z, ws.zt);
  } else {
    ws.zt.resize(big_n, n);
  }
  ws.jt.resize(big_n, n);
  if (warm_y) {
    linalg::transpose_into(warm->y2, ws.y2t);
    linalg::transpose_into(warm->y1, ws.y1t);
  } else {
    ws.y2t.resize(big_n, n);
    ws.y1t.resize(big_n, m);
  }
  ws.et.resize(big_n, m);
  ws.dt.resize(big_n, m);
  ws.azt.resize(big_n, m);
  ws.jin.resize(big_n, n);

  const double x_norm = std::max(linalg::frobenius_norm(x), 1e-12);
  double mu = options.mu;
  if (warm_z && warm->mu > 0.0) {
    // Resume the penalty two growth steps below where the previous solve
    // stopped: near-final mu keeps the SVT threshold small immediately
    // (no warm-up phase), while the rho^2 headroom leaves the first few
    // iterations enough step size to absorb the drift in X.
    mu = std::clamp(warm->mu / (options.rho * options.rho), options.mu,
                    options.mu_max);
  }
  const bool adaptive = warm_z && warm->mu > 0.0;
  double prev_r_max = -1.0;
  LrrResult out;

  for (std::size_t it = 0; it < options.max_iters; ++it) {
    const double inv_mu = 1.0 / mu;

    // J-update: singular-value thresholding of Z + Y2/mu at level 1/mu.
    {
      const auto z = ws.zt.data();
      const auto y2 = ws.y2t.data();
      const auto jin = ws.jin.data();
      for (std::size_t k = 0; k < jin.size(); ++k) {
        jin[k] = z[k] + y2[k] * inv_mu;
      }
    }
    svt_via_gram(ws, inv_mu);

    // Z-update, (A Z)^T product and E-update in one pass over the N grid
    // columns (rows of the transposed state).
    const double tau = options.epsilon * inv_mu;
    for (std::size_t r = 0; r < big_n; ++r) {
      const auto xrow = ws.xt.row_span(r);
      const auto y1row = ws.y1t.row_span(r);
      const auto y2row = ws.y2t.row_span(r);
      const auto jrow = ws.jt.row_span(r);
      const auto d = ws.dt.row_span(r);
      const auto erow = ws.et.row_span(r);
      for (std::size_t i = 0; i < m; ++i) d[i] = xrow[i] - erow[i];

      // (I + A^T A) z = A^T (X - E) + J + (A^T Y1 - Y2)/mu, built
      // directly in the output row and solved there.
      const auto zrow = ws.zt.row_span(r);
      for (std::size_t jj = 0; jj < n; ++jj) {
        const auto arow = ws.at.row_span(jj);
        zrow[jj] = linalg::dot(arow, d) + jrow[jj] +
                   (linalg::dot(arow, y1row) - y2row[jj]) * inv_mu;
      }
      linalg::solve_factored_spd(ws.lfac, zrow);

      const auto azrow = ws.azt.row_span(r);
      for (std::size_t i = 0; i < m; ++i) {
        azrow[i] = linalg::dot(a.row_span(i), zrow);
      }

      // E-update: l2,1 shrinkage of q = X - A Z + Y1/mu, column-wise.
      double col_norm = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double q = xrow[i] - azrow[i] + y1row[i] * inv_mu;
        col_norm += q * q;
      }
      col_norm = std::sqrt(col_norm);
      const double shrink =
          col_norm > tau ? (col_norm - tau) / col_norm : 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        erow[i] = shrink * (xrow[i] - azrow[i] + y1row[i] * inv_mu);
      }
    }

    // Multiplier updates and residual norms, fused.
    double r1_sq = 0.0;
    double r2_sq = 0.0;
    for (std::size_t r = 0; r < big_n; ++r) {
      const auto xrow = ws.xt.row_span(r);
      const auto azrow = ws.azt.row_span(r);
      const auto erow = ws.et.row_span(r);
      const auto y1row = ws.y1t.row_span(r);
      for (std::size_t i = 0; i < m; ++i) {
        const double res = xrow[i] - azrow[i] - erow[i];
        y1row[i] += mu * res;
        r1_sq += res * res;
      }
      const auto zrow = ws.zt.row_span(r);
      const auto jrow = ws.jt.row_span(r);
      const auto y2row = ws.y2t.row_span(r);
      for (std::size_t jj = 0; jj < n; ++jj) {
        const double res = zrow[jj] - jrow[jj];
        y2row[jj] += mu * res;
        r2_sq += res * res;
      }
    }
    out.iterations = it + 1;
    const double r1 = std::sqrt(r1_sq) / x_norm;
    const double r2 = std::sqrt(r2_sq) / x_norm;
    out.residual = r1;
    const double r_max = std::max(r1, r2);
    // Adaptive mu: while the combined residual stagnates the penalty is
    // too small to make progress — grow it by rho^2; once the residual
    // contracts geometrically, fall back to the plain rho schedule.
    double rho_eff = options.rho;
    if (adaptive && prev_r_max >= 0.0 && r_max > 0.9 * prev_r_max) {
      rho_eff = options.rho * options.rho;
    }
    prev_r_max = r_max;
    mu = std::min(rho_eff * mu, options.mu_max);
    if (r1 < options.tol && r2 < options.tol) {
      out.converged = true;
      break;
    }
  }

  out.mu_final = mu;
  linalg::transpose_into(ws.zt, out.z);
  linalg::transpose_into(ws.et, out.e);
  linalg::transpose_into(ws.y1t, out.y1);
  linalg::transpose_into(ws.y2t, out.y2);
  return out;
}

}  // namespace reference

/// True when the two matrices have the same shape and the same bytes.
::testing::AssertionResult same_bits(const linalg::Matrix& got,
                                     const linalg::Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      if (std::bit_cast<std::uint64_t>(got(i, j)) !=
          std::bit_cast<std::uint64_t>(want(i, j))) {
        return ::testing::AssertionFailure()
               << "entry (" << i << ", " << j << "): " << got(i, j)
               << " vs " << want(i, j);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

void expect_same_solve(const LrrResult& got, const LrrResult& want) {
  EXPECT_TRUE(same_bits(got.z, want.z)) << "z";
  EXPECT_TRUE(same_bits(got.e, want.e)) << "e";
  EXPECT_TRUE(same_bits(got.y1, want.y1)) << "y1";
  EXPECT_TRUE(same_bits(got.y2, want.y2)) << "y2";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mu_final),
            std::bit_cast<std::uint64_t>(want.mu_final));
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.residual),
            std::bit_cast<std::uint64_t>(want.residual));
  EXPECT_EQ(got.converged, want.converged);
}

TEST(LrrLaneTiles, MatchThePerColumnReferenceBitForBit) {
  // (M, n, N): dictionaries narrower than, equal to and wider than an
  // 8-lane tile, wider than the data (n > M), grid widths that leave a
  // partial tile at 4 and at 8 lanes, and one grid narrower than a tile.
  struct Shape {
    std::size_t m, n, big_n;
  };
  const Shape shapes[] = {{6, 6, 71},  {8, 8, 97},  {9, 9, 107},
                          {8, 11, 130}, {6, 20, 75}, {8, 8, 3}};
  rng::Rng rng(55);
  for (const Shape& s : shapes) {
    SCOPED_TRACE(::testing::Message() << s.m << " x " << s.n << " x "
                                      << s.big_n);
    const auto a = iup::test::random_matrix(s.m, s.n, rng);
    auto x = a * iup::test::random_matrix(s.n, s.big_n, rng);
    for (double& v : x.data()) v += rng.normal(0.0, 0.05);
    for (std::size_t i = 0; i < s.m; ++i) x(i, s.big_n / 2) += 4.0;

    // Cold, as at registration and set_reference_cells.
    const LrrOptions opt;
    const auto cold = solve_lrr(a, x, opt);
    expect_same_solve(cold, reference::per_column_solve_lrr(a, x, opt));

    // Warm from the cold state on drifted data, as after every commit.
    auto drifted = x;
    for (double& v : drifted.data()) v += rng.normal(0.0, 0.02);
    LrrWarmStart warm;
    warm.z = cold.z;
    warm.y1 = cold.y1;
    warm.y2 = cold.y2;
    warm.mu = cold.mu_final;
    ASSERT_GT(warm.mu, 0.0);
    expect_same_solve(solve_lrr(a, drifted, opt, &warm),
                      reference::per_column_solve_lrr(a, drifted, opt, &warm));

    // Stopped by max_iters instead of the tolerance.
    LrrOptions capped;
    capped.max_iters = 3;
    const auto stopped = solve_lrr(a, drifted, capped, &warm);
    EXPECT_EQ(stopped.iterations, 3u);
    EXPECT_FALSE(stopped.converged);
    expect_same_solve(stopped, reference::per_column_solve_lrr(
                                   a, drifted, capped, &warm));
  }
}

}  // namespace
}  // namespace iup::core
