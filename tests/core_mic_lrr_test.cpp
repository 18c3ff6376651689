// MIC extraction and the LRR correlation solver.
#include <gtest/gtest.h>

#include "core/lrr.hpp"
#include "core/mic.hpp"
#include "linalg/norms.hpp"
#include "linalg/svd.hpp"
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

}  // namespace
}  // namespace iup::core
