// QR, column-pivoted QR, LU, Cholesky, least squares.
#include <gtest/gtest.h>

#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/vec.hpp"
#include "test_util.hpp"

namespace iup::linalg {
namespace {

using iup::test::expect_matrix_near;
using iup::test::random_low_rank;
using iup::test::random_matrix;

TEST(Qr, FactorsMultiplyBack) {
  rng::Rng rng(1);
  const Matrix a = random_matrix(6, 4, rng);
  const auto f = qr(a);
  expect_matrix_near(f.q * f.r, a, 1e-10);
}

TEST(Qr, QHasOrthonormalColumns) {
  rng::Rng rng(2);
  const Matrix a = random_matrix(7, 5, rng);
  const auto f = qr(a);
  expect_matrix_near(f.q.gram(), Matrix::identity(5), 1e-10);
}

TEST(Qr, RIsUpperTriangular) {
  rng::Rng rng(3);
  const Matrix a = random_matrix(5, 5, rng);
  const auto f = qr(a);
  for (std::size_t i = 0; i < f.r.rows(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(f.r(i, j), 0.0, 1e-12);
    }
  }
}

TEST(Qrcp, PermutedFactorsMultiplyBack) {
  rng::Rng rng(4);
  const Matrix a = random_matrix(6, 8, rng);
  const auto f = qr_column_pivoted(a);
  const Matrix permuted = a.select_columns(f.perm);
  expect_matrix_near(f.q * f.r, permuted, 1e-10);
}

TEST(Qrcp, DetectsRank) {
  rng::Rng rng(5);
  const Matrix a = random_low_rank(6, 10, 3, rng);
  const auto f = qr_column_pivoted(a, 1e-8);
  EXPECT_EQ(f.rank, 3u);
}

TEST(Qrcp, FullRankSquare) {
  rng::Rng rng(6);
  const Matrix a = random_matrix(5, 5, rng);
  EXPECT_EQ(qr_column_pivoted(a).rank, 5u);
}

TEST(Qrcp, ZeroMatrixRankZero) {
  EXPECT_EQ(qr_column_pivoted(Matrix(4, 4)).rank, 0u);
}

TEST(LeastSquares, ExactForConsistentSystem) {
  rng::Rng rng(7);
  const Matrix a = random_matrix(8, 3, rng);
  const std::vector<double> x_true = {1.5, -2.0, 0.5};
  const auto b = a * std::span<const double>(x_true);
  const auto x = least_squares(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(LeastSquares, ResidualOrthogonalToColumns) {
  rng::Rng rng(8);
  const Matrix a = random_matrix(10, 4, rng);
  std::vector<double> b(10);
  for (double& v : b) v = rng.normal();
  const auto x = least_squares(a, b);
  const auto fitted = a * std::span<const double>(x);
  const auto r = sub(b, fitted);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    EXPECT_NEAR(dot(r, a.col(j)), 0.0, 1e-9);
  }
}

TEST(LeastSquares, UnderdeterminedThrows) {
  const Matrix a(2, 3);
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)least_squares(a, b), std::invalid_argument);
}

TEST(Lu, SolveKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b = {3.0, 5.0};
  const auto x = solve(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SolveMatrixRhs) {
  rng::Rng rng(9);
  const Matrix a = random_matrix(5, 5, rng);
  const Matrix b = random_matrix(5, 3, rng);
  const Matrix x = solve(a, b);
  expect_matrix_near(a * x, b, 1e-9);
}

TEST(Lu, InverseTimesSelfIsIdentity) {
  rng::Rng rng(10);
  const Matrix a = random_matrix(6, 6, rng);
  expect_matrix_near(a * inverse(a), Matrix::identity(6), 1e-9);
}

TEST(Lu, SingularThrowsOnSolve) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)solve(a, b), std::runtime_error);
}

TEST(Lu, NonSquareThrows) {
  EXPECT_THROW((void)lu_decompose(Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, DeterminantKnown) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NEAR(determinant(a), -2.0, 1e-12);
  EXPECT_NEAR(determinant(Matrix::identity(4)), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(determinant(Matrix{{1.0, 2.0}, {2.0, 4.0}}), 0.0);
}

TEST(Cholesky, SolveMatchesLu) {
  rng::Rng rng(12);
  const Matrix g = random_matrix(6, 6, rng);
  Matrix spd = g.gram();
  for (std::size_t i = 0; i < 6; ++i) spd(i, i) += 2.0;
  std::vector<double> b(6);
  for (double& v : b) v = rng.normal();
  const auto x_chol = solve_spd(spd, b);
  const auto x_lu = solve(spd, b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x_chol[i], x_lu[i], 1e-8);
}

TEST(Cholesky, SolveSpdFallsBackOnIndefinite) {
  const Matrix ind{{1.0, 2.0}, {2.0, 1.0}};
  const std::vector<double> b = {1.0, 1.0};
  const auto x = solve_spd(ind, b);  // must not throw: LU fallback
  const auto fitted = ind * std::span<const double>(x);
  EXPECT_NEAR(fitted[0], 1.0, 1e-10);
  EXPECT_NEAR(fitted[1], 1.0, 1e-10);
}

class SolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolveSweep, LuSolveResidualSmall) {
  const int n = GetParam();
  rng::Rng rng(static_cast<std::uint64_t>(100 + n));
  const Matrix a = random_matrix(n, n, rng);
  std::vector<double> b(n);
  for (double& v : b) v = rng.normal();
  const auto x = solve(a, b);
  const auto fitted = a * std::span<const double>(x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(fitted[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace iup::linalg
