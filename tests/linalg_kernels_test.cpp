// Allocation-free linalg kernels: `_into` variants vs their allocating
// counterparts (bit-exact), tiled/packed vs naive products (bit-exact at
// every dispatch level, including non-multiple-of-tile shapes), and the
// SPD solve retry path.
//
// The naive references accumulate through the same kernel-layer
// primitives (kernels::axpy / kernels::dot) as the production paths: the
// per-element arithmetic (FMA at the AVX2 level, mul+add at the scalar
// level) is part of the dispatch-level contract, and a reference written
// with bare operators would round differently whenever the compiler's
// contraction choice diverges from the kernels'.  Cross-level
// scalar-vs-SIMD comparisons live in linalg_simd_kernels_test.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"
#include "test_util.hpp"

namespace iup::linalg {
namespace {

// Reference product: the naive i-k-j triple loop (ascending-k row
// accumulation, zero-pivot skip) the tiled multiply_into must reproduce
// bit for bit at the active dispatch level.
Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      kernels::axpy(aik, b.row_span(k).data(), out.row_span(i).data(),
                    b.cols());
    }
  }
  return out;
}

TEST(TiledMultiply, BitIdenticalToNaiveIncludingOddShapes) {
  rng::Rng rng(11);
  // Shapes straddling the 64-wide tile boundary on every dimension.
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {16, 16, 300},
                                   {64, 64, 64}, {65, 63, 67}, {130, 1, 129},
                                   {5, 200, 3}};
  for (const auto& s : shapes) {
    const Matrix a = test::random_matrix(s[0], s[1], rng);
    const Matrix b = test::random_matrix(s[1], s[2], rng);
    const Matrix expected = naive_multiply(a, b);
    EXPECT_EQ(a * b, expected) << s[0] << "x" << s[1] << " * " << s[1] << "x"
                               << s[2];
    Matrix out;
    multiply_into(a, b, out);
    EXPECT_EQ(out, expected);
  }
}

TEST(TiledMultiply, PanelRouteBitIdenticalToNaive) {
  // Outputs of up to 16 columns run as axpy_panel passes over ascending
  // chunks of 64 terms, the zero pivots as FMAs with a zero coefficient.
  // Against the naive loop bit for bit (so a +0 / -0 flip counts): row
  // counts that leave a partial register block, inner sizes across the
  // chunk boundary, exact-zero and -0.0 pivots and one all-zero column of
  // a; 17 columns checks the tiled route beside it.
  rng::Rng rng(12);
  const auto bits_of = [](const Matrix& x) {
    std::vector<std::uint64_t> out;
    for (const double v : x.data()) out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
  };
  for (const std::size_t n : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 12ul,
                              15ul, 16ul, 17ul}) {
    for (const std::size_t m : {1ul, 2ul, 3ul, 5ul, 6ul, 7ul, 9ul, 13ul}) {
      for (const std::size_t inner : {1ul, 2ul, 8ul, 63ul, 64ul, 65ul, 130ul}) {
        Matrix a = test::random_matrix(m, inner, rng);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t k = i % 3; k < inner; k += 3) {
            a(i, k) = k % 2 == 0 ? 0.0 : -0.0;
          }
          a(i, inner / 2) = 0.0;
        }
        const Matrix b = test::random_matrix(inner, n, rng);
        Matrix out;
        multiply_into(a, b, out);
        EXPECT_EQ(bits_of(out), bits_of(naive_multiply(a, b)))
            << m << "x" << inner << " * " << inner << "x" << n;
      }
    }
  }
}

TEST(TiledMultiply, ReusesOutCapacityAndRejectsAliasing) {
  rng::Rng rng(12);
  const Matrix a = test::random_matrix(10, 20, rng);
  const Matrix b = test::random_matrix(20, 30, rng);
  Matrix out = test::random_matrix(40, 40, rng);  // larger: capacity reused
  multiply_into(a, b, out);
  EXPECT_EQ(out, a * b);
  EXPECT_THROW(multiply_into(out, b, out), std::invalid_argument);
}

TEST(MultiplyTransposed, MatchesExplicitTranspose) {
  rng::Rng rng(13);
  const Matrix l = test::random_matrix(16, 16, rng);
  const Matrix r = test::random_matrix(305, 16, rng);
  Matrix out;
  multiply_transposed_into(l, r, out);
  // Exact against the kernel-level dot reference; the allocating
  // transpose product accumulates through axpy rows instead of dots, so
  // it only agrees within reduction-reorder tolerance at SIMD levels.
  for (std::size_t i = 0; i < l.rows(); ++i) {
    for (std::size_t j = 0; j < r.rows(); ++j) {
      ASSERT_EQ(out(i, j), kernels::dot(l.row_span(i).data(),
                                        r.row_span(j).data(), l.cols()));
    }
  }
  test::expect_matrix_near(out, l * r.transpose(), 1e-12);
}

TEST(TransposeInto, MatchesTransposeAcrossTileBoundaries) {
  rng::Rng rng(14);
  for (const auto& s : {std::pair<std::size_t, std::size_t>{1, 77},
                        {77, 1},
                        {63, 65},
                        {128, 128}}) {
    const Matrix a = test::random_matrix(s.first, s.second, rng);
    Matrix out;
    transpose_into(a, out);
    ASSERT_EQ(out.rows(), a.cols());
    ASSERT_EQ(out.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        ASSERT_EQ(out(j, i), a(i, j));
      }
    }
  }
}

TEST(GramInto, MatchesGramAndTransposeProduct) {
  rng::Rng rng(15);
  const Matrix a = test::random_matrix(305, 16, rng);
  Matrix g;
  gram_into(a, g);
  EXPECT_EQ(g, a.gram());
  test::expect_matrix_near(g, a.transpose() * a, 1e-12);
}

TEST(CopyColRowInto, MatchCopyingAccessors) {
  rng::Rng rng(17);
  const Matrix a = test::random_matrix(6, 4, rng);
  std::vector<double> col(6), row(4);
  a.copy_col_into(2, col);
  EXPECT_EQ(col, a.col(2));
  a.copy_row_into(3, row);
  EXPECT_EQ(row, a.row(3));
  EXPECT_THROW(a.copy_col_into(0, row), std::invalid_argument);
}

TEST(MatrixResize, ReusesCapacityWithoutReallocation) {
  Matrix m(10, 10, 1.0);
  const double* before = m.data().data();
  m.resize(5, 20, 2.0);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 20u);
  EXPECT_EQ(m.data().data(), before) << "same element count must not realloc";
  for (const double v : m.data()) EXPECT_EQ(v, 2.0);
}

TEST(FusedNorms, MatchAllocatingExpressions) {
  rng::Rng rng(18);
  const Matrix x = test::random_matrix(8, 24, rng);
  const Matrix y = test::random_matrix(8, 24, rng);
  Matrix mask(8, 24);
  for (double& v : mask.data()) v = rng.uniform() < 0.5 ? 1.0 : 0.0;
  EXPECT_EQ(diff_norm_sq(x, y), frobenius_norm_sq(x - y));
  EXPECT_EQ(masked_diff_norm_sq(mask, x, y),
            frobenius_norm_sq(mask.hadamard(x) - y));
}

TEST(SolveSpdInto, MatchesSolveSpdOnWellConditionedSystems) {
  rng::Rng rng(20);
  const Matrix f = test::random_matrix(16, 16, rng);
  Matrix spd = f.gram();
  for (std::size_t i = 0; i < 16; ++i) spd(i, i) += 0.05;
  std::vector<double> b(16);
  for (double& v : b) v = rng.normal();

  const std::vector<double> expected = solve_spd(spd, b);
  Matrix work = spd;
  std::vector<double> bx = b;
  std::vector<double> diag(16);
  solve_spd_into(work, bx, diag);
  EXPECT_EQ(bx, expected);
}

TEST(SolveSpdInto, BumpRetryRescuesNearSingularSystems) {
  reset_spd_stats();
  // Rank-deficient Gram matrix with zero regularisation: plain Cholesky
  // must fail, the deterministic diagonal bump must rescue it.
  Matrix f(4, 2);
  f(0, 0) = 1.0;
  f(1, 1) = 1.0;
  f(2, 0) = 1.0;
  f(3, 1) = 1.0;
  Matrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < 2; ++k) acc += f(i, k) * f(j, k);
      a(i, j) = acc;  // a = f f^T, rank 2
    }
  }
  std::vector<double> bx = {1.0, 2.0, 1.0, 2.0};  // in range(a)
  Matrix work = a;
  std::vector<double> diag(4);
  solve_spd_into(work, bx, diag);

  const SpdStats stats = spd_stats();
  EXPECT_EQ(stats.cholesky_failures, 1u);
  EXPECT_EQ(stats.bump_recoveries, 1u);
  EXPECT_EQ(stats.lu_fallbacks, 0u);

  // The bumped system is a ridge solve: residual must stay tiny.
  const std::vector<double> ax = a * std::span<const double>(bx);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(ax[i], (i % 2 == 0) ? 1.0 : 2.0, 1e-4);
  }

  reset_spd_stats();
  const SpdStats cleared = spd_stats();
  EXPECT_EQ(cleared.cholesky_failures, 0u);
}

TEST(SolveSpdInto, IndefiniteFallsBackToLuAndCounts) {
  reset_spd_stats();
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};  // indefinite, non-singular
  std::vector<double> bx = {3.0, 5.0};
  Matrix work = a;
  std::vector<double> diag(2);
  solve_spd_into(work, bx, diag);
  EXPECT_NEAR(bx[0], 5.0, 1e-12);
  EXPECT_NEAR(bx[1], 3.0, 1e-12);
  const SpdStats stats = spd_stats();
  EXPECT_EQ(stats.cholesky_failures, 1u);
  EXPECT_EQ(stats.lu_fallbacks, 1u);
  reset_spd_stats();
}

TEST(BlockAndSelect, ContiguousCopiesPreserveSemantics) {
  rng::Rng rng(21);
  const Matrix a = test::random_matrix(10, 14, rng);
  const Matrix blk = a.block(2, 3, 4, 5);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      ASSERT_EQ(blk(i, j), a(2 + i, 3 + j));
    }
  }
  EXPECT_THROW(a.block(8, 0, 4, 1), std::out_of_range);
  const std::vector<std::size_t> rows = {7, 0, 3};
  const Matrix sel = a.select_rows(rows);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(sel.row(k), a.row(rows[k]));
  }
}

}  // namespace
}  // namespace iup::linalg
