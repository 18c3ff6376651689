// The process-wide SpdStats counters are incremented from thread-pool
// workers (the solver sweep's per-column solves and the LRR's factor-once
// path both run on iup::parallel), so they must be atomics: a torn or lost
// increment would silently misreport how often the solve path degrades.
// These tests hammer the counters from many pool chunks and assert EXACT
// totals — a data race would both lose counts and trip TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "parallel/thread_pool.hpp"

namespace iup::linalg {
namespace {

// Symmetric indefinite: the plain factorisation fails, both relative
// diagonal bumps (1e-10 and 1e-6 of the mean diagonal, here ~1) are far
// too small to rescue the -1 eigenvalue, and the solve must pay for LU.
Matrix indefinite_matrix() {
  Matrix a = Matrix::identity(4);
  a(3, 3) = -1.0;
  return a;
}

// Nearly-PSD: one diagonal entry is a hair negative, so the first
// factorisation fails, the 1e-10 bump is still short, and the 1e-6 bump
// (relative to the mean diagonal ~1) rescues it deterministically.
Matrix bump_rescued_matrix() {
  Matrix a = Matrix::identity(4);
  a(3, 3) = -1e-8;
  return a;
}

TEST(SpdStats, CountersAreExactUnderPoolConcurrency) {
  constexpr std::size_t kSolves = 256;
  constexpr std::size_t kThreads = 8;
  reset_spd_stats();

  parallel::parallel_for(
      kThreads, kSolves, [](std::size_t begin, std::size_t end) {
        std::vector<double> bx(4, 1.0);
        std::vector<double> diag(4);
        for (std::size_t k = begin; k < end; ++k) {
          Matrix a = indefinite_matrix();
          std::fill(bx.begin(), bx.end(), 1.0);
          solve_spd_into(a, bx, diag);
        }
      });

  const SpdStats stats = spd_stats();
  EXPECT_EQ(stats.cholesky_failures, kSolves);
  EXPECT_EQ(stats.bump_recoveries, 0u);
  EXPECT_EQ(stats.lu_fallbacks, kSolves);
}

TEST(SpdStats, BumpRecoveriesAreExactUnderPoolConcurrency) {
  constexpr std::size_t kSolves = 256;
  constexpr std::size_t kThreads = 8;
  reset_spd_stats();

  parallel::parallel_for(
      kThreads, kSolves, [](std::size_t begin, std::size_t end) {
        std::vector<double> bx(4, 1.0);
        std::vector<double> diag(4);
        for (std::size_t k = begin; k < end; ++k) {
          Matrix a = bump_rescued_matrix();
          std::fill(bx.begin(), bx.end(), 1.0);
          solve_spd_into(a, bx, diag);
        }
      });

  const SpdStats stats = spd_stats();
  EXPECT_EQ(stats.cholesky_failures, kSolves);
  EXPECT_EQ(stats.bump_recoveries, kSolves);
  EXPECT_EQ(stats.lu_fallbacks, 0u);
}

TEST(SpdStats, FactorSpdCountsAndRestoresOnFailure) {
  reset_spd_stats();
  Matrix a = indefinite_matrix();
  const Matrix original = a;
  std::vector<double> diag(4);
  EXPECT_FALSE(factor_spd(a, diag));
  // The failed factorisation restores the symmetrised, unbumped input.
  EXPECT_EQ(a, original);
  const SpdStats stats = spd_stats();
  EXPECT_EQ(stats.cholesky_failures, 1u);
  EXPECT_EQ(stats.lu_fallbacks, 0u);

  // A well-conditioned SPD factor succeeds and is usable for solves.
  Matrix spd = Matrix::identity(3);
  spd(0, 0) = 4.0;
  std::vector<double> d3(3);
  ASSERT_TRUE(factor_spd(spd, d3));
  std::vector<double> bx = {8.0, 2.0, 3.0};
  solve_factored_spd(spd, bx);
  EXPECT_DOUBLE_EQ(bx[0], 2.0);
  EXPECT_DOUBLE_EQ(bx[1], 2.0);
  EXPECT_DOUBLE_EQ(bx[2], 3.0);

  reset_spd_stats();
}

}  // namespace
}  // namespace iup::linalg
