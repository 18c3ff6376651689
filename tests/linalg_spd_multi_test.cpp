// The batched SPD pipeline: solve_factored_spd_multi must be
// bit-identical, column for column, to the single-RHS solve_factored_spd
// loop (the contract in linalg/cholesky.hpp); every lane of the
// lane-batched kernels::spd_factor_lanes / spd_solve_lanes must be
// bit-identical to factor_spd + solve_factored_spd on that system alone
// (the contract in linalg/kernels/kernels.hpp); and the batched,
// mask-grouped Algorithm-1 sweep built on them must be bit-identical to
// the ungrouped sweep.  All comparisons here are exact (operator== or bit
// patterns), never tolerances — the CI matrix runs this suite at every
// kernel dispatch level (scalar, AVX2, AVX-512).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/self_augmented.hpp"
#include "eval/experiment.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"
#include "test_util.hpp"

namespace iup {
namespace {

/// Well-conditioned SPD matrix: Gram of a random tall factor + lambda*I.
linalg::Matrix random_spd(std::size_t n, rng::Rng& rng) {
  linalg::Matrix a = test::random_matrix(n + 4, n, rng).gram();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.05;
  return a;
}

/// Per-column reference: factor once, solve_factored_spd per column.
linalg::Matrix solve_columns_one_by_one(const linalg::Matrix& factor,
                                        const linalg::Matrix& rhs_panel) {
  linalg::Matrix out = rhs_panel;
  std::vector<double> col(rhs_panel.rows());
  for (std::size_t c = 0; c < rhs_panel.cols(); ++c) {
    rhs_panel.copy_col_into(c, col);
    linalg::solve_factored_spd(factor, col);
    out.set_col(c, col);
  }
  return out;
}

TEST(SpdSolveMulti, EveryColumnBitIdenticalToSingleRhsSolve) {
  rng::Rng rng(301);
  for (const std::size_t n : {1ul, 2ul, 3ul, 5ul, 8ul, 11ul, 13ul, 16ul}) {
    for (const std::size_t k : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul,
                                12ul, 17ul}) {
      linalg::Matrix factor = random_spd(n, rng);
      std::vector<double> diag(n);
      ASSERT_TRUE(linalg::factor_spd(factor, diag)) << n;

      const linalg::Matrix rhs = test::random_matrix(n, k, rng);
      linalg::Matrix panel = rhs;
      std::vector<double> dots(k);
      linalg::solve_factored_spd_multi(factor, panel, dots);

      EXPECT_EQ(panel, solve_columns_one_by_one(factor, rhs))
          << "n=" << n << " k=" << k << " level="
          << linalg::kernels::active_level_name();
    }
  }
}

TEST(SpdSolveMulti, DuplicatedRhsColumnsProduceIdenticalSolutions) {
  // The mask-group aliasing case: several grid columns can carry the same
  // right-hand side; their panel columns must come out bit-equal.
  rng::Rng rng(302);
  const std::size_t n = 8, k = 6;
  linalg::Matrix factor = random_spd(n, rng);
  std::vector<double> diag(n);
  ASSERT_TRUE(linalg::factor_spd(factor, diag));

  const std::vector<double> b = test::random_matrix(n, 1, rng).col(0);
  linalg::Matrix panel(n, k);
  for (std::size_t c = 0; c < k; ++c) panel.set_col(c, b);
  std::vector<double> dots(k);
  linalg::solve_factored_spd_multi(factor, panel, dots);
  for (std::size_t c = 1; c < k; ++c) {
    EXPECT_EQ(panel.col(c), panel.col(0)) << c;
  }
}

TEST(SpdSolveMulti, RetryBumpFactorMatchesSingleRhsSolve) {
  // Rank-deficient Gram: the plain factorisation fails and factor_spd
  // recovers via the deterministic diagonal bump.  The bumped factor must
  // feed the multi solve exactly like the single-RHS path.
  rng::Rng rng(303);
  const std::size_t n = 6, k = 5;
  const linalg::Matrix low = test::random_low_rank(n, n, 2, rng);
  linalg::Matrix a = low.gram();  // rank 2, PSD, not PD

  linalg::reset_spd_stats();
  linalg::Matrix factor = a;
  std::vector<double> diag(n);
  ASSERT_TRUE(linalg::factor_spd(factor, diag));
  const linalg::SpdStats stats = linalg::spd_stats();
  EXPECT_EQ(stats.cholesky_failures, 1u);
  EXPECT_EQ(stats.bump_recoveries, 1u);

  const linalg::Matrix rhs = test::random_matrix(n, k, rng);
  linalg::Matrix panel = rhs;
  std::vector<double> dots(k);
  linalg::solve_factored_spd_multi(factor, panel, dots);
  EXPECT_EQ(panel, solve_columns_one_by_one(factor, rhs));
}

TEST(SpdSolveMulti, RejectsShapeAndScratchMismatch) {
  rng::Rng rng(304);
  linalg::Matrix factor = random_spd(4, rng);
  std::vector<double> diag(4);
  ASSERT_TRUE(linalg::factor_spd(factor, diag));
  linalg::Matrix bad_rows(3, 2);
  std::vector<double> dots(2);
  EXPECT_THROW(linalg::solve_factored_spd_multi(factor, bad_rows, dots),
               std::invalid_argument);
  linalg::Matrix panel(4, 3);
  EXPECT_THROW(linalg::solve_factored_spd_multi(factor, panel, dots),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Lane-batched factor + solve (kernels::spd_factor_lanes / spd_solve_lanes).
// ---------------------------------------------------------------------------

constexpr std::size_t kLanes = linalg::kernels::kSpdLanes;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Interleave the upper triangles of `systems` into a lane tile; lanes
/// past systems.size() get the identity, the way the sweep pads a partial
/// tile.
std::vector<double> pack_tile(const std::vector<linalg::Matrix>& systems,
                              std::size_t n) {
  std::vector<double> tile(n * n * kLanes, 0.0);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a; b < n; ++b) {
        tile[(a * n + b) * kLanes + lane] =
            lane < systems.size() ? systems[lane](a, b) : (a == b ? 1.0 : 0.0);
      }
    }
  }
  return tile;
}

/// True when the plain (unbumped) factorisation of `a` fails — observed
/// through the failure counter of factor_spd's first attempt.
bool plain_factor_fails(const linalg::Matrix& a) {
  linalg::reset_spd_stats();
  linalg::Matrix work = a;
  std::vector<double> diag(a.rows());
  linalg::factor_spd(work, diag);
  return linalg::spd_stats().cholesky_failures > 0;
}

/// Lane `lane` of the factored tile and solved RHS against factor_spd +
/// solve_factored_spd on `a` alone, bit for bit.
void expect_lane_matches(const std::vector<double>& tile,
                         const std::vector<double>& rhs_tile,
                         const linalg::Matrix& a,
                         const std::vector<double>& b, std::size_t lane) {
  const std::size_t n = a.rows();
  linalg::Matrix factor = a;
  std::vector<double> diag(n);
  ASSERT_TRUE(linalg::factor_spd(factor, diag));
  std::vector<double> x = b;
  linalg::solve_factored_spd(factor, x);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      EXPECT_EQ(bits(tile[(i * n + j) * kLanes + lane]), bits(factor(i, j)))
          << "n=" << n << " lane=" << lane << " (" << i << "," << j << ")";
    }
    EXPECT_EQ(bits(rhs_tile[i * kLanes + lane]), bits(x[i]))
        << "n=" << n << " lane=" << lane << " x[" << i << "]";
  }
}

TEST(SpdLanes, EveryLaneBitIdenticalToPerSystemSolve) {
  rng::Rng rng(311);
  for (std::size_t n = 1; n <= 17; ++n) {
    // A full tile and a partial one (identity-padded idle lanes).
    for (const std::size_t used : {kLanes, kLanes > 1 ? kLanes - 1 : 1}) {
      std::vector<linalg::Matrix> systems;
      std::vector<std::vector<double>> rhs(used);
      for (std::size_t lane = 0; lane < used; ++lane) {
        systems.push_back(random_spd(n, rng));
        rhs[lane] = test::random_matrix(n, 1, rng).col(0);
        // Signed zeros in the RHS: the forward elimination's negation must
        // be an exact sign flip for these to come out bit-equal.
        rhs[lane][lane % n] = lane % 2 == 0 ? 0.0 : -0.0;
      }
      std::vector<double> tile = pack_tile(systems, n);
      EXPECT_EQ(linalg::kernels::spd_factor_lanes(tile.data(), n), 0u)
          << "n=" << n;
      std::vector<double> rhs_tile(n * kLanes, 0.0);
      for (std::size_t lane = 0; lane < used; ++lane) {
        for (std::size_t i = 0; i < n; ++i) {
          rhs_tile[i * kLanes + lane] = rhs[lane][i];
        }
      }
      linalg::kernels::spd_solve_lanes(tile.data(), rhs_tile.data(), n);
      for (std::size_t lane = 0; lane < used; ++lane) {
        expect_lane_matches(tile, rhs_tile, systems[lane], rhs[lane], lane);
      }
    }
  }
}

TEST(SpdLanes, FailureMaskIsExactAndGoodLanesUnaffected) {
  // One NaN lane and one indefinite lane among good ones: the mask flags
  // exactly the lanes whose plain factorisation fails, and the good lanes'
  // factors and solutions are untouched by their neighbours.  With one
  // lane per tile (scalar level) each kind runs in its own tile.
  rng::Rng rng(312);
  const std::size_t n = 7;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<linalg::Matrix> all;
  for (std::size_t k = 0; k < std::max<std::size_t>(kLanes, 3); ++k) {
    all.push_back(random_spd(n, rng));
  }
  all[1](2, 5) = nan;  // propagates into row 5: fails at pivot 5
  all[1](5, 2) = nan;
  all[2](n - 1, n - 1) = -1.0;  // indefinite: the last pivot goes negative
  for (std::size_t first = 0; first < all.size(); first += kLanes) {
    const std::size_t used = std::min(kLanes, all.size() - first);
    const std::vector<linalg::Matrix> systems(all.begin() + first,
                                              all.begin() + first + used);
    std::vector<double> tile = pack_tile(systems, n);
    unsigned expect_mask = 0;
    for (std::size_t lane = 0; lane < used; ++lane) {
      if (plain_factor_fails(systems[lane])) expect_mask |= 1u << lane;
    }
    EXPECT_EQ(linalg::kernels::spd_factor_lanes(tile.data(), n), expect_mask)
        << "first=" << first;
    std::vector<std::vector<double>> rhs(used);
    std::vector<double> rhs_tile(n * kLanes, 0.0);
    for (std::size_t lane = 0; lane < used; ++lane) {
      rhs[lane] = test::random_matrix(n, 1, rng).col(0);
      for (std::size_t i = 0; i < n; ++i) {
        rhs_tile[i * kLanes + lane] = rhs[lane][i];
      }
    }
    linalg::kernels::spd_solve_lanes(tile.data(), rhs_tile.data(), n);
    for (std::size_t lane = 0; lane < used; ++lane) {
      if ((expect_mask >> lane) & 1u) continue;
      expect_lane_matches(tile, rhs_tile, systems[lane], rhs[lane], lane);
    }
  }
  EXPECT_TRUE(plain_factor_fails(all[1]));
  EXPECT_TRUE(plain_factor_fails(all[2]));
  EXPECT_FALSE(plain_factor_fails(all[0]));
}

// ---------------------------------------------------------------------------
// Mask-grouped sweep identities.
// ---------------------------------------------------------------------------

core::RsvdProblem structured_problem(const core::BandLayout& layout,
                                     rng::Rng& rng) {
  // A mask with realistic sharing: whole bands blank out a common row
  // pattern, plus some per-column noise — so the sweep sees a mix of
  // multi-column groups and unique masks (both paths exercised).
  const std::size_t m = layout.links;
  const std::size_t n = layout.num_cells();
  const linalg::Matrix x_full = test::random_low_rank(m, n, 3, rng);
  core::RsvdProblem problem;
  problem.b = linalg::Matrix(m, n, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    problem.b(layout.band_of(j), j) = 0.0;  // shared in-band pattern
    if (rng.uniform() < 0.15) {
      problem.b(rng.uniform_index(m), j) = 0.0;  // occasional unique mask
    }
  }
  problem.x_b = problem.b.hadamard(x_full);
  problem.p = x_full;
  for (double& v : problem.p.data()) v += rng.normal(0.0, 0.01);
  return problem;
}

core::RsvdResult solve_grouped(const core::RsvdProblem& problem,
                               const core::BandLayout& layout, bool grouped,
                               bool constraint2 = true) {
  core::RsvdOptions options;
  options.max_iters = 6;
  options.group_masks = grouped;
  options.use_constraint2 = constraint2;
  return core::SelfAugmentedRsvd(layout, options).solve(problem);
}

TEST(MaskGroupedSweep, GroupedBitIdenticalToUngrouped) {
  rng::Rng rng(305);
  const core::BandLayout layout{8, 12};
  const core::RsvdProblem problem = structured_problem(layout, rng);

  const core::RsvdResult plain = solve_grouped(problem, layout, false);
  const core::RsvdResult grouped = solve_grouped(problem, layout, true);
  ASSERT_GT(grouped.mask_groups, 0u);
  ASSERT_GT(grouped.grouped_columns, grouped.mask_groups);
  EXPECT_EQ(plain.mask_groups, 0u);  // knob off => no grouping ran
  EXPECT_EQ(grouped.l, plain.l);
  EXPECT_EQ(grouped.r, plain.r);
  EXPECT_EQ(grouped.x_hat, plain.x_hat);
  EXPECT_EQ(grouped.objective_history, plain.objective_history);
}

TEST(MaskGroupedSweep, RowGroupingWithoutConstraint2MatchesUngrouped) {
  // With Constraint 2 off, the L-update rows group by unobserved-column
  // set too; results must still match the ungrouped sweep exactly.
  rng::Rng rng(307);
  const core::BandLayout layout{8, 12};
  const core::RsvdProblem problem = structured_problem(layout, rng);

  const core::RsvdResult plain =
      solve_grouped(problem, layout, false, /*constraint2=*/false);
  const core::RsvdResult grouped =
      solve_grouped(problem, layout, true, /*constraint2=*/false);
  EXPECT_EQ(grouped.l, plain.l);
  EXPECT_EQ(grouped.r, plain.r);
  EXPECT_EQ(grouped.x_hat, plain.x_hat);
  EXPECT_EQ(grouped.objective_history, plain.objective_history);
}

TEST(MaskGroupedSweep, PaperLiteralModeGroupedMatchesUngrouped) {
  // kPaperLiteral takes the other similarity-curvature branch of
  // c2_curvature (||H(:, ii)||^2 instead of the Gauss-Seidel neighbour
  // count); grouping must stay exact there too.
  rng::Rng rng(308);
  const core::BandLayout layout{8, 12};
  const core::RsvdProblem problem = structured_problem(layout, rng);
  core::RsvdOptions options;
  options.max_iters = 6;
  options.c2_mode = core::Constraint2Mode::kPaperLiteral;
  options.group_masks = false;
  const auto plain = core::SelfAugmentedRsvd(layout, options).solve(problem);
  options.group_masks = true;
  const auto grouped =
      core::SelfAugmentedRsvd(layout, options).solve(problem);
  ASSERT_GT(grouped.mask_groups, 0u);
  EXPECT_EQ(grouped.l, plain.l);
  EXPECT_EQ(grouped.r, plain.r);
  EXPECT_EQ(grouped.x_hat, plain.x_hat);
  EXPECT_EQ(grouped.objective_history, plain.objective_history);
}

TEST(MaskGroupedSweep, FusedRhsSharedWalkExtremes) {
  // The fused RHS builder walks the group's shared observed-index list
  // once for all members.  Exercise its extremes against the ungrouped
  // per-column walk: a fully-observed mask (one group spanning every
  // column, empty unobserved list) and a near-empty mask (tiny shared
  // observed list), both with Constraint 1 driving the dense fused walk
  // and with it disabled.
  rng::Rng rng(309);
  const core::BandLayout layout{8, 12};
  const std::size_t m = layout.links;
  const std::size_t n = layout.num_cells();
  const linalg::Matrix x_full = test::random_low_rank(m, n, 3, rng);

  for (const double observed_fraction : {1.0, 0.2}) {
    for (const bool with_c1 : {true, false}) {
      core::RsvdProblem problem;
      problem.b = linalg::Matrix(m, n, 1.0);
      if (observed_fraction < 1.0) {
        // Shared sparse pattern: the same few rows observed in every
        // column, so ALL columns land in one group with a long unobserved
        // list and a short shared walk.
        for (std::size_t i = 0; i < m; ++i) {
          if (static_cast<double>(i) >= observed_fraction * m) {
            for (std::size_t j = 0; j < n; ++j) problem.b(i, j) = 0.0;
          }
        }
      }
      problem.x_b = problem.b.hadamard(x_full);
      if (with_c1) {
        problem.p = x_full;
        for (double& v : problem.p.data()) v += rng.normal(0.0, 0.01);
      }

      const core::RsvdResult plain =
          solve_grouped(problem, layout, false, /*constraint2=*/false);
      const core::RsvdResult grouped =
          solve_grouped(problem, layout, true, /*constraint2=*/false);
      ASSERT_GT(grouped.mask_groups, 0u)
          << "obs=" << observed_fraction << " c1=" << with_c1;
      EXPECT_EQ(grouped.grouped_columns, n);  // one signature, all columns
      EXPECT_EQ(grouped.l, plain.l)
          << "obs=" << observed_fraction << " c1=" << with_c1;
      EXPECT_EQ(grouped.r, plain.r);
      EXPECT_EQ(grouped.x_hat, plain.x_hat);
      EXPECT_EQ(grouped.objective_history, plain.objective_history);
    }
  }
}

TEST(MaskGroupedSweep, ForcedCholeskyFailuresReplayLikeUngrouped) {
  // Drive Cholesky failures through the sweep itself: lambda = 0, both
  // constraints off and two all-unobserved columns.  Those columns share
  // Q = L^T L minus every row's outer product — rounding noise — so they
  // form one group whose lane factorisation fails and replays through
  // factor_spd and the per-member LU ladder.  At rank 3 that group is the
  // only failure; at rank = links every Q is rank-deficient and most
  // systems also fail and recover through the diagonal bump.  Grouped and
  // ungrouped must agree bit for bit, and SpdStats must follow the
  // documented granularity (replay_failed in core/self_augmented.cpp).
  rng::Rng rng(310);
  const core::BandLayout layout{8, 12};
  core::RsvdProblem problem = structured_problem(layout, rng);
  const std::size_t blank_cols[] = {5, 12};
  for (const std::size_t j : blank_cols) {
    for (std::size_t i = 0; i < layout.links; ++i) problem.b(i, j) = 0.0;
  }
  problem.x_b = problem.b.hadamard(problem.x_b);
  const std::size_t k_blank = std::size(blank_cols);

  for (const std::size_t rank : {3ul, 8ul}) {
    core::RsvdOptions options;
    options.max_iters = 6;
    options.lambda = 0.0;
    options.rank = rank;
    options.use_constraint1 = false;
    options.use_constraint2 = false;
    const auto run = [&](bool grouped, linalg::SpdStats& stats) {
      options.group_masks = grouped;
      linalg::reset_spd_stats();
      const auto result =
          core::SelfAugmentedRsvd(layout, options).solve(problem);
      stats = linalg::spd_stats();
      return result;
    };
    linalg::SpdStats u, g;
    const core::RsvdResult plain = run(false, u);
    const core::RsvdResult grouped = run(true, g);
    SCOPED_TRACE("rank=" + std::to_string(rank));
    ASSERT_GT(grouped.mask_groups, 0u);
    EXPECT_EQ(grouped.x_hat, plain.x_hat);
    EXPECT_EQ(grouped.l, plain.l);
    EXPECT_EQ(grouped.r, plain.r);
    EXPECT_EQ(grouped.objective_history, plain.objective_history);

    // The failure path really ran, and the all-unobserved columns went
    // through the LU ladder member by member in both sweeps.
    EXPECT_GT(u.cholesky_failures, 0u);
    EXPECT_GT(u.lu_fallbacks, 0u);
    EXPECT_EQ(u.lu_fallbacks % k_blank, 0u);
    EXPECT_EQ(g.lu_fallbacks, u.lu_fallbacks);
    // Ungrouped: every failing system ends in exactly one recovery.
    EXPECT_EQ(u.cholesky_failures, u.bump_recoveries + u.lu_fallbacks);
    // Grouped: the LU replay of a k-member group adds one group-level
    // failure on top of the k member ladders.
    const std::uint64_t lu_groups = g.lu_fallbacks / k_blank;
    EXPECT_EQ(g.cholesky_failures,
              g.bump_recoveries + g.lu_fallbacks + lu_groups);
    if (rank == 3) {
      EXPECT_EQ(u.bump_recoveries, 0u);
      EXPECT_EQ(g.bump_recoveries, 0u);
    } else {
      // A shared factorisation counts its bump recovery once per group,
      // not once per member.
      EXPECT_GT(u.bump_recoveries, 0u);
      EXPECT_LT(g.bump_recoveries, u.bump_recoveries);
    }
  }
}

TEST(MaskGroupedSweep, OfficeTestbedReconstructionIsGroupedAndIdentical) {
  // The real pipeline: the office testbed's physically-structured mask
  // concentrates the grid columns on a handful of signatures; the grouped
  // default must reproduce the ungrouped reconstruction bit for bit.
  const auto& run = test::office_run();
  core::RsvdOptions plain_rsvd;
  plain_rsvd.group_masks = false;
  api::Engine grouped;
  api::Engine plain(api::EngineConfig().rsvd(plain_rsvd));
  ASSERT_TRUE(eval::register_run(grouped, run, "office").ok());
  ASSERT_TRUE(eval::register_run(plain, run, "office").ok());
  const auto cells = grouped.reference_cells("office").value();
  const auto request = eval::collect_update_request(run, "office", cells, 45);
  const auto a = grouped.reconstruct(request);
  const auto b = plain.reconstruct(request);
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  EXPECT_GT(a.value().solver.mask_groups, 0u);
  EXPECT_GE(a.value().solver.grouped_columns, run.b_mask.cols() / 2);
  EXPECT_EQ(a.value().x_hat(), b.value().x_hat());
  EXPECT_EQ(a.value().solver.objective_history,
            b.value().solver.objective_history);
}

}  // namespace
}  // namespace iup
