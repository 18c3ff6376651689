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
// Lane-tile Q build (kernels/lane_tile.hpp) against the per-system build.
// ---------------------------------------------------------------------------

/// The Q-defining terms of one system, in the sweep's order: the
/// unobserved downdates over its own ascending rows of x, the shared
/// Constraint-1 matrix term, two rank-1 terms of its band row (the
/// R-update's Constraint-2 curvature) and one matrix term of its own (the
/// L-update's Theta curvature).
struct SystemTerms {
  std::vector<std::size_t> unobs;
  double c2 = 0.0;
  double c3 = 0.0;
  std::vector<double> band;
  double ct = 0.0;
  linalg::Matrix t;
};

/// The per-system Q build the lane tile replaces, kept as the reference:
/// per upper-triangle row a, one axpy_sequence over the row-suffix terms
/// in order, with the rank-1 terms skipped where their scaled pivot is
/// exactly zero.
linalg::Matrix reference_q(const linalg::Matrix& seed, const linalg::Matrix& x,
                           double w1, const linalg::Matrix& m1,
                           const SystemTerms& st) {
  const std::size_t n = seed.rows();
  linalg::Matrix q = seed;
  std::vector<double> alpha;
  std::vector<const double*> xs;
  const auto add_nonzero = [&](double a, const double* v) {
    if (a != 0.0) {
      alpha.push_back(a);
      xs.push_back(v);
    }
  };
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t s = linalg::kernels::upper_row_start(a, n);
    alpha.clear();
    xs.clear();
    for (const std::size_t i : st.unobs) {
      const double* xi = x.row_span(i).data();
      add_nonzero(-1.0 * xi[a], xi + s);
    }
    alpha.push_back(w1);
    xs.push_back(m1.row_span(a).data() + s);
    add_nonzero(st.c2 * st.band[a], st.band.data() + s);
    add_nonzero(st.c3 * st.band[a], st.band.data() + s);
    alpha.push_back(st.ct);
    xs.push_back(st.t.row_span(a).data() + s);
    linalg::kernels::axpy_sequence(alpha.data(), xs.data(), alpha.size(),
                                   q.row_span(a).data() + s, n - s);
  }
  return q;
}

/// The same systems built straight into one lane tile, the sweep's way.
std::vector<double> build_tile(const linalg::Matrix& seed,
                               const linalg::Matrix& x, double w1,
                               const linalg::Matrix& m1,
                               const std::vector<SystemTerms>& systems) {
  const std::size_t n = seed.rows();
  const unsigned live = (1u << systems.size()) - 1u;
  std::vector<double> tile(n * n * kLanes, -7.0);
  linalg::kernels::tile_seed(tile.data(), n, seed.data().data(), live);
  std::vector<std::size_t> idx;
  std::vector<unsigned> lanes;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    unsigned bits_i = 0;
    for (std::size_t lane = 0; lane < systems.size(); ++lane) {
      const auto& u = systems[lane].unobs;
      if (std::find(u.begin(), u.end(), i) != u.end()) bits_i |= 1u << lane;
    }
    if (bits_i != 0) {
      idx.push_back(i);
      lanes.push_back(bits_i);
    }
  }
  linalg::kernels::tile_rank1_union(tile.data(), n, x.data().data(), n,
                                    idx.data(), lanes.data(), idx.size());
  linalg::kernels::tile_axpy_shared(tile.data(), n, w1, m1.data().data(),
                                    live);
  std::vector<double> c2(kLanes, 0.0), c3(kLanes, 0.0), ct(kLanes, 0.0);
  std::vector<double> band(n * kLanes, 0.0), t(n * n * kLanes, 0.0);
  for (std::size_t lane = 0; lane < systems.size(); ++lane) {
    c2[lane] = systems[lane].c2;
    c3[lane] = systems[lane].c3;
    ct[lane] = systems[lane].ct;
    for (std::size_t k = 0; k < n; ++k) {
      band[k * kLanes + lane] = systems[lane].band[k];
      for (std::size_t b = 0; b < n; ++b) {
        t[(k * n + b) * kLanes + lane] = systems[lane].t(k, b);
      }
    }
  }
  linalg::kernels::tile_rank1_lanes(tile.data(), n, c2.data(), band.data());
  linalg::kernels::tile_rank1_lanes(tile.data(), n, c3.data(), band.data());
  linalg::kernels::tile_axpy_lanes(tile.data(), n, ct.data(), t.data(), live);
  return tile;
}

/// Random systems over a shared factor x: ascending unobserved sets of
/// varying size (one empty, one full), exact-zero pivots in x and the
/// band rows, and a lane whose band weight is zero.
std::vector<SystemTerms> random_systems(std::size_t used, std::size_t n,
                                        const linalg::Matrix& x,
                                        rng::Rng& rng) {
  std::vector<SystemTerms> systems(used);
  for (std::size_t lane = 0; lane < used; ++lane) {
    SystemTerms& st = systems[lane];
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const bool full = lane == 1;
      const bool empty = lane == 2;
      if (full || (!empty && rng.uniform() < 0.4)) st.unobs.push_back(i);
    }
    st.c2 = lane == 3 ? 0.0 : rng.uniform();
    st.c3 = rng.uniform();
    st.band = test::random_matrix(n, 1, rng).col(0);
    st.band[lane % n] = 0.0;
    st.ct = rng.uniform();
    st.t = random_spd(n, rng);
  }
  return systems;
}

TEST(LaneTileBuild, EveryLaneMatchesThePerSystemBuild) {
  rng::Rng rng(313);
  for (const std::size_t n : {3ul, 6ul, 8ul, 9ul, 17ul}) {
    for (const std::size_t used : {kLanes, kLanes > 1 ? kLanes - 1 : 1}) {
      linalg::Matrix x = test::random_matrix(n + 5, n, rng);
      for (std::size_t i = 0; i < x.rows(); i += 3) x(i, i % n) = 0.0;
      const linalg::Matrix seed = random_spd(n, rng);
      const linalg::Matrix m1 = random_spd(n, rng);
      const double w1 = 0.75;
      const auto systems = random_systems(used, n, x, rng);
      const std::vector<double> tile = build_tile(seed, x, w1, m1, systems);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const linalg::Matrix q =
            lane < used ? reference_q(seed, x, w1, m1, systems[lane])
                        : linalg::Matrix::identity(n);
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = a; b < n; ++b) {
            EXPECT_EQ(bits(tile[(a * n + b) * kLanes + lane]), bits(q(a, b)))
                << "n=" << n << " used=" << used << " lane=" << lane << " ("
                << a << "," << b << ") level="
                << linalg::kernels::active_level_name();
          }
        }
      }
    }
  }
}

TEST(LaneTileBuild, FailedLaneIsFlaggedAndItsPristineQIsThePerSystemQ) {
  // One lane downdates every row of its own seed gram x^T x with lambda 0,
  // leaving rounding noise (the all-unobserved column of the sweep): the
  // lane factorisation must flag exactly the lanes whose plain factor
  // fails, and the copy taken before factoring — the sweep's replay
  // source — must hold that lane's per-system Q bit for bit.
  rng::Rng rng(314);
  for (const std::size_t n : {3ul, 8ul, 9ul}) {
    const linalg::Matrix x = test::random_matrix(n + 2, n, rng);
    const linalg::Matrix seed = x.gram();
    const linalg::Matrix zero(n, n, 0.0);
    std::vector<SystemTerms> systems(kLanes);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      SystemTerms& st = systems[lane];
      for (std::size_t i = 0; i < x.rows(); ++i) {
        if (lane == 0 || i % 3 == lane % 3) st.unobs.push_back(i);
      }
      st.band.assign(n, 0.0);
      st.t = linalg::Matrix::identity(n);
      st.ct = lane == 0 ? 0.0 : 1.0;
    }
    std::vector<double> tile = build_tile(seed, x, 0.0, zero, systems);
    const std::vector<double> pristine = tile;
    unsigned expect_mask = 0;
    std::vector<linalg::Matrix> qs;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      qs.push_back(reference_q(seed, x, 0.0, zero, systems[lane]));
      linalg::Matrix full = qs.back();
      for (std::size_t a = 1; a < n; ++a) {
        for (std::size_t b = 0; b < a; ++b) full(a, b) = full(b, a);
      }
      if (plain_factor_fails(full)) expect_mask |= 1u << lane;
    }
    EXPECT_TRUE(expect_mask & 1u) << "n=" << n;
    EXPECT_EQ(linalg::kernels::spd_factor_lanes(tile.data(), n), expect_mask)
        << "n=" << n;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a; b < n; ++b) {
        EXPECT_EQ(bits(pristine[(a * n + b) * kLanes]), bits(qs[0](a, b)))
            << "n=" << n << " (" << a << "," << b << ")";
      }
    }
  }
}

TEST(LaneTileBuild, ThetaProductsMatchThePerRowMatrixOps) {
  // The L-update's per-lane Theta products against the Matrix ops they
  // replace: G^T Theta^T (multiply_into), its gram and Theta's own
  // (gram_into, upper triangle) and Theta * neighbour_sum (axpy_sequence
  // into a zeroed row) — with exact zeros in G, Theta and the sums.
  rng::Rng rng(315);
  for (const std::size_t rr : {3ul, 8ul, 9ul, 17ul}) {
    for (const std::size_t slots : {5ul, 12ul, 15ul}) {
      linalg::Matrix g = test::random_matrix(slots, slots, rng);
      for (std::size_t u = 0; u < slots; u += 2) g(u, (u + 3) % slots) = 0.0;
      std::vector<linalg::Matrix> theta;
      std::vector<std::vector<double>> nsum(kLanes);
      std::vector<double> theta_tile(slots * rr * kLanes);
      std::vector<double> nsum_tile(slots * kLanes);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        theta.push_back(test::random_matrix(slots, rr, rng));
        theta.back()(lane % slots, lane % rr) = 0.0;
        nsum[lane] = test::random_matrix(slots, 1, rng).col(0);
        nsum[lane][(lane + 1) % slots] = 0.0;
        for (std::size_t u = 0; u < slots; ++u) {
          nsum_tile[u * kLanes + lane] = nsum[lane][u];
          for (std::size_t k = 0; k < rr; ++k) {
            theta_tile[(u * rr + k) * kLanes + lane] = theta.back()(u, k);
          }
        }
      }
      std::vector<double> tg(slots * rr * kLanes), gbuf(rr * rr * kLanes),
          ttt(rr * rr * kLanes), contrib(rr * kLanes);
      linalg::kernels::lanes_matmul_shared(g.data().data(), slots, slots,
                                           theta_tile.data(), rr, tg.data());
      linalg::kernels::lanes_gram_upper(tg.data(), slots, rr, gbuf.data());
      linalg::kernels::lanes_gram_upper(theta_tile.data(), slots, rr,
                                        ttt.data());
      linalg::kernels::lanes_gemv(nsum_tile.data(), theta_tile.data(), slots,
                                  rr, contrib.data());
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        SCOPED_TRACE("rr=" + std::to_string(rr) + " slots=" +
                     std::to_string(slots) + " lane=" + std::to_string(lane));
        linalg::Matrix tg_ref, gbuf_ref, ttt_ref;
        linalg::multiply_into(g, theta[lane], tg_ref);
        linalg::gram_into(tg_ref, gbuf_ref);
        linalg::gram_into(theta[lane], ttt_ref);
        std::vector<double> alpha = nsum[lane];
        std::vector<const double*> xs;
        for (std::size_t u = 0; u < slots; ++u) {
          xs.push_back(theta[lane].row_span(u).data());
        }
        std::vector<double> contrib_ref(rr, 0.0);
        linalg::kernels::axpy_sequence(alpha.data(), xs.data(), slots,
                                       contrib_ref.data(), rr);
        for (std::size_t u = 0; u < slots; ++u) {
          for (std::size_t k = 0; k < rr; ++k) {
            EXPECT_EQ(bits(tg[(u * rr + k) * kLanes + lane]),
                      bits(tg_ref(u, k)));
          }
        }
        for (std::size_t p = 0; p < rr; ++p) {
          EXPECT_EQ(bits(contrib[p * kLanes + lane]), bits(contrib_ref[p]));
          for (std::size_t q = p; q < rr; ++q) {
            EXPECT_EQ(bits(gbuf[(p * rr + q) * kLanes + lane]),
                      bits(gbuf_ref(p, q)));
            EXPECT_EQ(bits(ttt[(p * rr + q) * kLanes + lane]),
                      bits(ttt_ref(p, q)));
          }
        }
      }
    }
  }
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
  // Two mask extremes against the ungrouped sweep: a fully-observed mask
  // (one group spanning every column, an empty unobserved union, no zero
  // coefficient in the right-hand-side panels) and a near-empty mask (one
  // group with a long unobserved union, panels mostly exact zeros), both
  // with and without the Constraint-1 half of the panels.
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
  // default must reproduce the ungrouped reconstruction bit for bit, and
  // the convergence stop must end both at the same sweep.
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
  EXPECT_TRUE(a.value().solver.converged);
  EXPECT_LT(a.value().solver.iterations, plain_rsvd.max_iters);
  EXPECT_EQ(a.value().solver.iterations, b.value().solver.iterations);
}

TEST(MaskGroupedSweep, OfficeUpdateChainStopsAtTheSameSweepGroupedOrNot) {
  // Committed updates warm-start each solve from the previous commit's
  // factor: the stop still fires at the same sweep with the same bits.
  const auto& run = test::office_run();
  core::RsvdOptions plain_rsvd;
  plain_rsvd.group_masks = false;
  api::Engine grouped;
  api::Engine plain(api::EngineConfig().rsvd(plain_rsvd));
  ASSERT_TRUE(eval::register_run(grouped, run, "office").ok());
  ASSERT_TRUE(eval::register_run(plain, run, "office").ok());
  const auto cells = grouped.reference_cells("office").value();
  for (const std::size_t day : {5u, 15u, 45u}) {
    const auto request =
        eval::collect_update_request(run, "office", cells, day);
    const auto a = grouped.update(request);
    const auto b = plain.update(request);
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    EXPECT_TRUE(a.value().solver.converged) << "day " << day;
    EXPECT_LT(a.value().solver.iterations, plain_rsvd.max_iters);
    EXPECT_EQ(a.value().solver.iterations, b.value().solver.iterations)
        << "day " << day;
    EXPECT_EQ(a.value().x_hat(), b.value().x_hat()) << "day " << day;
    EXPECT_EQ(a.value().snapshot->correlation(),
              b.value().snapshot->correlation())
        << "day " << day;
  }
}

}  // namespace
}  // namespace iup
