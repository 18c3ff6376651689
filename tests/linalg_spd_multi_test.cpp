// The batched SPD pipeline: every lane of the lane-batched
// kernels::spd_factor_lanes / spd_solve_lanes must be bit-identical to
// factor_spd + solve_factored_spd on that system alone (the contract in
// linalg/kernels/kernels.hpp), every lane of the lane-tile Q build to the
// per-system build, and the Algorithm-1 sweep built on them must replay a
// failed lane through the per-system path.  All comparisons here are
// exact (operator== or bit patterns), never tolerances — the CI matrix
// runs this suite at every kernel dispatch level (scalar, AVX2, AVX-512).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/self_augmented.hpp"
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
/// L-update's Theta curvature; none when t is empty).
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
/// exactly zero.  An empty m1 drops the shared term, as the sweep does at
/// w1 = 0.
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
    if (!m1.empty()) {
      alpha.push_back(w1);
      xs.push_back(m1.row_span(a).data() + s);
    }
    add_nonzero(st.c2 * st.band[a], st.band.data() + s);
    add_nonzero(st.c3 * st.band[a], st.band.data() + s);
    if (!st.t.empty()) {
      alpha.push_back(st.ct);
      xs.push_back(st.t.row_span(a).data() + s);
    }
    linalg::kernels::axpy_sequence(alpha.data(), xs.data(), alpha.size(),
                                   q.row_span(a).data() + s, n - s);
  }
  return q;
}

/// The union of the systems' unobserved rows, ascending, and per row the
/// mask of lanes whose set holds it: tile_build_union's downdate operands.
struct Union {
  std::vector<std::size_t> idx;
  std::vector<unsigned> lanes;
};

Union union_of(const std::vector<SystemTerms>& systems, std::size_t rows) {
  Union u;
  for (std::size_t i = 0; i < rows; ++i) {
    unsigned bits_i = 0;
    for (std::size_t lane = 0; lane < systems.size(); ++lane) {
      const auto& un = systems[lane].unobs;
      if (std::find(un.begin(), un.end(), i) != un.end()) bits_i |= 1u << lane;
    }
    if (bits_i != 0) {
      u.idx.push_back(i);
      u.lanes.push_back(bits_i);
    }
  }
  return u;
}

/// The R-update's build of the systems' first four terms, in one pass:
/// the seed, the union's downdates, the shared term (none when m1 is
/// empty) and `rank1s` band rank-1s, the c3 one alone when rank1s == 1.
std::vector<double> build_union_tile(const linalg::Matrix& seed,
                                     const linalg::Matrix& x, double w1,
                                     const linalg::Matrix& m1,
                                     const std::vector<SystemTerms>& systems,
                                     std::size_t rank1s) {
  const std::size_t n = seed.rows();
  const unsigned live = (1u << systems.size()) - 1u;
  std::vector<double> tile(n * n * kLanes, -7.0);
  std::vector<double> coef(2 * kLanes, 0.0), band(n * kLanes, 0.0);
  for (std::size_t lane = 0; lane < systems.size(); ++lane) {
    coef[lane] = systems[lane].c2;
    coef[kLanes + lane] = systems[lane].c3;
    for (std::size_t k = 0; k < n; ++k) {
      band[k * kLanes + lane] = systems[lane].band[k];
    }
  }
  const Union u = union_of(systems, x.rows());
  linalg::kernels::tile_build_union(
      tile.data(), n, seed.data().data(), live, x.data().data(), n,
      u.idx.data(), u.lanes.data(), u.idx.size(), w1,
      m1.empty() ? nullptr : m1.data().data(),
      coef.data() + (rank1s == 1 ? kLanes : 0), rank1s, band.data());
  return tile;
}

/// The same systems built straight into one lane tile, the sweep's way:
/// the R-update's one-pass build, then each lane's own matrix term.
std::vector<double> build_tile(const linalg::Matrix& seed,
                               const linalg::Matrix& x, double w1,
                               const linalg::Matrix& m1,
                               const std::vector<SystemTerms>& systems) {
  const std::size_t n = seed.rows();
  const unsigned live = (1u << systems.size()) - 1u;
  std::vector<double> tile = build_union_tile(seed, x, w1, m1, systems, 2);
  std::vector<double> ct(kLanes, 0.0), t(n * n * kLanes, 0.0);
  for (std::size_t lane = 0; lane < systems.size(); ++lane) {
    ct[lane] = systems[lane].ct;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t b = 0; b < n; ++b) {
        t[(k * n + b) * kLanes + lane] = systems[lane].t(k, b);
      }
    }
  }
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

TEST(LaneTileBuild, OnePassUnionBuildMatchesThePerSystemBuildLaneByLane) {
  // tile_build_union alone, the R-update's Q: full and partial tiles (the
  // idle lanes must hold the identity), with and without the shared
  // Constraint-1 term (w1 = 0 drops it), and with no band rank-1 (no
  // Constraint 2), the w3 one alone, or both.
  rng::Rng rng(315);
  for (const std::size_t n : {1ul, 3ul, 6ul, 8ul, 9ul, 17ul}) {
    for (const std::size_t used : {kLanes, kLanes > 1 ? kLanes - 1 : 1, 1ul}) {
      for (const double w1 : {0.75, 0.0}) {
        for (const std::size_t rank1s : {0ul, 1ul, 2ul}) {
          linalg::Matrix x = test::random_matrix(n + 5, n, rng);
          for (std::size_t i = 0; i < x.rows(); i += 3) x(i, i % n) = 0.0;
          const linalg::Matrix seed = random_spd(n, rng);
          const linalg::Matrix m1 =
              w1 > 0.0 ? random_spd(n, rng) : linalg::Matrix();
          auto systems = random_systems(used, n, x, rng);
          for (SystemTerms& st : systems) {
            if (rank1s < 2) st.c2 = 0.0;
            if (rank1s < 1) st.c3 = 0.0;
            st.t = linalg::Matrix();
          }
          const std::vector<double> tile =
              build_union_tile(seed, x, w1, m1, systems, rank1s);
          for (std::size_t lane = 0; lane < kLanes; ++lane) {
            const linalg::Matrix q =
                lane < used ? reference_q(seed, x, w1, m1, systems[lane])
                            : linalg::Matrix::identity(n);
            for (std::size_t a = 0; a < n; ++a) {
              for (std::size_t b = a; b < n; ++b) {
                EXPECT_EQ(bits(tile[(a * n + b) * kLanes + lane]),
                          bits(q(a, b)))
                    << "n=" << n << " used=" << used << " w1=" << w1
                    << " rank1s=" << rank1s << " lane=" << lane << " (" << a
                    << "," << b << ") level="
                    << linalg::kernels::active_level_name();
              }
            }
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
// Failed lanes inside the sweep.
// ---------------------------------------------------------------------------

TEST(LaneSweep, ForcedCholeskyFailuresReplayThePerSystemPath) {
  // Drive Cholesky failures through the sweep itself: lambda = 0, both
  // constraints off and two all-unobserved columns, whose Q = L^T L minus
  // every row's outer product is rounding noise, so their lane
  // factorisation fails in every sweep and replays through
  // solve_spd_into's bump and LU ladder.  At rank 3 those columns are the
  // only failures, though a 3 x 3 noise Q is positive definite by chance
  // in some sweeps (for every blank column at once: their Q are
  // bit-identical); at rank = links every Q is rank-deficient, most
  // systems also fail and recover through the diagonal bump, and every
  // blank column, and no other system, reaches LU in every sweep.  Layout
  // {8, 12} fills every tile at 1, 4 and 8 lanes (96 columns, 8 rows);
  // {7, 11} leaves a partial last R-update tile at 4 and 8 lanes (77
  // columns: 1 and 5 in the last tile), which holds one blank column, and
  // its 7 rows fill no L-update tile.
  struct Case {
    core::BandLayout layout;
    std::uint64_t seed;
    std::vector<std::size_t> blank_cols;
  };
  const Case cases[] = {{{8, 12}, 310, {5, 12}}, {{7, 11}, 316, {9, 76}}};
  for (const Case& c : cases) {
    // A realistic mask: whole bands blank out a common row pattern, plus
    // some per-column noise, then the blank columns.  P, a noisy copy of
    // the data, completes the warm start (Constraint 1 stays off).
    rng::Rng rng(c.seed);
    const std::size_t m = c.layout.links;
    const std::size_t n = c.layout.num_cells();
    const linalg::Matrix x_full = test::random_low_rank(m, n, 3, rng);
    core::RsvdProblem problem;
    problem.b = linalg::Matrix(m, n, 1.0);
    for (std::size_t j = 0; j < n; ++j) {
      problem.b(c.layout.band_of(j), j) = 0.0;
      if (rng.uniform() < 0.15) problem.b(rng.uniform_index(m), j) = 0.0;
    }
    problem.p = x_full;
    for (double& v : problem.p.data()) v += rng.normal(0.0, 0.01);
    for (const std::size_t j : c.blank_cols) {
      for (std::size_t i = 0; i < m; ++i) problem.b(i, j) = 0.0;
    }
    problem.x_b = problem.b.hadamard(x_full);
    for (const std::size_t rank : {std::size_t{3}, m}) {
      SCOPED_TRACE("links=" + std::to_string(m) +
                   " rank=" + std::to_string(rank));
      core::RsvdOptions options;
      options.max_iters = 6;
      options.lambda = 0.0;
      options.rank = rank;
      options.use_constraint1 = false;
      options.use_constraint2 = false;
      linalg::reset_spd_stats();
      const core::RsvdResult result =
          core::SelfAugmentedRsvd(c.layout, options).solve(problem);
      const linalg::SpdStats stats = linalg::spd_stats();
      // Every failing system ends in exactly one bump recovery or one LU
      // fallback, and only the blank columns reach LU, at most once per
      // sweep each.  Every blank column's Q is the same seed minus all m
      // rows' outer products in the same order, so in each sweep the
      // blank columns fail or pass together, and a failed lane the replay
      // skips leaves the LU count off a multiple of their number.
      const std::size_t blank_solves = c.blank_cols.size() * result.iterations;
      EXPECT_EQ(stats.cholesky_failures,
                stats.bump_recoveries + stats.lu_fallbacks);
      EXPECT_GT(stats.lu_fallbacks, 0u);
      EXPECT_EQ(stats.lu_fallbacks % c.blank_cols.size(), 0u);
      if (rank == 3) {
        EXPECT_LE(stats.lu_fallbacks, blank_solves);
        EXPECT_EQ(stats.bump_recoveries, 0u);
      } else {
        EXPECT_EQ(stats.lu_fallbacks, blank_solves);
        EXPECT_GT(stats.bump_recoveries, 0u);
      }
      const auto x = result.x_hat.data();
      EXPECT_TRUE(std::all_of(x.begin(), x.end(),
                              [](double v) { return std::isfinite(v); }));
    }
  }
}

}  // namespace
}  // namespace iup
