// The SIMD micro-kernel layer (src/linalg/kernels/): scalar-vs-active
// level agreement over odd lengths, unaligned offsets and tail
// remainders, and the exactness identities the dispatch header documents.
//
// In a scalar-level build (no IUP_ARCH) the active kernels ARE the scalar
// kernels and the comparisons are trivially exact; the AVX2 CI cell
// (-march=x86-64-v3) is where the cross-level tolerances do real work:
// element-wise kernels may differ from scalar by one FMA rounding per
// element, reductions by the two-lane accumulator reorder.
//
// The intra-level bit-identity contracts (dot_panel vs dot, axpy_sequence
// vs axpy, axpy_panel vs axpy_sequence, the lane factor + solve vs the
// per-system loop) are typed tests over every level the build compiles:
// the scalar level always, and an AVX-512 build checks the AVX2
// instantiation of the shared kernel bodies too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"
#include "test_util.hpp"

namespace iup::linalg::kernels {
namespace {

// Lengths straddling every vector-width boundary: sub-lane, one lane,
// lane+tail, the 8-wide unrolled body, and awkward primes.
const std::size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 11, 13,
                                16, 17, 23, 31, 32, 37, 64, 67};

// Offsets 0..3 shift the operands off 32-byte alignment in every way a
// row_span suffix can.
constexpr std::size_t kMaxOffset = 4;

std::vector<double> random_vec(std::size_t n, rng::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

TEST(KernelDispatch, LevelNameIsConsistent) {
  if (active_level() == Level::kAvx512) {
    EXPECT_STREQ(active_level_name(), "avx512");
  } else if (active_level() == Level::kAvx2) {
    EXPECT_STREQ(active_level_name(), "avx2");
  } else {
    EXPECT_STREQ(active_level_name(), "scalar");
  }
}

TEST(KernelDot, MatchesScalarWithinReductionTolerance) {
  rng::Rng rng(101);
  for (const std::size_t n : kLengths) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const auto a = random_vec(n + off, rng);
      const auto b = random_vec(n + off, rng);
      const double got = dot(a.data() + off, b.data() + off, n);
      const double ref = scalar::dot(a.data() + off, b.data() + off, n);
      const double tol =
          1e-15 * static_cast<double>(n) * (std::abs(ref) + 1.0);
      EXPECT_NEAR(got, ref, tol) << "n=" << n << " off=" << off;
    }
  }
}

TEST(KernelDot, ValueIndependentOfAlignment) {
  // The reduction tree depends only on the length — the same data at a
  // different offset must produce the same bits.
  rng::Rng rng(102);
  const std::size_t n = 37;
  const auto a = random_vec(n, rng);
  const auto b = random_vec(n, rng);
  const double base = dot(a.data(), b.data(), n);
  for (std::size_t off = 1; off < kMaxOffset; ++off) {
    std::vector<double> as(n + off), bs(n + off);
    std::copy(a.begin(), a.end(), as.begin() + off);
    std::copy(b.begin(), b.end(), bs.begin() + off);
    EXPECT_EQ(dot(as.data() + off, bs.data() + off, n), base) << off;
  }
}

TEST(KernelAxpy, MatchesScalarWithinOneFmaRounding) {
  rng::Rng rng(103);
  for (const std::size_t n : kLengths) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const auto x = random_vec(n + off, rng);
      auto got = random_vec(n + off, rng);
      auto ref = got;
      axpy(0.73, x.data() + off, got.data() + off, n);
      scalar::axpy(0.73, x.data() + off, ref.data() + off, n);
      for (std::size_t i = 0; i < n + off; ++i) {
        EXPECT_NEAR(got[i], ref[i], 1e-14 * (std::abs(ref[i]) + 1.0))
            << "n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST(KernelAxpy, PositionIndependentPerElement) {
  // Splitting a row into tile segments must not change any element: the
  // same (alpha, x, y) triple produces the same bits in a lane or a tail.
  rng::Rng rng(104);
  const std::size_t n = 29;
  const auto x = random_vec(n, rng);
  const auto y0 = random_vec(n, rng);
  auto whole = y0;
  axpy(-1.37, x.data(), whole.data(), n);
  for (const std::size_t split : {1ul, 4ul, 5ul, 13ul, 28ul}) {
    auto parts = y0;
    axpy(-1.37, x.data(), parts.data(), split);
    axpy(-1.37, x.data() + split, parts.data() + split, n - split);
    EXPECT_EQ(parts, whole) << "split=" << split;
  }
}

TEST(KernelAxpy2, MatchesTwoAxpysWithinRounding) {
  rng::Rng rng(105);
  for (const std::size_t n : kLengths) {
    const auto x = random_vec(n, rng);
    const auto y = random_vec(n, rng);
    auto got = random_vec(n, rng);
    auto ref = got;
    axpy2(0.31, x.data(), -1.7, y.data(), got.data(), n);
    scalar::axpy2(0.31, x.data(), -1.7, y.data(), ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], ref[i], 2e-14 * (std::abs(ref[i]) + 1.0))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelNorms, ReductionsMatchScalarAndShareTreeShape) {
  rng::Rng rng(106);
  for (const std::size_t n : kLengths) {
    const auto x = random_vec(n, rng);
    const auto y = random_vec(n, rng);
    std::vector<double> mask(n);
    for (double& v : mask) v = rng.uniform() < 0.5 ? 1.0 : 0.0;

    const double tol = 1e-14 * static_cast<double>(n);
    EXPECT_NEAR(norm_sq(x.data(), n), scalar::norm_sq(x.data(), n),
                tol * (scalar::norm_sq(x.data(), n) + 1.0));
    EXPECT_NEAR(diff_norm_sq(x.data(), y.data(), n),
                scalar::diff_norm_sq(x.data(), y.data(), n),
                tol * (scalar::diff_norm_sq(x.data(), y.data(), n) + 1.0));
    EXPECT_NEAR(
        masked_diff_norm_sq(mask.data(), x.data(), y.data(), n),
        scalar::masked_diff_norm_sq(mask.data(), x.data(), y.data(), n),
        tol *
            (scalar::masked_diff_norm_sq(mask.data(), x.data(), y.data(), n) +
             1.0));

    // Shared-tree identity (exact at every level): diff_norm_sq(x, y)
    // == norm_sq of the materialised difference.
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) d[i] = x[i] - y[i];
    EXPECT_EQ(diff_norm_sq(x.data(), y.data(), n), norm_sq(d.data(), n));
    // And the masked form == diff form on the pre-masked operand.
    std::vector<double> mx(n);
    for (std::size_t i = 0; i < n; ++i) mx[i] = mask[i] * x[i];
    EXPECT_EQ(masked_diff_norm_sq(mask.data(), x.data(), y.data(), n),
              diff_norm_sq(mx.data(), y.data(), n));
  }
}

TEST(KernelDotPanel, ScalarLevelMatchesScalarDot) {
  // The always-available reference level obeys the same contract.
  rng::Rng rng(112);
  const std::size_t n = 13, k = 6;
  const auto a = random_vec(n, rng);
  const auto panel = random_vec(n * k, rng);
  std::vector<double> out(k);
  scalar::dot_panel(a.data(), panel.data(), k, n, k, out.data());
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<double> col(n);
    for (std::size_t p = 0; p < n; ++p) col[p] = panel[p * k + c];
    EXPECT_EQ(out[c], scalar::dot(a.data(), col.data(), n)) << c;
  }
}

TEST(KernelContract, ZeroSkipIsExactOnFiniteData) {
  // The documented claim behind every pivot zero-skip: adding 0.0 * v
  // contributions cannot change a finite accumulation.
  rng::Rng rng(110);
  const std::size_t n = 24;
  const auto x = random_vec(n, rng);
  auto with = random_vec(n, rng);
  const auto without = with;
  axpy(0.0, x.data(), with.data(), n);
  EXPECT_EQ(with, without);
}

/// Bit patterns, so that -0.0 vs +0.0 counts as a difference.
std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::bit_cast<std::uint64_t>(v[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Intra-level contracts, checked at every level this build compiles.
// ---------------------------------------------------------------------------

// One level's kernels under a type, so each typed test below runs once per
// checked level.
#define IUP_KERNEL_LEVEL(NS)                                          \
  struct NS##_level {                                                 \
    static constexpr const char* kName = #NS;                         \
    static constexpr std::size_t kLanes = NS::kSpdLanes;              \
    static constexpr auto dot = &NS::dot;                             \
    static constexpr auto axpy = &NS::axpy;                           \
    static constexpr auto dot_panel = &NS::dot_panel;                 \
    static constexpr auto axpy_sequence = &NS::axpy_sequence;         \
    static constexpr auto axpy_panel = &NS::axpy_panel;               \
    static constexpr auto gram_upper = &NS::gram_upper;               \
    static constexpr auto spd_factor_lanes = &NS::spd_factor_lanes;   \
    static constexpr auto spd_solve_lanes = &NS::spd_solve_lanes;     \
  }
IUP_KERNEL_LEVEL(scalar);
#if defined(IUP_KERNELS_AVX512)
IUP_KERNEL_LEVEL(avx2);
IUP_KERNEL_LEVEL(avx512);
using CheckedLevels = ::testing::Types<scalar_level, avx2_level, avx512_level>;
#elif defined(IUP_KERNELS_AVX2)
IUP_KERNEL_LEVEL(avx2);
using CheckedLevels = ::testing::Types<scalar_level, avx2_level>;
#else
using CheckedLevels = ::testing::Types<scalar_level>;
#endif
#undef IUP_KERNEL_LEVEL

struct LevelName {
  template <class K>
  static std::string GetName(int) {
    return K::kName;
  }
};

template <class K>
class KernelDotPanel : public ::testing::Test {};
TYPED_TEST_SUITE(KernelDotPanel, CheckedLevels, LevelName);

TYPED_TEST(KernelDotPanel, EveryColumnBitIdenticalToDot) {
  // The trsv_multi contract: out[c] must reproduce the level's dot() on a
  // contiguous copy of panel column c, bit for bit — this is what lets
  // the multi-RHS SPD back substitution keep every RHS equal to the
  // historical single-column solve.  Cover sub-lane, lane-boundary and
  // tail lengths in BOTH dimensions plus padded leading dimensions.
  using K = TypeParam;
  rng::Rng rng(111);
  for (const std::size_t n : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul,
                              12ul, 15ul, 16ul, 17ul, 31ul, 37ul}) {
    for (const std::size_t k : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul,
                                11ul, 16ul, 19ul}) {
      for (const std::size_t pad : {0ul, 3ul}) {
        const std::size_t ld = k + pad;
        const auto a = random_vec(n, rng);
        const auto panel = random_vec(n * ld + 1, rng);
        std::vector<double> out(k, -1.0);
        K::dot_panel(a.data(), panel.data(), ld, n, k, out.data());
        for (std::size_t c = 0; c < k; ++c) {
          std::vector<double> col(n);
          for (std::size_t p = 0; p < n; ++p) col[p] = panel[p * ld + c];
          EXPECT_EQ(out[c], K::dot(a.data(), col.data(), n))
              << "n=" << n << " k=" << k << " ld=" << ld << " c=" << c;
        }
      }
    }
  }
}

template <class K>
class KernelAxpySequence : public ::testing::Test {};
TYPED_TEST_SUITE(KernelAxpySequence, CheckedLevels, LevelName);

TYPED_TEST(KernelAxpySequence, BitIdenticalToRepeatedAxpy) {
  // The register-resident sequence must reproduce the level's axpy chain
  // per element, across the 4/8/16-wide register boundaries and the >16
  // fallback, with exact zero and negative-zero alphas and -0.0 entries in
  // the accumulator (0 * x added to -0.0 must leave +0.0 exactly as the
  // memory loop does).
  using K = TypeParam;
  rng::Rng rng(113);
  for (std::size_t n = 1; n <= 20; ++n) {
    for (const std::size_t count : {0ul, 1ul, 2ul, 5ul, 9ul}) {
      std::vector<double> alpha(count);
      std::vector<std::vector<double>> xs(count);
      std::vector<const double*> x(count);
      for (std::size_t t = 0; t < count; ++t) {
        alpha[t] = t % 4 == 1 ? 0.0 : t % 4 == 3 ? -0.0 : rng.normal();
        xs[t] = random_vec(n, rng);
        x[t] = xs[t].data();
      }
      auto y = random_vec(n, rng);
      for (std::size_t i = 0; i < n; i += 3) y[i] = -0.0;
      auto expect = y;
      for (std::size_t t = 0; t < count; ++t) {
        K::axpy(alpha[t], x[t], expect.data(), n);
      }
      K::axpy_sequence(alpha.data(), x.data(), count, y.data(), n);
      EXPECT_EQ(bits(y), bits(expect)) << "n=" << n << " count=" << count;
    }
  }
}

template <class K>
class KernelAxpyPanel : public ::testing::Test {};
TYPED_TEST_SUITE(KernelAxpyPanel, CheckedLevels, LevelName);

TYPED_TEST(KernelAxpyPanel, EveryRowBitIdenticalToAxpySequence) {
  // Each panel row against axpy_sequence over the same term list, across
  // the register-block widths (1..17 and the >16 fallback at 24), partial
  // row blocks (rows 1..9), an empty term list, exact zero and -0.0
  // coefficients, and +0.0 / -0.0 accumulator entries.  Padded leading
  // dimensions catch a kernel that assumes packed rows.
  using K = TypeParam;
  rng::Rng rng(115);
  std::vector<std::size_t> widths;
  for (std::size_t n = 1; n <= 17; ++n) widths.push_back(n);
  widths.push_back(24);
  for (const std::size_t n : widths) {
    for (std::size_t rows = 1; rows <= 9; ++rows) {
      for (const std::size_t count : {0ul, 1ul, 3ul, 10ul}) {
        const std::size_t ldc = count + 2;
        const std::size_t ldy = n + 3;
        std::vector<double> coef(rows * ldc);
        for (std::size_t i = 0; i < coef.size(); ++i) {
          coef[i] = i % 5 == 1 ? 0.0 : i % 5 == 3 ? -0.0 : rng.normal();
        }
        std::vector<std::vector<double>> xs(count);
        std::vector<const double*> x(count);
        for (std::size_t t = 0; t < count; ++t) {
          xs[t] = random_vec(n, rng);
          x[t] = xs[t].data();
        }
        auto y = random_vec(rows * ldy, rng);
        for (std::size_t i = 0; i < y.size(); i += 4) y[i] = 0.0;
        for (std::size_t i = 2; i < y.size(); i += 4) y[i] = -0.0;
        auto expect = y;
        for (std::size_t c = 0; c < rows; ++c) {
          K::axpy_sequence(coef.data() + c * ldc, x.data(), count,
                           expect.data() + c * ldy, n);
        }
        K::axpy_panel(coef.data(), ldc, rows, x.data(), count, y.data(), ldy,
                      n);
        EXPECT_EQ(bits(y), bits(expect))
            << "n=" << n << " rows=" << rows << " count=" << count;
      }
    }
  }
}

template <class K>
class KernelGramUpper : public ::testing::Test {};
TYPED_TEST_SUITE(KernelGramUpper, CheckedLevels, LevelName);

TYPED_TEST(KernelGramUpper, BitIdenticalToTheRowAtATimeBuild) {
  // The register-blocked Gram build against gram_into's row-at-a-time
  // build at the same level (one axpy_sequence per upper-triangle row from
  // upper_row_start, zero pivots skipped) over widths 1..17, every row
  // count 0..130 and exact-zero and -0.0 pivots.  The vector levels build
  // every width up to 16 and decline 17; the scalar level declines all.
  using K = TypeParam;
  const bool vector_level = std::string(K::kName) != "scalar";
  rng::Rng rng(117);
  for (std::size_t n = 1; n <= 17; ++n) {
    for (std::size_t rows = 0; rows <= 130; ++rows) {
      Matrix a = test::random_matrix(rows, n, rng);
      for (std::size_t i = 0; i < rows; i += 3) {
        a(i, (i / 3) % n) = i % 2 == 0 ? 0.0 : -0.0;
      }
      std::vector<double> expect(n * n, 0.0);
      std::vector<double> alpha;
      std::vector<const double*> x;
      for (std::size_t p = 0; p < n; ++p) {
        const std::size_t s = upper_row_start(p, n);
        alpha.clear();
        x.clear();
        for (std::size_t i = 0; i < rows; ++i) {
          const double* ai = a.row_span(i).data();
          if (ai[p] == 0.0) continue;
          alpha.push_back(ai[p]);
          x.push_back(ai + s);
        }
        K::axpy_sequence(alpha.data(), x.data(), alpha.size(),
                         expect.data() + p * n + s, n - s);
      }
      std::vector<double> got(n * n, -7.0);
      const bool built = K::gram_upper(a.data().data(), rows, n, got.data());
      ASSERT_EQ(built, vector_level && n <= 16) << "n=" << n;
      if (!built) {
        EXPECT_EQ(got, std::vector<double>(n * n, -7.0)) << "n=" << n;
        continue;
      }
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = p; q < n; ++q) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[p * n + q]),
                    std::bit_cast<std::uint64_t>(expect[p * n + q]))
              << "n=" << n << " rows=" << rows << " (" << p << "," << q
              << ")";
        }
      }
    }
  }
}

/// cholesky_upper_in_place + solve_factored_spd on one row-major n x n
/// system, written with level K's own axpy and dot; false where the
/// factorisation fails.
template <class K>
bool factor_solve_per_system(std::vector<double>& q, std::vector<double>& x,
                             std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double* row_j = q.data() + j * n;
    const double diag = row_j[j];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double rjj = std::sqrt(diag);
    row_j[j] = rjj;
    for (std::size_t k = j + 1; k < n; ++k) row_j[k] /= rjj;
    for (std::size_t i = j + 1; i < n; ++i) {
      K::axpy(-row_j[i], row_j + i, q.data() + i * n + i, n - i);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double* row_j = q.data() + j * n;
    const double yj = x[j] / row_j[j];
    x[j] = yj;
    if (j + 1 < n) K::axpy(-yj, row_j + j + 1, x.data() + j + 1, n - j - 1);
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* row_i = q.data() + i * n;
    const double acc =
        x[i] - K::dot(row_i + i + 1, x.data() + i + 1, n - i - 1);
    x[i] = acc / row_i[i];
  }
  return true;
}

template <class K>
class KernelSpdLanes : public ::testing::Test {};
TYPED_TEST_SUITE(KernelSpdLanes, CheckedLevels, LevelName);

TYPED_TEST(KernelSpdLanes, EveryLaneBitIdenticalToThePerSystemLoop) {
  // Every lane of the lane factor + solve against the per-system loop at
  // the same level: the same factor bits, the same solution bits, and a
  // failure bit exactly where the loop fails.  System 1 is indefinite, so
  // one lane of the first tile fails (one whole tile at one lane per
  // tile); signed zeros in the right-hand sides check the exact negation.
  using K = TypeParam;
  constexpr std::size_t w = K::kLanes;
  const std::size_t systems = std::max<std::size_t>(w, 3);
  rng::Rng rng(116);
  for (std::size_t n = 1; n <= 20; ++n) {
    for (std::size_t first = 0; first < systems; first += w) {
      std::vector<std::vector<double>> qs(w), xs(w);
      std::vector<double> tile(n * n * w), rhs(n * w);
      for (std::size_t lane = 0; lane < w; ++lane) {
        const Matrix g = test::random_matrix(n + 2, n, rng);
        Matrix q = g.gram();
        for (std::size_t a = 0; a < n; ++a) q(a, a) += 1.0;
        if (first + lane == 1) q(n - 1, n - 1) = -1.0;
        qs[lane].assign(q.data().begin(), q.data().end());
        xs[lane] = random_vec(n, rng);
        xs[lane][lane % n] = lane % 2 == 0 ? 0.0 : -0.0;
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = a; b < n; ++b) {
            tile[(a * n + b) * w + lane] = q(a, b);
          }
          rhs[a * w + lane] = xs[lane][a];
        }
      }
      const unsigned failed = K::spd_factor_lanes(tile.data(), n);
      K::spd_solve_lanes(tile.data(), rhs.data(), n);
      for (std::size_t lane = 0; lane < w; ++lane) {
        const bool ok = factor_solve_per_system<K>(qs[lane], xs[lane], n);
        EXPECT_EQ((failed >> lane) & 1u, ok ? 0u : 1u)
            << "n=" << n << " system=" << first + lane;
        if (!ok) continue;
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = a; b < n; ++b) {
            const double got = tile[(a * n + b) * w + lane];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(qs[lane][a * n + b]))
                << "n=" << n << " system=" << first + lane << " (" << a
                << "," << b << ")";
          }
          EXPECT_EQ(std::bit_cast<std::uint64_t>(rhs[a * w + lane]),
                    std::bit_cast<std::uint64_t>(xs[lane][a]))
              << "n=" << n << " system=" << first + lane << " x[" << a << "]";
        }
      }
    }
  }
}

TEST(KernelAxpySequence, GramIntoMatchesRankOneLoop) {
  // gram_into's register rows against one rank-1 update of the upper
  // triangle per row of a (row-suffix axpys, zero pivots skipped), with
  // exact-zero pivots and widths on both sides of the register boundary.
  rng::Rng rng(114);
  for (std::size_t n = 1; n <= 17; ++n) {
    for (const std::size_t rows : {0ul, 1ul, 6ul, 40ul, 70ul, 130ul}) {
      Matrix a = test::random_matrix(rows, n, rng);
      for (std::size_t i = 0; i < rows; i += 4) a(i, (i / 4) % n) = 0.0;
      Matrix expect(n, n, 0.0);
      for (std::size_t i = 0; i < rows; ++i) {
        const double* ai = a.row_span(i).data();
        for (std::size_t p = 0; p < n; ++p) {
          if (ai[p] == 0.0) continue;
          axpy(ai[p], ai + p, expect.row_span(p).data() + p, n - p);
        }
      }
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = 0; q < p; ++q) expect(p, q) = expect(q, p);
      }
      Matrix got;
      gram_into(a, got);
      EXPECT_EQ(got, expect) << "n=" << n << " rows=" << rows;
    }
  }
}

}  // namespace
}  // namespace iup::linalg::kernels
