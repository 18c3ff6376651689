// The SIMD micro-kernel layer (src/linalg/kernels/): scalar-vs-active
// level agreement over odd lengths, unaligned offsets and tail
// remainders, the packed-GEMM accumulation contract, and the exactness
// identities the dispatch header documents.
//
// In a scalar-level build (no IUP_ARCH) the active kernels ARE the scalar
// kernels and the comparisons are trivially exact; the AVX2 CI cell
// (-march=x86-64-v3) is where the cross-level tolerances do real work:
// element-wise kernels may differ from scalar by one FMA rounding per
// element, reductions by the two-lane accumulator reorder.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/kernels/gemm.hpp"
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
    // The packed GEMM runs its AVX2 block kernel at every SIMD level.
    EXPECT_TRUE(gemm_is_vectorized());
  } else if (active_level() == Level::kAvx2) {
    EXPECT_STREQ(active_level_name(), "avx2");
    EXPECT_TRUE(gemm_is_vectorized());
  } else {
    EXPECT_STREQ(active_level_name(), "scalar");
    EXPECT_FALSE(gemm_is_vectorized());
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

TEST(KernelGemm, AccumulatesAscendingKAtTheActiveLevel) {
  // Contract: every output element is a single accumulator fed ascending
  // k with the active level's element arithmetic — FMA at kAvx2, mul+add
  // at kScalar.  Exact comparison against that reference, odd shapes
  // covering full tiles, row/column remainders and k tails.
  rng::Rng rng(108);
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},   {4, 16, 8},
                                   {5, 17, 9},  {8, 32, 24}, {13, 19, 23},
                                   {16, 16, 96}, {33, 7, 65}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const auto a = random_vec(m * k, rng);
    const auto b = random_vec(k * n, rng);
    auto got = random_vec(m * n, rng);
    auto ref = got;
    gemm_accumulate(a.data(), k, b.data(), n, got.data(), n, m, k, n);
    const bool fma = active_level() != Level::kScalar;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = ref[i * n + j];
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc = fma ? std::fma(a[i * k + kk], b[kk * n + j], acc)
                    : acc + a[i * k + kk] * b[kk * n + j];
        }
        ref[i * n + j] = acc;
      }
    }
    EXPECT_EQ(got, ref) << m << "x" << k << "x" << n;
  }
}

TEST(KernelGemm, RespectsLeadingDimensions) {
  // Operate on an interior block of larger row-major buffers.
  rng::Rng rng(109);
  const std::size_t m = 6, k = 10, n = 9;
  const std::size_t lda = k + 3, ldb = n + 2, ldc = n + 5;
  const auto a = random_vec(m * lda, rng);
  const auto b = random_vec(k * ldb, rng);
  auto got = random_vec(m * ldc, rng);
  auto ref = got;
  gemm_accumulate(a.data(), lda, b.data(), ldb, got.data(), ldc, m, k, n);
  const bool fma = active_level() != Level::kScalar;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = ref[i * ldc + j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = fma ? std::fma(a[i * lda + kk], b[kk * ldb + j], acc)
                  : acc + a[i * lda + kk] * b[kk * ldb + j];
      }
      ref[i * ldc + j] = acc;
    }
  }
  EXPECT_EQ(got, ref);
  // Elements outside the written block are untouched.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = n; j < ldc; ++j) {
      SCOPED_TRACE(i);
      EXPECT_EQ(got[i * ldc + j], ref[i * ldc + j]);
    }
  }
}

TEST(KernelDotPanel, EveryColumnBitIdenticalToDot) {
  // The trsv_multi contract: out[c] must reproduce the active level's
  // dot() on a contiguous copy of panel column c, bit for bit — this is
  // what lets the multi-RHS SPD back substitution keep every RHS equal to
  // the historical single-column solve.  Cover sub-lane, lane-boundary
  // and tail lengths in BOTH dimensions plus padded leading dimensions.
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
        dot_panel(a.data(), panel.data(), ld, n, k, out.data());
        for (std::size_t c = 0; c < k; ++c) {
          std::vector<double> col(n);
          for (std::size_t p = 0; p < n; ++p) col[p] = panel[p * ld + c];
          EXPECT_EQ(out[c], dot(a.data(), col.data(), n))
              << "n=" << n << " k=" << k << " ld=" << ld << " c=" << c;
        }
      }
    }
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

TEST(KernelAxpySequence, BitIdenticalToRepeatedAxpy) {
  // The register-resident sequence must reproduce the level's axpy chain
  // per element, across the 8/16-wide register boundaries and the >16
  // fallback, with exact zero and negative-zero alphas and -0.0 entries in
  // the accumulator (0 * x added to -0.0 must leave +0.0 exactly as the
  // memory loop does).
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
        axpy(alpha[t], x[t], expect.data(), n);
      }
      axpy_sequence(alpha.data(), x.data(), count, y.data(), n);
      EXPECT_EQ(bits(y), bits(expect)) << "n=" << n << " count=" << count;
    }
  }
}

TEST(KernelAxpySequence, GramIntoMatchesRankOneLoop) {
  // gram_into's register rows against one rank-1 update of the upper
  // triangle per row of a (row-suffix axpys, zero pivots skipped), with
  // exact-zero pivots and widths on both sides of the register boundary.
  rng::Rng rng(114);
  for (const std::size_t n : {1ul, 3ul, 7ul, 8ul, 9ul, 12ul, 16ul, 17ul}) {
    for (const std::size_t rows : {1ul, 6ul, 40ul, 70ul}) {
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
