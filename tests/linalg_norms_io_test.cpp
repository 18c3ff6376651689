#include <gtest/gtest.h>

#include "linalg/norms.hpp"
#include "test_util.hpp"

namespace iup::linalg {
namespace {

TEST(Norms, FrobeniusKnown) {
  const Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(frobenius_norm_sq(a), 25.0);
}

TEST(Norms, NuclearEqualsSingularValueSum) {
  const Matrix a = Matrix::diag({2.0, 3.0, 0.0});
  EXPECT_NEAR(nuclear_norm(a), 5.0, 1e-10);
}

TEST(Norms, SpectralIsLargestSingularValue) {
  const Matrix a = Matrix::diag({2.0, 7.0});
  EXPECT_NEAR(spectral_norm(a), 7.0, 1e-10);
}

TEST(Norms, L21SumsColumnNorms) {
  const Matrix a{{3.0, 0.0}, {4.0, 2.0}};
  EXPECT_DOUBLE_EQ(l21_norm(a), 5.0 + 2.0);
}

TEST(Norms, NormInequalities) {
  rng::Rng rng(31);
  const Matrix a = iup::test::random_matrix(5, 7, rng);
  EXPECT_LE(spectral_norm(a), frobenius_norm(a) + 1e-9);
  EXPECT_LE(frobenius_norm(a), nuclear_norm(a) + 1e-9);
}

TEST(Norms, RelativeError) {
  const Matrix a{{2.0}};
  const Matrix b{{1.0}};
  EXPECT_DOUBLE_EQ(relative_error(a, b), 1.0);
  EXPECT_DOUBLE_EQ(relative_error(b, b), 0.0);
}

}  // namespace
}  // namespace iup::linalg
