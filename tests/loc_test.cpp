// The OMP localizer.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/qr.hpp"
#include "linalg/vec.hpp"
#include "loc/omp.hpp"
#include "test_util.hpp"

namespace iup::loc {
namespace {

TEST(Omp, RecoversExactAtoms) {
  const auto& run = iup::test::office_run();
  const auto& x = run.ground_truth.at_day(0);
  const OmpLocalizer omp(x, {});
  for (std::size_t j = 0; j < x.cols(); j += 7) {
    EXPECT_EQ(omp.localize(x.col(j)).cell, j) << "column " << j;
  }
}

TEST(Omp, MeasurementLengthMismatchThrows) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const OmpLocalizer omp(x, {});
  EXPECT_THROW((void)omp.localize(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Omp, EmptyDatabaseThrows) {
  EXPECT_THROW(OmpLocalizer(linalg::Matrix{}, {}), std::invalid_argument);
}

TEST(Omp, BaselineLengthMismatchThrows) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  EXPECT_THROW(OmpLocalizer(x, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Omp, NoisyMeasurementsMostlyNearTruth) {
  const auto& run = iup::test::office_run();
  const auto& x = run.ground_truth.at_day(0);
  const OmpLocalizer omp(x, {});
  sim::Sampler sampler(run.testbed, "omp-test");
  double total_err = 0.0;
  const std::size_t n = run.testbed.num_cells();
  for (std::size_t j = 0; j < n; ++j) {
    const auto y = sampler.online_measurement(j, 0, 5);
    total_err += cell_distance_m(run.testbed.deployment(), j,
                                 omp.localize(y).cell);
  }
  EXPECT_LT(total_err / static_cast<double>(n), 2.5);  // mean error bound
}

TEST(Omp, SparseSolveFindsPlantedTwoTargetSupport) {
  // Multi-target extension: y = atom_a + atom_b should put both cells in
  // the OMP support.
  const auto& run = iup::test::office_run();
  const auto& x = run.ground_truth.at_day(0);
  OmpOptions opt;
  opt.max_atoms = 4;
  opt.subtract_baseline = true;
  const OmpLocalizer omp(x, {}, opt);
  const std::size_t a = 5, b = 60;  // targets in different bands
  // Combined perturbation: sum of the two baseline-subtracted columns.
  std::vector<double> y(x.rows());
  const auto& base = omp.baselines();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = base[i] + (x(i, a) - base[i]) + (x(i, b) - base[i]);
  }
  const auto sol = omp.solve(y);
  // Fingerprint atoms within a band are strongly correlated (spatially
  // smooth multipath), so superposed targets lose within-band resolution;
  // what multi-target OMP reliably delivers is (i) detection of both
  // affected links and (ii) an accurate fix for at least one target.
  const auto& dep = run.testbed.deployment();
  const auto band_found = [&](std::size_t target) {
    for (std::size_t s : sol.support) {
      if (dep.band_of(s) == dep.band_of(target)) return true;
    }
    return false;
  };
  const auto best_distance = [&](std::size_t target) {
    double best = 1e9;
    for (std::size_t s : sol.support) {
      best = std::min(best, cell_distance_m(dep, s, target));
    }
    return best;
  };
  EXPECT_TRUE(band_found(a));
  EXPECT_TRUE(band_found(b));
  EXPECT_LT(std::min(best_distance(a), best_distance(b)), 1.25);
}

TEST(Omp, RawDomainVariantWorksOnExactColumns) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  OmpOptions opt;
  opt.subtract_baseline = false;
  const OmpLocalizer omp(x, {}, opt);
  // Raw-domain matching is weaker but must still recover exact columns.
  std::size_t hits = 0;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    if (omp.localize(x.col(j)).cell == j) ++hits;
  }
  EXPECT_GT(hits, x.cols() / 2);
}

TEST(Omp, ResidualThresholdStopsAtomSelection) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  OmpOptions opt;
  opt.max_atoms = 5;
  opt.residual_xi = 1.0;  // ||r||^2 < ||y||^2 immediately after one atom
  const OmpLocalizer omp(x, {}, opt);
  const auto sol = omp.solve(x.col(10));
  EXPECT_EQ(sol.support.size(), 1u);
}

// The OMP match written the straightforward way: a column copy + dot per
// greedy candidate, then select_columns, least_squares, operator* and sub
// per refit, over matching-domain atoms built exactly as the constructor
// builds them.  OmpLocalizer::solve scores through dot_panel and refits in
// a QrWorkspace; it must reproduce this reference bit for bit.
class ReferenceOmp {
 public:
  ReferenceOmp(const linalg::Matrix& database, std::vector<double> baselines,
               OmpOptions options)
      : atoms_(database), baselines_(std::move(baselines)), options_(options) {
    if (options_.subtract_baseline) {
      for (std::size_t i = 0; i < atoms_.rows(); ++i) {
        for (std::size_t j = 0; j < atoms_.cols(); ++j) {
          atoms_(i, j) -= baselines_[i];
        }
      }
    }
    if (options_.remove_common_mode) {
      for (std::size_t j = 0; j < atoms_.cols(); ++j) {
        double mean = 0.0;
        for (std::size_t i = 0; i < atoms_.rows(); ++i) mean += atoms_(i, j);
        mean /= static_cast<double>(atoms_.rows());
        for (std::size_t i = 0; i < atoms_.rows(); ++i) atoms_(i, j) -= mean;
      }
    }
    dictionary_ = atoms_;
    for (std::size_t j = 0; j < dictionary_.cols(); ++j) {
      const double n = linalg::norm2(dictionary_.col(j));
      if (n > 0.0) {
        for (std::size_t i = 0; i < dictionary_.rows(); ++i) {
          dictionary_(i, j) /= n;
        }
      }
    }
  }

  OmpLocalizer::SparseSolution solve(std::span<const double> measurement)
      const {
    std::vector<double> y(measurement.begin(), measurement.end());
    if (options_.subtract_baseline) {
      for (std::size_t i = 0; i < y.size(); ++i) y[i] -= baselines_[i];
    }
    if (options_.remove_common_mode) {
      const double mean = linalg::mean(y);
      for (double& v : y) v -= mean;
    }
    OmpLocalizer::SparseSolution sol;
    std::vector<double> residual = y;
    const double y_norm_sq = std::max(linalg::dot(y, y), 1e-300);
    std::vector<bool> used(dictionary_.cols(), false);
    for (std::size_t k = 0; k < options_.max_atoms; ++k) {
      std::size_t best = 0;
      double best_corr = -1.0;
      for (std::size_t j = 0; j < dictionary_.cols(); ++j) {
        if (used[j]) continue;
        const double corr =
            std::abs(linalg::dot(residual, dictionary_.col(j)));
        if (corr > best_corr) {
          best_corr = corr;
          best = j;
        }
      }
      if (best_corr <= 0.0) break;
      used[best] = true;
      sol.support.push_back(best);
      const linalg::Matrix sub = atoms_.select_columns(sol.support);
      sol.coefficients = linalg::least_squares(sub, y);
      const auto fitted = sub * std::span<const double>(sol.coefficients);
      residual = linalg::sub(y, fitted);
      const double res_sq = linalg::dot(residual, residual);
      sol.residual_norm = std::sqrt(res_sq);
      if (res_sq < options_.residual_xi * y_norm_sq) break;
    }
    return sol;
  }

 private:
  linalg::Matrix atoms_;
  linalg::Matrix dictionary_;
  std::vector<double> baselines_;
  OmpOptions options_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// solve() and localize() against the reference on one measurement; returns
// the reference support size so callers can check which paths they ran.
std::size_t expect_matches_reference(const OmpLocalizer& omp,
                                     const ReferenceOmp& reference,
                                     std::span<const double> y,
                                     const std::string& what) {
  const auto want = reference.solve(y);
  const auto got = omp.solve(y);
  EXPECT_EQ(got.support, want.support) << what;
  EXPECT_EQ(got.coefficients.size(), want.coefficients.size()) << what;
  for (std::size_t t = 0;
       t < std::min(got.coefficients.size(), want.coefficients.size()); ++t) {
    EXPECT_TRUE(same_bits(got.coefficients[t], want.coefficients[t]))
        << what << ": coefficient " << t << " " << got.coefficients[t]
        << " vs " << want.coefficients[t];
  }
  EXPECT_TRUE(same_bits(got.residual_norm, want.residual_norm))
      << what << ": residual " << got.residual_norm << " vs "
      << want.residual_norm;
  const LocalizationEstimate est = omp.localize(y);
  const std::size_t want_cell =
      want.support.empty() ? 0 : want.support.front();
  const double want_score = want.support.empty()
                                ? std::numeric_limits<double>::infinity()
                                : want.residual_norm;
  EXPECT_EQ(est.cell, want_cell) << what;
  EXPECT_TRUE(same_bits(est.score, want_score)) << what;
  return want.support.size();
}

const eval::EnvironmentRun& mixed_radio_run() {
  static const eval::EnvironmentRun run(sim::make_mixed_radio_testbed());
  return run;
}

// Noisy 3-sample queries for every cell at several days, against the
// registration database of each testbed — the served path's input.
TEST(OmpReference, NoisyQueriesMatchOnEveryTestbed) {
  const std::pair<const char*, const eval::EnvironmentRun*> runs[] = {
      {"office", &iup::test::office_run()},
      {"library", &iup::test::library_run()},
      {"hall", &iup::test::hall_run()},
      {"mixed", &mixed_radio_run()}};
  for (const auto& [name, run] : runs) {
    const auto& x = run->ground_truth.at_day(0);
    const OmpLocalizer omp(x, {});
    const ReferenceOmp reference(x, omp.baselines(), {});
    sim::Sampler sampler(run->testbed, std::string("omp-reference-") + name);
    std::size_t full_runs = 0;
    for (const std::size_t day : {0, 15, 45, 90}) {
      for (std::size_t j = 0; j < x.cols(); ++j) {
        const auto y = sampler.online_measurement(j, day, 3);
        const std::string what = std::string(name) + " day " +
                                 std::to_string(day) + " cell " +
                                 std::to_string(j);
        if (expect_matches_reference(omp, reference, y, what) == 3) {
          ++full_runs;
        }
      }
    }
    EXPECT_GT(full_runs, 0u) << name << ": no query ran all three atoms";
  }
}

// Every option path: exact columns (one atom, then the residual stop),
// the raw domain, common-mode removal, each sparsity budget and the
// immediate residual stop.
TEST(OmpReference, OptionVariantsMatch) {
  const auto& run = iup::test::office_run();
  const auto& x = run.ground_truth.at_day(0);
  std::vector<std::pair<std::string, OmpOptions>> variants;
  variants.emplace_back("default", OmpOptions{});
  variants.emplace_back("raw domain", OmpOptions{.subtract_baseline = false});
  variants.emplace_back("common mode",
                        OmpOptions{.remove_common_mode = true});
  for (std::size_t atoms = 1; atoms <= 5; ++atoms) {
    variants.emplace_back("max_atoms " + std::to_string(atoms),
                          OmpOptions{.max_atoms = atoms});
  }
  variants.emplace_back("residual_xi 1",
                        OmpOptions{.max_atoms = 5, .residual_xi = 1.0});
  sim::Sampler sampler(run.testbed, "omp-reference-options");
  for (const auto& [name, options] : variants) {
    const OmpLocalizer omp(x, {}, options);
    const ReferenceOmp reference(x, omp.baselines(), options);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const auto exact = x.col(j);
      const std::size_t exact_atoms = expect_matches_reference(
          omp, reference, exact, name + " exact column " + std::to_string(j));
      if (options.subtract_baseline && !options.remove_common_mode) {
        EXPECT_EQ(exact_atoms, 1u) << name << " exact column " << j;
      }
      expect_matches_reference(omp, reference,
                               sampler.online_measurement(j, 45, 3),
                               name + " noisy cell " + std::to_string(j));
    }
  }
}

// A duplicated column ties the greedy step; the lowest index must win on
// both paths.
TEST(OmpReference, DuplicatedColumnTieKeepsLowestIndex) {
  const auto& run = iup::test::office_run();
  linalg::Matrix x = run.ground_truth.at_day(0);
  const std::size_t original = 12, duplicate = 40;
  x.set_col(duplicate, x.col(original));
  const OmpLocalizer omp(x, {});
  const ReferenceOmp reference(x, omp.baselines(), {});
  expect_matches_reference(omp, reference, x.col(original), "exact tie");
  EXPECT_EQ(omp.localize(x.col(duplicate)).cell, original);
  sim::Sampler sampler(run.testbed, "omp-reference-tie");
  for (const std::size_t day : {0, 45}) {
    expect_matches_reference(omp, reference,
                             sampler.online_measurement(original, day, 3),
                             "noisy tie day " + std::to_string(day));
  }
}

// A measurement equal to the baselines has no perturbation: the support
// stays empty, and localize reports cell 0 with an infinite score.
TEST(OmpReference, BaselineMeasurementGivesEmptySupport) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const OmpLocalizer omp(x, {});
  const ReferenceOmp reference(x, omp.baselines(), {});
  EXPECT_EQ(expect_matches_reference(omp, reference, omp.baselines(),
                                     "baseline measurement"),
            0u);
  const LocalizationEstimate est = omp.localize(omp.baselines());
  EXPECT_EQ(est.cell, 0u);
  EXPECT_EQ(est.score, std::numeric_limits<double>::infinity());
}

TEST(Localizer, CellDistance) {
  const auto& dep = iup::test::office_run().testbed.deployment();
  EXPECT_DOUBLE_EQ(cell_distance_m(dep, 3, 3), 0.0);
  EXPECT_NEAR(cell_distance_m(dep, 0, 1), 0.6, 1e-12);  // adjacent slots
}

}  // namespace
}  // namespace iup::loc
