// CDF, metrics, labor sweep, report rendering, experiment scaffolding.
#include <gtest/gtest.h>

#include "eval/cdf.hpp"
#include "eval/experiment.hpp"
#include "eval/labor.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "test_util.hpp"

namespace iup::eval {
namespace {

TEST(Cdf, PercentilesOfKnownSamples) {
  const EmpiricalCdf cdf({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(cdf.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
}

TEST(Cdf, InterpolatesBetweenSamples) {
  const EmpiricalCdf cdf({0.0, 1.0});
  EXPECT_DOUBLE_EQ(cdf.percentile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.percentile(0.75), 0.75);
}

TEST(Cdf, FractionAtOrBelow) {
  const EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(4.0), 1.0);
}

TEST(Cdf, InvalidInputsThrow) {
  EXPECT_THROW(EmpiricalCdf({}), std::invalid_argument);
  const EmpiricalCdf cdf({1.0});
  EXPECT_THROW((void)cdf.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)cdf.percentile(1.1), std::invalid_argument);
}

TEST(Cdf, RenderContainsQuantiles) {
  const EmpiricalCdf cdf({1.0, 2.0, 3.0});
  const std::string s = cdf.render(3, "m");
  EXPECT_NE(s.find("CDF 0.000"), std::string::npos);
  EXPECT_NE(s.find("CDF 1.000"), std::string::npos);
  EXPECT_NE(s.find(" m"), std::string::npos);
}

TEST(Metrics, ReconstructionErrorsRespectMask) {
  const linalg::Matrix truth{{1.0, 2.0}, {3.0, 4.0}};
  const linalg::Matrix hat{{1.5, 2.0}, {3.0, 6.0}};
  const linalg::Matrix mask{{0.0, 1.0}, {1.0, 0.0}};
  const auto unknown = reconstruction_errors_db(hat, truth, mask, 0.0);
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_DOUBLE_EQ(unknown[0], 0.5);
  EXPECT_DOUBLE_EQ(unknown[1], 2.0);
  const auto known = reconstruction_errors_db(hat, truth, mask, 1.0);
  EXPECT_DOUBLE_EQ(known[0], 0.0);
  const auto all = reconstruction_errors_all_db(hat, truth);
  EXPECT_EQ(all.size(), 4u);
}

TEST(Metrics, ShapeMismatchThrows) {
  EXPECT_THROW((void)reconstruction_errors_all_db(linalg::Matrix(2, 2),
                                                  linalg::Matrix(2, 3)),
               std::invalid_argument);
}

TEST(Metrics, MeanAndMedian) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(Labor, SweepShapesMatchPaperScaling) {
  // Fig. 20: cells grow ~k^2, references ~k; the saving approaches 100%.
  const auto sweep = labor_cost_sweep(94, 8, {1.0, 2.0, 10.0});
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep[0].cells, 94u);
  EXPECT_EQ(sweep[1].cells, 376u);
  EXPECT_EQ(sweep[2].cells, 9400u);
  EXPECT_EQ(sweep[2].references, 80u);
  EXPECT_GT(sweep[2].traditional_hours, 70.0);  // paper: ~80 h at 10x
  EXPECT_LT(sweep[2].iupdater_hours, 0.5);
  EXPECT_GT(sweep[2].saving_fraction, sweep[0].saving_fraction);
}

TEST(Report, TableRendersAligned) {
  Table t({"stamp", "median", "mean"});
  t.add_row({"3 days", "2.70", "3.10"});
  t.add_row("45 days", {3.6, 4.0});
  const std::string s = t.render();
  EXPECT_NE(s.find("stamp"), std::string::npos);
  EXPECT_NE(s.find("2.70"), std::string::npos);
  EXPECT_NE(s.find("3.60"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), std::invalid_argument);
}

TEST(Report, Formatting) {
  EXPECT_EQ(fmt(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_percent(0.921), "92.1%");
  EXPECT_NE(banner("Fig. 5").find("Fig. 5"), std::string::npos);
}

TEST(Experiment, StampLabels) {
  EXPECT_EQ(stamp_label(0), "original");
  EXPECT_EQ(stamp_label(3), "3 days");
  EXPECT_EQ(stamp_label(90), "3 months");
}

TEST(Experiment, CollectUpdateInputsShapes) {
  const auto& run = iup::test::office_run();
  const std::vector<std::size_t> refs = {1, 2, 3};
  const auto inputs = collect_update_inputs(run, refs, 15);
  EXPECT_EQ(inputs.x_b.rows(), 8u);
  EXPECT_EQ(inputs.x_b.cols(), 96u);
  EXPECT_EQ(inputs.x_r.cols(), 3u);
}

TEST(Experiment, LocalizationErrorsCountsTrials) {
  const auto& run = iup::test::office_run();
  const auto errs = localization_errors(run, run.ground_truth.at_day(0),
                                        LocalizerKind::kOmp, 0, 1, 2);
  EXPECT_EQ(errs.size(), 2u * run.testbed.num_cells());
}

}  // namespace
}  // namespace iup::eval
