// Thread-count invariance of the engine's one parallelism grain:
// EngineConfig::threads(n) runs independent work items at once (sites in
// update_batch, measurements in localize_batch, and under kRass the
// per-axis SVR fits nested inside each site's update), and 1 thread and N
// threads must produce bit-identical results.  These tests compare exact
// (operator==) equality, not tolerances.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.hpp"
#include "eval/experiment.hpp"
#include "test_util.hpp"

namespace iup {
namespace {

TEST(EngineThreadInvariance, MultiSiteUpdateBatchMatchesSequential) {
  const auto& run = test::office_run();

  api::Engine serial(api::EngineConfig().threads(1));
  api::Engine parallel(api::EngineConfig().threads(4));
  for (const char* site : {"north", "south", "east"}) {
    ASSERT_TRUE(eval::register_run(serial, run, site).ok());
    ASSERT_TRUE(eval::register_run(parallel, run, site).ok());
  }
  const auto cells = serial.reference_cells("north").value();

  // Interleaved sites with two updates per site: the batch must keep the
  // per-site chains ordered (day 15 before day 45) while fanning the
  // sites out.
  std::vector<api::UpdateRequest> requests;
  for (const std::size_t day : {15u, 45u}) {
    for (const char* site : {"north", "south", "east"}) {
      requests.push_back(eval::collect_update_request(run, site, cells, day));
    }
  }

  const auto serial_results = serial.update_batch(requests);
  const auto parallel_results = parallel.update_batch(requests);
  ASSERT_EQ(serial_results.size(), requests.size());
  ASSERT_EQ(parallel_results.size(), requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    ASSERT_TRUE(serial_results[k].ok());
    ASSERT_TRUE(parallel_results[k].ok())
        << parallel_results[k].status().to_string();
    EXPECT_EQ(parallel_results[k].value().x_hat(),
              serial_results[k].value().x_hat())
        << "request " << k;
    EXPECT_EQ(parallel_results[k].value().committed_version,
              serial_results[k].value().committed_version);
  }
  // Both engines end in the same store state.
  for (const char* site : {"north", "south", "east"}) {
    EXPECT_EQ(serial.store().version_count(site), 3u);
    EXPECT_EQ(parallel.store().version_count(site), 3u);
    EXPECT_EQ(parallel.snapshot(site).value()->database(),
              serial.snapshot(site).value()->database());
  }
}

TEST(EngineThreadInvariance, LocalizeBatchMatchesSequential) {
  const auto& run = test::office_run();
  api::Engine serial(api::EngineConfig().threads(1));
  api::Engine parallel(api::EngineConfig().threads(8));
  ASSERT_TRUE(eval::register_run(serial, run, "office").ok());
  ASSERT_TRUE(eval::register_run(parallel, run, "office").ok());

  const auto& x = run.ground_truth.at_day(0);
  std::vector<std::vector<double>> measurements;
  for (std::size_t j = 0; j < x.cols(); j += 7) {
    measurements.push_back(x.col(j));
  }

  const auto serial_estimates = serial.localize_batch("office", measurements);
  const auto parallel_estimates =
      parallel.localize_batch("office", measurements);
  ASSERT_TRUE(serial_estimates.ok());
  ASSERT_TRUE(parallel_estimates.ok());
  ASSERT_EQ(serial_estimates.value().size(), measurements.size());
  ASSERT_EQ(parallel_estimates.value().size(), measurements.size());
  for (std::size_t k = 0; k < measurements.size(); ++k) {
    EXPECT_EQ(parallel_estimates.value()[k].cell,
              serial_estimates.value()[k].cell);
    EXPECT_EQ(parallel_estimates.value()[k].score,
              serial_estimates.value()[k].score);
  }
}

TEST(EngineThreadInvariance, RassUpdateBatchMatchesSequential) {
  // The one nested fan-out: update_batch across sites, and inside each
  // site's commit the kRass localizer build fans its per-axis fits out
  // (run inline under the outer fan-out).
  const auto& run = test::office_run();
  const auto config = [](std::size_t threads) {
    return api::EngineConfig()
        .localizer(api::LocalizerKind::kRass)
        .threads(threads);
  };
  api::Engine serial(config(1));
  api::Engine parallel(config(4));
  const std::vector<std::string> sites = {"north", "south"};
  for (const std::string& site : sites) {
    ASSERT_TRUE(eval::register_run(serial, run, site).ok());
    ASSERT_TRUE(eval::register_run(parallel, run, site).ok());
  }
  const auto cells = serial.reference_cells("north").value();

  std::vector<api::UpdateRequest> requests;
  for (const std::size_t day : {15u, 45u}) {
    for (const std::string& site : sites) {
      requests.push_back(eval::collect_update_request(run, site, cells, day));
    }
  }
  const auto serial_results = serial.update_batch(requests);
  const auto parallel_results = parallel.update_batch(requests);
  ASSERT_EQ(parallel_results.size(), serial_results.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    ASSERT_TRUE(serial_results[k].ok())
        << serial_results[k].status().to_string();
    ASSERT_TRUE(parallel_results[k].ok())
        << parallel_results[k].status().to_string();
    const auto& a = *serial_results[k].value().snapshot;
    const auto& b = *parallel_results[k].value().snapshot;
    EXPECT_EQ(b.version(), a.version()) << "request " << k;
    EXPECT_EQ(b.database(), a.database()) << "request " << k;
    EXPECT_EQ(b.correlation(), a.correlation()) << "request " << k;
  }

  const auto& x = run.ground_truth.at_day(45);
  for (const std::string& site : sites) {
    for (std::size_t j = 0; j < x.cols(); j += 5) {
      const auto a = serial.localize(site, x.col(j));
      const auto b = parallel.localize(site, x.col(j));
      ASSERT_TRUE(a.ok()) << a.status().to_string();
      ASSERT_TRUE(b.ok()) << b.status().to_string();
      EXPECT_EQ(b.value().cell, a.value().cell) << site << " cell " << j;
      EXPECT_EQ(b.value().score, a.value().score) << site << " cell " << j;
    }
  }
}

}  // namespace
}  // namespace iup
