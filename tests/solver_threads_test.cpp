// Thread-count invariance of the engine's one parallelism grain:
// EngineConfig::threads(n) runs independent work items at once (sites in
// update_batch, measurements in localize_batch), and 1 thread and N
// threads must produce bit-identical results.  These tests compare exact
// (operator==) equality, not tolerances.
#include <gtest/gtest.h>

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
    // The convergence stop is a function of the iterates alone, so it
    // ends both solves at the same sweep.
    EXPECT_TRUE(serial_results[k].value().solver.converged);
    EXPECT_EQ(parallel_results[k].value().solver.iterations,
              serial_results[k].value().solver.iterations)
        << "request " << k;
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

}  // namespace
}  // namespace iup
