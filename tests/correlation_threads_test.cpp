// The engine's versioned warm-start caches: the solver factor (L0) and
// the LRR ADMM state of the correlation refresh.  Exact (operator==)
// comparisons wherever the cache must not change a single bit.
#include <gtest/gtest.h>

#include <vector>

#include "api/engine.hpp"
#include "core/self_augmented.hpp"
#include "eval/experiment.hpp"
#include "test_util.hpp"

namespace iup {
namespace {

TEST(SolverWarmStart, ExplicitL0ReproducesDefaultInitialisationExactly) {
  // Passing the solver's own initial factor through RsvdProblem::l0 must
  // change nothing: same iterates, bit for bit.
  const auto& run = test::office_run();
  const core::BandLayout layout = core::band_layout_of(run.b_mask);
  core::RsvdOptions options;
  options.max_iters = 6;
  const core::SelfAugmentedRsvd solver(layout, options);

  core::RsvdProblem problem;
  problem.x_b = run.b_mask.hadamard(run.ground_truth.at_day(45));
  problem.b = run.b_mask;
  problem.p = run.ground_truth.at_day(0);

  const core::RsvdResult cold = solver.solve(problem);
  core::RsvdProblem warmed = problem;
  warmed.l0 = solver.initial_factor(problem);
  const core::RsvdResult warm = solver.solve(warmed);
  EXPECT_EQ(warm.l, cold.l);
  EXPECT_EQ(warm.r, cold.r);
  EXPECT_EQ(warm.x_hat, cold.x_hat);
  EXPECT_EQ(warm.objective_history, cold.objective_history);
}

TEST(SolverWarmStart, ShapeMismatchThrows) {
  const auto& run = test::office_run();
  const core::BandLayout layout = core::band_layout_of(run.b_mask);
  core::RsvdOptions options;
  options.max_iters = 1;
  const core::SelfAugmentedRsvd solver(layout, options);
  core::RsvdProblem problem;
  problem.x_b = run.b_mask.hadamard(run.ground_truth.at_day(45));
  problem.b = run.b_mask;
  problem.p = run.ground_truth.at_day(0);
  problem.l0 = linalg::Matrix(3, 2);
  EXPECT_THROW((void)solver.solve(problem), std::invalid_argument);
}

TEST(EngineWarmStartCache, TracksCommittedVersions) {
  const auto& run = test::office_run();
  api::Engine engine{api::EngineConfig{}};
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  // Registration commits version 1 without a solve: no cached factor yet.
  EXPECT_FALSE(engine.warm_start_version("office").has_value());

  const auto cells = engine.reference_cells("office").value();
  const auto r1 =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(r1.ok()) << r1.status().to_string();
  ASSERT_EQ(r1.value().committed_version, 2u);
  EXPECT_EQ(engine.warm_start_version("office"),
            std::optional<std::uint64_t>{2});

  const auto r2 =
      engine.update(eval::collect_update_request(run, "office", cells, 45));
  ASSERT_TRUE(r2.ok()) << r2.status().to_string();
  EXPECT_EQ(engine.warm_start_version("office"),
            std::optional<std::uint64_t>{3});

  ASSERT_TRUE(engine.drop_site("office").ok());
  EXPECT_FALSE(engine.warm_start_version("office").has_value());
}

TEST(EngineWarmStartCache, InvalidatedWhenTheSiteMovesWithoutASolve) {
  const auto& run = test::office_run();
  api::Engine engine{api::EngineConfig{}};
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  const auto cells = engine.reference_cells("office").value();

  const auto r1 =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(engine.warm_start_version("office"),
            std::optional<std::uint64_t>{2});

  // set_reference_cells commits version 3 without running the solver: the
  // cache still holds the version-2 factor, which no current snapshot
  // matches — the next solve must initialise cold, then re-cache at its
  // own committed version.
  ASSERT_TRUE(engine.set_reference_cells("office", cells).ok());
  ASSERT_EQ(engine.snapshot("office").value()->version(), 3u);
  EXPECT_EQ(engine.warm_start_version("office"),
            std::optional<std::uint64_t>{2});

  const auto r2 =
      engine.update(eval::collect_update_request(run, "office", cells, 45));
  ASSERT_TRUE(r2.ok()) << r2.status().to_string();
  EXPECT_EQ(r2.value().committed_version, 4u);
  EXPECT_EQ(engine.warm_start_version("office"),
            std::optional<std::uint64_t>{4});
}

TEST(EngineWarmStartCache, RandomInitNeverCaches) {
  // A kRandom-init solver never consumes problem.l0, so the engine must
  // not pay for factor copies or retain cache memory for it.
  const auto& run = test::office_run();
  core::RsvdOptions options;
  options.init = core::FactorInit::kRandom;
  api::Engine engine(api::EngineConfig().rsvd(options));
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  const auto cells = engine.reference_cells("office").value();
  const auto r1 =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(r1.ok()) << r1.status().to_string();
  EXPECT_FALSE(engine.warm_start_version("office").has_value());
}

TEST(EngineLrrWarmCache, SeededAtRegistrationAndTrackedAcrossCommits) {
  const auto& run = test::office_run();
  api::Engine engine{api::EngineConfig{}};
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  // Registration itself seeds the refresh cache (unlike the solver-factor
  // cache, which needs an update's converged factor).
  EXPECT_EQ(engine.lrr_warm_version("office"),
            std::optional<std::uint64_t>{1});

  const auto cells = engine.reference_cells("office").value();
  const auto r1 =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(r1.ok()) << r1.status().to_string();
  EXPECT_EQ(engine.lrr_warm_version("office"),
            std::optional<std::uint64_t>{2});

  // set_reference_cells re-acquires cold and re-seeds at its version.
  ASSERT_TRUE(engine.set_reference_cells("office", cells).ok());
  EXPECT_EQ(engine.lrr_warm_version("office"),
            std::optional<std::uint64_t>{3});

  ASSERT_TRUE(engine.drop_site("office").ok());
  EXPECT_FALSE(engine.lrr_warm_version("office").has_value());
}

}  // namespace
}  // namespace iup
