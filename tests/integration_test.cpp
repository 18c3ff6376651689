// End-to-end pipeline and failure-injection tests across all three rooms,
// driven through the api::Engine facade.
#include <gtest/gtest.h>

#include <cmath>

#include "api/engine.hpp"
#include "baselines/traditional.hpp"
#include "core/self_augmented.hpp"
#include "eval/experiment.hpp"
#include "test_util.hpp"

namespace iup {
namespace {

api::Engine room_engine(const eval::EnvironmentRun& run,
                        const std::string& site,
                        api::EngineConfig config = {}) {
  api::Engine engine(std::move(config));
  const auto registered = eval::register_run(engine, run, site);
  EXPECT_TRUE(registered.ok()) << registered.status().to_string();
  return engine;
}

class RoomSweep : public ::testing::TestWithParam<const char*> {
 protected:
  const eval::EnvironmentRun& run() const {
    const std::string name = GetParam();
    if (name == "office") return test::office_run();
    if (name == "library") return test::library_run();
    return test::hall_run();
  }
};

TEST_P(RoomSweep, UpdateBeatsStaleReconstruction) {
  const auto& r = run();
  const auto& x0 = r.ground_truth.at_day(0);
  api::Engine engine = room_engine(r, GetParam());
  const auto cells = engine.reference_cells(GetParam()).value();
  const std::size_t day = 45;
  const auto rep = engine.reconstruct(
      eval::collect_update_request(r, GetParam(), cells, day));
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  const auto fresh = eval::score_reconstruction(r, rep.value().x_hat(), day);
  const auto stale = eval::score_reconstruction(r, x0, day);
  EXPECT_LT(fresh.mean_db, stale.mean_db);
}

TEST_P(RoomSweep, UpdateBeatsStaleLocalization) {
  const auto& r = run();
  const auto& x0 = r.ground_truth.at_day(0);
  api::Engine engine = room_engine(r, GetParam());
  const auto cells = engine.reference_cells(GetParam()).value();
  const std::size_t day = 45;
  const auto rep = engine.reconstruct(
      eval::collect_update_request(r, GetParam(), cells, day));
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  const auto fresh = eval::localization_errors(
      r, rep.value().x_hat(), eval::LocalizerKind::kOmp, day, 5);
  const auto stale = eval::localization_errors(
      r, x0, eval::LocalizerKind::kOmp, day, 5);
  EXPECT_LT(eval::mean_of(fresh), eval::mean_of(stale));
}

TEST_P(RoomSweep, ReferenceCountEqualsLinkCount) {
  const auto& r = run();
  api::Engine engine = room_engine(r, GetParam());
  EXPECT_EQ(engine.reference_cells(GetParam()).value().size(),
            r.testbed.num_links());
}

TEST_P(RoomSweep, ErrorGrowsWithUpdateInterval) {
  const auto& r = run();
  api::Engine engine = room_engine(r, GetParam());
  const auto cells = engine.reference_cells(GetParam()).value();
  const auto err_at = [&](std::size_t day) {
    const auto rep = engine.reconstruct(
        eval::collect_update_request(r, GetParam(), cells, day));
    EXPECT_TRUE(rep.ok()) << rep.status().to_string();
    return eval::score_reconstruction(r, rep.value().x_hat(), day).mean_db;
  };
  // Fig. 18 trend: 3 months is harder than 3 days (allow generous slack
  // for per-stamp noise but insist on the long-horizon ordering).
  EXPECT_LT(err_at(3), err_at(90) + 0.3);
}

INSTANTIATE_TEST_SUITE_P(Rooms, RoomSweep,
                         ::testing::Values("office", "library", "hall"));

TEST(FailureInjection, DeadLinkInReferenceSurvey) {
  // A reference survey where one link died (sensitivity floor readings)
  // must not crash the solver nor destroy the other rows' reconstruction.
  const auto& r = test::office_run();
  api::Engine engine = room_engine(r, "office");
  const auto cells = engine.reference_cells("office").value();
  api::UpdateRequest request =
      eval::collect_update_request(r, "office", cells, 45);
  for (std::size_t k = 0; k < request.inputs.x_r.cols(); ++k) {
    request.inputs.x_r(3, k) = -95.0;  // link 3 dead during the survey
  }
  const auto rep = engine.reconstruct(request);
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  const auto& x_hat = rep.value().x_hat();
  for (double v : x_hat.data()) EXPECT_TRUE(std::isfinite(v));
  // Rows other than 3 stay reasonable.
  double err = 0.0;
  std::size_t cnt = 0;
  const auto& truth = r.ground_truth.at_day(45);
  for (std::size_t i = 0; i < 8; ++i) {
    if (i == 3) continue;
    for (std::size_t j = 0; j < 96; ++j) {
      if (r.b_mask(i, j) == 0.0) {
        err += std::abs(x_hat(i, j) - truth(i, j));
        ++cnt;
      }
    }
  }
  EXPECT_LT(err / static_cast<double>(cnt), 6.0);
}

TEST(FailureInjection, OutlierBurstInNoDecreaseMatrix) {
  const auto& r = test::office_run();
  const auto& x0 = r.ground_truth.at_day(0);
  api::Engine engine = room_engine(r, "office");
  const auto cells = engine.reference_cells("office").value();
  api::UpdateRequest request =
      eval::collect_update_request(r, "office", cells, 45);
  // Inject a 10 dB interference burst into a handful of observed entries.
  rng::Rng rng(4242);
  for (int k = 0; k < 20; ++k) {
    const std::size_t i = rng.uniform_index(8);
    const std::size_t j = rng.uniform_index(96);
    if (r.b_mask(i, j) != 0.0) request.inputs.x_b(i, j) -= 10.0;
  }
  const auto rep = engine.reconstruct(request);
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  const auto score = eval::score_reconstruction(r, rep.value().x_hat(), 45);
  const auto stale = eval::score_reconstruction(r, x0, 45);
  EXPECT_LT(score.mean_db, stale.mean_db);  // still better than no update
}

TEST(FailureInjection, RankDeficientFingerprintStillWorks) {
  // Duplicate-link pathologies: two identical rows make the matrix rank
  // deficient; MIC must shrink and the solver must stay finite.
  const auto& r = test::office_run();
  linalg::Matrix x0 = r.ground_truth.at_day(0);
  x0.set_row(7, x0.row_span(6));  // clone link 6 into link 7
  linalg::Matrix mask = r.b_mask;
  mask.set_row(7, mask.row_span(6));
  core::RsvdOptions rsvd;
  rsvd.rank = 7;
  api::Engine engine(api::EngineConfig().rsvd(rsvd));
  const auto registered = engine.register_site("office", x0, mask);
  ASSERT_TRUE(registered.ok()) << registered.status().to_string();
  const auto cells = engine.reference_cells("office").value();
  EXPECT_LE(cells.size(), 8u);
  const auto rep = engine.reconstruct(
      eval::collect_update_request(r, "office", cells, 15));
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  for (double v : rep.value().x_hat().data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(Integration, FiftyPercentWithConstraintMatchesFullResurvey) {
  // Claim 3 / Fig. 17 flavour: reconstructing with a large observed subset
  // plus Constraint 2 localises about as well as a fully measured survey.
  const auto& r = test::office_run();
  const std::size_t day = 45;
  sim::Sampler sampler(r.testbed, "claim3");
  const auto full = baselines::traditional_full_resurvey(sampler, day, 5);

  // Observed set: the no-decrease mask plus 50% of the band entries.
  linalg::Matrix b = r.b_mask;
  linalg::Matrix xb = full.hadamard(b);
  rng::Rng rng(31337);
  const auto layout = core::band_layout_of(full);
  for (std::size_t i = 0; i < layout.links; ++i) {
    for (std::size_t u = 0; u < layout.slots; ++u) {
      if (rng.uniform() < 0.5) {
        const std::size_t j = layout.cell(i, u);
        b(i, j) = 1.0;
        xb(i, j) = full(i, j);
      }
    }
  }
  core::RsvdOptions opt;
  opt.use_constraint1 = false;
  opt.use_constraint2 = true;
  const core::SelfAugmentedRsvd solver(layout, opt);
  core::RsvdProblem p;
  p.x_b = xb;
  p.b = b;
  const auto rec = solver.solve(p);

  const auto half_err = eval::localization_errors(
      r, rec.x_hat, eval::LocalizerKind::kOmp, day, 5);
  const auto full_err = eval::localization_errors(
      r, full, eval::LocalizerKind::kOmp, day, 5);
  EXPECT_LT(eval::mean_of(half_err), 1.35 * eval::mean_of(full_err) + 0.12);
}

}  // namespace
}  // namespace iup
