// The service facade: snapshot versioning, Status/Result error paths,
// solver configuration and batched entry points.
#include "api/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/updater.hpp"
#include "eval/experiment.hpp"
#include "test_util.hpp"

namespace iup::api {
namespace {

Engine office_engine(const eval::EnvironmentRun& run,
                     EngineConfig config = {}) {
  Engine engine(std::move(config));
  const auto registered = eval::register_run(engine, run, "office");
  EXPECT_TRUE(registered.ok()) << registered.status().to_string();
  return engine;
}

TEST(EngineRegistration, RejectsMalformedSites) {
  const auto& run = iup::test::office_run();
  Engine engine;

  const auto empty_name =
      engine.register_site("", run.ground_truth.at_day(0), run.b_mask);
  EXPECT_EQ(empty_name.status().code(), StatusCode::kInvalidArgument);

  const auto shape_mismatch = engine.register_site(
      "office", run.ground_truth.at_day(0), linalg::Matrix(8, 90));
  EXPECT_EQ(shape_mismatch.status().code(), StatusCode::kInvalidArgument);

  // 90 columns over 8 links is not a band layout.
  const auto bad_band = engine.register_site("office", linalg::Matrix(8, 90),
                                             linalg::Matrix(8, 90));
  EXPECT_EQ(bad_band.status().code(), StatusCode::kInvalidArgument);

  const auto rank_zero = engine.register_site(
      "office", linalg::Matrix(8, 96, 0.0), linalg::Matrix(8, 96, 0.0));
  EXPECT_EQ(rank_zero.status().code(), StatusCode::kInvalidArgument);

  // Valid registration, then a duplicate.
  const auto ok =
      engine.register_site("office", run.ground_truth.at_day(0), run.b_mask);
  ASSERT_TRUE(ok.ok()) << ok.status().to_string();
  const auto duplicate =
      engine.register_site("office", run.ground_truth.at_day(0), run.b_mask);
  EXPECT_EQ(duplicate.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineRegistration, RejectsMaskEntriesOtherThanZeroOrOne) {
  // B is a 0/1 index matrix (Eq. 8): the sweep would treat 0.5 as
  // observed while the objective scaled the data term by it.
  const auto& run = iup::test::office_run();
  Engine engine;
  for (const double bad : {0.5, 2.0, -1.0}) {
    linalg::Matrix mask = run.b_mask;
    mask(2, 5) = bad;
    const auto rejected =
        engine.register_site("office", run.ground_truth.at_day(0), mask);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(rejected.status().message().find("(link 2, cell 5)"),
              std::string::npos)
        << rejected.status().message();
    EXPECT_FALSE(engine.store().contains("office"));
  }
  linalg::Matrix signed_zero = run.b_mask;
  signed_zero(2, 5) = -0.0;
  EXPECT_TRUE(
      engine.register_site("office", run.ground_truth.at_day(0), signed_zero)
          .ok());
}

TEST(EngineRegistration, UnknownSiteIsNotFound) {
  Engine engine;
  EXPECT_EQ(engine.snapshot("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.reference_cells("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.update({"nope", {}, 0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.localize("nope", std::vector<double>(8)).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineSnapshots, UpdateCommitsNewVersions) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  const auto v1 = engine.snapshot("office").value();
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->reference_cells().size(), 8u);
  EXPECT_EQ(v1->correlation().rows(), 8u);
  EXPECT_EQ(v1->correlation().cols(), 96u);

  const auto cells = v1->reference_cells();
  const auto r15 =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(r15.ok()) << r15.status().to_string();
  EXPECT_EQ(r15.value().base_version, 1u);
  EXPECT_EQ(r15.value().committed_version, 2u);
  EXPECT_EQ(r15.value().snapshot->day(), 15u);

  const auto r45 =
      engine.update(eval::collect_update_request(run, "office", cells, 45));
  ASSERT_TRUE(r45.ok()) << r45.status().to_string();
  EXPECT_EQ(r45.value().committed_version, 3u);

  // Every version stays addressable; the latest is v3.
  EXPECT_EQ(engine.store().version_count("office"), 3u);
  EXPECT_TRUE(engine.snapshot("office", 1).value()->database() ==
              run.ground_truth.at_day(0));
  EXPECT_TRUE(engine.snapshot("office").value()->database() ==
              r45.value().x_hat());
  EXPECT_EQ(engine.snapshot("office", 9).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineSnapshots, ReconstructDoesNotCommit) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  const auto cells = engine.reference_cells("office").value();
  const auto rep = engine.reconstruct(
      eval::collect_update_request(run, "office", cells, 45));
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  EXPECT_EQ(rep.value().committed_version, 0u);
  EXPECT_EQ(rep.value().snapshot, nullptr);
  EXPECT_EQ(engine.store().version_count("office"), 1u);
}

TEST(EngineSnapshots, HistoryLimitEvictsOldest) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run, EngineConfig().history_limit(2));
  const auto cells = engine.reference_cells("office").value();
  for (std::size_t day : {std::size_t{5}, std::size_t{15}}) {
    const auto res =
        engine.update(eval::collect_update_request(run, "office", cells, day));
    ASSERT_TRUE(res.ok()) << res.status().to_string();
  }
  EXPECT_EQ(engine.store().version_count("office"), 2u);
  EXPECT_EQ(engine.snapshot("office", 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.snapshot("office", 3).value()->version(), 3u);
}

TEST(EngineErrors, DimensionMismatchLeavesStoreUntouched) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);

  UpdateRequest bad_xr{"office", {linalg::Matrix(8, 96), linalg::Matrix(8, 3)},
                       45};
  const auto r1 = engine.update(bad_xr);
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  UpdateRequest bad_xb{"office", {linalg::Matrix(8, 90), linalg::Matrix(8, 8)},
                       45};
  const auto r2 = engine.update(bad_xb);
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(engine.store().version_count("office"), 1u);
}

TEST(EngineErrors, NonFiniteUpdateInputsAreRejectedBeforeAnyMutation) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  const auto cells = engine.reference_cells("office").value();
  const auto good = eval::collect_update_request(run, "office", cells, 45);

  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    UpdateRequest bad_xb = good;
    bad_xb.inputs.x_b(3, 40) = poison;
    const auto r1 = engine.update(bad_xb);
    EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

    UpdateRequest bad_xr = good;
    bad_xr.inputs.x_r(2, 5) = poison;
    const auto r2 = engine.update(bad_xr);
    EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  }

  // Nothing committed, nothing served: still version 1 all the way down.
  EXPECT_EQ(engine.store().version_count("office"), 1u);
  EXPECT_EQ(engine.snapshot("office").value()->version(), 1u);

  // The same gate guards registration and the localize read path.
  linalg::Matrix poisoned = run.ground_truth.at_day(0);
  poisoned(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.register_site("poisoned", poisoned, run.b_mask)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  std::vector<double> query(8, -50.0);
  query[4] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.localize("office", query).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.localize_batch("office", {query}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineErrors, UpdateThatOverflowsToNonFiniteDatabaseIsNotPublished) {
  // Finite inputs pass the input gate, but at 1e200 the solve overflows
  // and every reconstructed entry goes non-finite.  With the correlation
  // refresh off nothing else trips over it, so only the publish-time
  // finiteness guard in commit() stands between it and the readers.
  const auto& run = iup::test::office_run();
  Engine engine =
      office_engine(run, EngineConfig().refresh_correlation(false));
  const auto cells = engine.reference_cells("office").value();
  const SnapshotPtr v1 = engine.snapshot("office").value();
  const serve::PublishedPtr served = engine.published("office").value();
  const std::vector<double> query = run.ground_truth.at_day(45).col(17);
  const auto before = engine.localize("office", query);
  ASSERT_TRUE(before.ok()) << before.status().to_string();
  ASSERT_TRUE(std::isfinite(before.value().score));
  const std::uint64_t failed_before =
      engine.site_health("office").value().updates_failed;

  UpdateRequest huge = eval::collect_update_request(run, "office", cells, 45);
  for (double& v : huge.inputs.x_b.data()) v *= 1e200;
  for (double& v : huge.inputs.x_r.data()) v *= 1e200;
  const auto result = engine.update(huge);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("non-finite"), std::string::npos)
      << result.status().message();

  EXPECT_EQ(engine.store().version_count("office"), 1u);
  EXPECT_EQ(engine.snapshot("office").value(), v1);
  EXPECT_EQ(engine.published("office").value(), served);
  const auto after = engine.localize("office", query);
  ASSERT_TRUE(after.ok()) << after.status().to_string();
  EXPECT_EQ(after.value().cell, before.value().cell);
  EXPECT_EQ(after.value().score, before.value().score);
  EXPECT_EQ(engine.site_health("office").value().updates_failed,
            failed_before + 1);
}

TEST(EngineHealth, SiteHealthTracksServingAndUpdateOutcomes) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  EXPECT_EQ(engine.site_health("nope").status().code(), StatusCode::kNotFound);

  const auto fresh = engine.site_health("office");
  ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();
  EXPECT_EQ(fresh.value().state, serve::SiteState::kHealthy);
  EXPECT_EQ(fresh.value().serving_version, 1u);
  EXPECT_EQ(fresh.value().latest_version, 1u);
  EXPECT_EQ(fresh.value().updates_ok, 0u);
  EXPECT_EQ(fresh.value().updates_failed, 0u);

  const auto cells = engine.reference_cells("office").value();
  ASSERT_TRUE(
      engine.update(eval::collect_update_request(run, "office", cells, 15))
          .ok());
  UpdateRequest bad = eval::collect_update_request(run, "office", cells, 45);
  bad.inputs.x_b(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(engine.update(bad).ok());

  const auto after = engine.site_health("office").value();
  EXPECT_EQ(after.serving_version, 2u);
  EXPECT_EQ(after.latest_version, 2u);
  EXPECT_EQ(after.serving_day, 15u);
  EXPECT_EQ(after.updates_ok, 1u);
  EXPECT_EQ(after.updates_failed, 1u);
  // No observations streamed yet: no staleness to report.
  EXPECT_EQ(after.staleness_days, 0u);
  EXPECT_EQ(after.quarantined_total(), 0u);
}

TEST(EngineErrors, EmptyReferenceSetIsRejected) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  const auto empty =
      engine.set_reference_cells("office", std::vector<CellId>{});
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  const auto out_of_range =
      engine.set_reference_cells("office", to_cell_ids({0, 400}));
  EXPECT_EQ(out_of_range.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.store().version_count("office"), 1u);
}

TEST(EngineSnapshots, ReferenceOverrideCommitsNewCorrelation) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  const std::vector<std::size_t> cells = {0, 13, 26, 39, 52, 65, 78, 91, 95};
  ASSERT_TRUE(engine.set_reference_cells("office", to_cell_ids(cells)).ok());
  const auto snap = engine.snapshot("office").value();
  EXPECT_EQ(snap->version(), 2u);
  EXPECT_EQ(snap->reference_cells(), cells);
  EXPECT_EQ(engine.reference_cells("office").value(), to_cell_ids(cells));
  EXPECT_EQ(snap->correlation().rows(), 9u);
  const auto rep = engine.reconstruct(
      eval::collect_update_request(run, "office", cells, 45));
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  EXPECT_EQ(rep.value().reference_count, 9u);
}

// The value of a temporary Result is returned by value, never as a
// reference into the Result that dies at the end of the full expression.
static_assert(std::is_same_v<
              decltype(std::declval<Result<std::vector<CellId>>>().value()),
              std::vector<CellId>>);
static_assert(
    std::is_same_v<decltype(*std::declval<Result<std::vector<CellId>>>()),
                   std::vector<CellId>>);

TEST(EngineResult, RangeForOverATemporaryResultSeesTheValue) {
  // The range-init binds the value of a temporary Result; the Result
  // itself is destroyed before the first iteration.  With a reference into
  // it the loop read freed memory (garbage cells, a heap-use-after-free
  // under ASan).
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  const std::vector<CellId> expect = engine.reference_cells("office").value();
  ASSERT_FALSE(expect.empty());
  std::vector<CellId> seen;
  for (const CellId c : engine.reference_cells("office").value()) {
    seen.push_back(c);
  }
  EXPECT_EQ(seen, expect);
  seen.clear();
  for (const CellId c : *engine.reference_cells("office")) seen.push_back(c);
  EXPECT_EQ(seen, expect);
}

TEST(EngineSolver, RsvdOptionsChangeTheSolve) {
  const auto& run = iup::test::office_run();
  Engine full = office_engine(run);
  // Both constraints off: the basic RSVD completion (Eq. 11).
  core::RsvdOptions unconstrained;
  unconstrained.use_constraint1 = false;
  unconstrained.use_constraint2 = false;
  Engine basic = office_engine(run, EngineConfig().rsvd(unconstrained));

  const auto cells = full.reference_cells("office").value();
  const auto request = eval::collect_update_request(run, "office", cells, 45);
  const auto rep_full = full.reconstruct(request);
  const auto rep_basic = basic.reconstruct(request);
  ASSERT_TRUE(rep_full.ok());
  ASSERT_TRUE(rep_basic.ok());
  // The unconstrained completion must differ from the self-augmented one
  // and (on this drifted day) be worse.
  EXPECT_FALSE(rep_full.value().x_hat().approx_equal(rep_basic.value().x_hat(),
                                                     1e-9));
  const double full_err =
      eval::score_reconstruction(run, rep_full.value().x_hat(), 45).mean_db;
  const double basic_err =
      eval::score_reconstruction(run, rep_basic.value().x_hat(), 45).mean_db;
  EXPECT_LT(full_err, basic_err);
}

TEST(EngineBatch, BatchedUpdatesMatchSequentialExactly) {
  const auto& run = iup::test::office_run();
  const std::vector<std::size_t> days = {5, 15, 45};

  Engine sequential = office_engine(run);
  const auto cells = sequential.reference_cells("office").value();
  std::vector<linalg::Matrix> seq_hats;
  for (std::size_t day : days) {
    const auto res = sequential.update(
        eval::collect_update_request(run, "office", cells, day));
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    seq_hats.push_back(res.value().x_hat());
  }

  Engine batched = office_engine(run);
  std::vector<UpdateRequest> batch;
  for (std::size_t day : days) {
    batch.push_back(eval::collect_update_request(run, "office", cells, day));
  }
  const auto results = batched.update_batch(batch);
  ASSERT_EQ(results.size(), days.size());
  for (std::size_t k = 0; k < results.size(); ++k) {
    ASSERT_TRUE(results[k].ok()) << results[k].status().to_string();
    EXPECT_TRUE(results[k].value().x_hat() == seq_hats[k]) << "day "
                                                           << days[k];
    EXPECT_EQ(results[k].value().committed_version, k + 2);
  }
  EXPECT_TRUE(batched.snapshot("office").value()->database() ==
              sequential.snapshot("office").value()->database());
  EXPECT_TRUE(batched.snapshot("office").value()->correlation() ==
              sequential.snapshot("office").value()->correlation());
}

TEST(EngineBatch, FailedRequestDoesNotBlockTheRest) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  const auto cells = engine.reference_cells("office").value();
  std::vector<UpdateRequest> batch;
  batch.push_back(eval::collect_update_request(run, "office", cells, 15));
  batch.push_back({"no-such-site", {}, 15});
  batch.push_back(eval::collect_update_request(run, "office", cells, 45));
  const auto results = engine.update_batch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(engine.store().version_count("office"), 3u);
}

TEST(EngineLocalize, BatchMatchesSingleAndValidates) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  sim::Sampler sampler(run.testbed, "api-localize");
  std::vector<std::vector<double>> queries;
  for (std::size_t j = 0; j < 12; ++j) {
    queries.push_back(sampler.online_measurement(j * 8, 0, 3));
  }
  const auto batch = engine.localize_batch("office", queries);
  ASSERT_TRUE(batch.ok()) << batch.status().to_string();
  ASSERT_EQ(batch.value().size(), queries.size());
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const auto single = engine.localize("office", queries[k]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single.value().cell, batch.value()[k].cell);
  }
  const auto wrong_width =
      engine.localize("office", std::vector<double>(5));
  EXPECT_EQ(wrong_width.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineAttachDeployment, ValidatesArgumentsAndRepublishesNothing) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  const serve::PublishedPtr before = engine.published("office").value();
  EXPECT_TRUE(
      engine.attach_deployment("office", &run.testbed.deployment()).ok());
  EXPECT_EQ(engine.published("office").value(), before);
  EXPECT_EQ(engine.attach_deployment("office", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      engine.attach_deployment("nope", &run.testbed.deployment()).code(),
      StatusCode::kNotFound);
}

TEST(EngineCommit, UpdateIsRefusedAfterADropAndReRegisterOfItsSite) {
  // The update solves against the office site "s" at v1; before it
  // commits, "s" is dropped and re-registered from the hall survey, so
  // the new site is back at v1 too.  Committing the office
  // reconstruction as the new site's v2 would be a lost update.
  const auto& office = iup::test::office_run();
  const auto& hall = iup::test::hall_run();
  Engine* engine_ptr = nullptr;
  bool raced = false;
  std::vector<SnapshotPtr> commits;
  UpdateHooks hooks;
  hooks.before_publish = [&](std::chrono::nanoseconds) {
    if (!raced) {
      raced = true;
      EXPECT_TRUE(engine_ptr->drop_site("s").ok());
      EXPECT_TRUE(eval::register_run(*engine_ptr, hall, "s").ok());
    }
    return Status();
  };
  hooks.after_commit = [&](const CommitEvent& event) {
    commits.push_back(event.snapshot);
  };
  Engine engine(EngineConfig().update_hooks(hooks));
  engine_ptr = &engine;
  ASSERT_TRUE(eval::register_run(engine, office, "s").ok());
  const auto cells = engine.reference_cells("s").value();
  commits.clear();

  const auto result =
      engine.update(eval::collect_update_request(office, "s", cells, 15));
  EXPECT_TRUE(raced);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  const SnapshotPtr latest = engine.snapshot("s").value();
  EXPECT_EQ(latest->version(), 1u);
  EXPECT_TRUE(latest->database() == hall.ground_truth.at_day(0));
  EXPECT_EQ(engine.published("s").value()->snapshot, latest);
  // The hook's own registration is the only commit.
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0], latest);
}

std::vector<SourceInfo> office_sources() {
  std::vector<SourceInfo> sources;
  for (std::size_t i = 0; i < 8; ++i) {
    sources.push_back({SourceId(1000 + i),
                       i < 4 ? Technology::kWifi : Technology::kBle});
  }
  return sources;
}

TEST(EngineSources, RegistrationValidatesTheSourceTable) {
  const auto& run = iup::test::office_run();
  const auto& x0 = run.ground_truth.at_day(0);
  Engine engine;

  auto short_table = office_sources();
  short_table.pop_back();
  EXPECT_EQ(engine.register_site("office", x0, run.b_mask, short_table)
                .status().code(),
            StatusCode::kInvalidArgument);

  auto unspecified = office_sources();
  unspecified[2].id = SourceId();
  EXPECT_EQ(engine.register_site("office", x0, run.b_mask, unspecified)
                .status().code(),
            StatusCode::kInvalidArgument);

  auto duplicate = office_sources();
  duplicate[5].id = duplicate[1].id;
  EXPECT_EQ(engine.register_site("office", x0, run.b_mask, duplicate)
                .status().code(),
            StatusCode::kInvalidArgument);

  const auto ok = engine.register_site("office", x0, run.b_mask,
                                       office_sources());
  ASSERT_TRUE(ok.ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value()->sources(), office_sources());
  EXPECT_EQ(engine.sources("office").value(), office_sources());
}

TEST(EngineSources, TableIsCarriedAcrossVersionsAndEnforced) {
  const auto& run = iup::test::office_run();
  Engine engine;
  ASSERT_TRUE(engine
                  .register_site("office", run.ground_truth.at_day(0),
                                 run.b_mask, office_sources())
                  .ok());
  const auto cells = engine.reference_cells("office").value();

  // Inputs carrying the registered table commit fine...
  auto good = eval::collect_update_request(run, "office", cells, 15);
  good.inputs.sources = office_sources();
  const auto committed = engine.update(good);
  ASSERT_TRUE(committed.ok()) << committed.status().to_string();
  // ...and the new snapshot still carries the table.
  EXPECT_EQ(committed.value().snapshot->sources(), office_sources());

  // Inputs attributed to a different transmitter set are rejected.
  auto bad = eval::collect_update_request(run, "office", cells, 45);
  bad.inputs.sources = office_sources();
  bad.inputs.sources[3].id = SourceId(9999);
  EXPECT_EQ(engine.update(bad).status().code(),
            StatusCode::kInvalidArgument);
  auto wrong_tech = eval::collect_update_request(run, "office", cells, 45);
  wrong_tech.inputs.sources = office_sources();
  wrong_tech.inputs.sources[0].technology = Technology::kLora;
  EXPECT_EQ(engine.update(wrong_tech).status().code(),
            StatusCode::kInvalidArgument);

  // Source-less inputs stay accepted (legacy callers, assembled traces
  // from source-less snapshots).
  const auto legacy = eval::collect_update_request(run, "office", cells, 45);
  EXPECT_TRUE(engine.update(legacy).ok());
}

TEST(EngineSources, LegacyRegistrationHasEmptyTable) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  EXPECT_TRUE(engine.sources("office").value().empty());
  EXPECT_TRUE(engine.snapshot("office").value()->sources().empty());
}

}  // namespace
}  // namespace iup::api
