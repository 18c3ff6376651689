// The trace replay driver and the multi-radio source model end to end:
// the machine-checked guarantee that single-technology inputs through the
// multi-radio model reproduce the committed office update -> localize
// trajectory bit-identically, and the mixed-radio missing-source testbed
// driving the full ingest -> update -> localize -> CDF pipeline clean.
#include "trace/replay.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "trace/capture.hpp"
#include "trace/csv.hpp"
#include "test_util.hpp"

namespace iup::trace {
namespace {

using api::StatusCode;

TEST(SourceModelIdentity, SingleTechnologyReproducesOfficeTrajectory) {
  // Two engines in one process: the legacy source-less registration vs
  // the same site registered with the degenerate all-WiFi source table
  // and source-carrying update inputs.  Every committed snapshot and
  // every localization must be bit-identical — the multi-radio model is
  // pure metadata on the single-technology path.
  const auto& run = iup::test::office_run();
  const auto& x0 = run.ground_truth.at_day(0);
  const auto sources = single_technology_sources(x0.rows());

  api::Engine legacy;
  ASSERT_TRUE(eval::register_run(legacy, run, "office").ok());
  api::Engine sourced;
  ASSERT_TRUE(sourced.register_site("office", x0, run.b_mask, sources).ok());

  ASSERT_EQ(legacy.reference_cells("office").value(),
            sourced.reference_cells("office").value());
  const auto cells = legacy.reference_cells("office").value();

  for (const std::size_t day : {std::size_t{15}, std::size_t{45}}) {
    const auto request =
        eval::collect_update_request(run, "office", cells, day);
    auto tagged = request;
    tagged.inputs.sources = sources;  // the multi-radio provenance path
    const auto a = legacy.update(request);
    const auto b = sourced.update(tagged);
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    // Bit-identical committed state, version for version.
    EXPECT_EQ(a.value().committed_version, b.value().committed_version);
    EXPECT_EQ(a.value().snapshot->database(), b.value().snapshot->database());
    EXPECT_EQ(a.value().snapshot->correlation(),
              b.value().snapshot->correlation());
    EXPECT_EQ(a.value().solver.objective_history,
              b.value().solver.objective_history);
  }

  // Bit-identical serving: same estimates on the same online queries.
  sim::Sampler online(run.testbed, "identity-queries");
  for (std::size_t k = 0; k < 12; ++k) {
    const auto y = online.online_measurement((k * 96) / 12, 45, 3);
    const auto ea = legacy.localize("office", y);
    const auto eb = sourced.localize("office", y);
    ASSERT_TRUE(ea.ok() && eb.ok());
    EXPECT_EQ(ea.value().cell, eb.value().cell);
    EXPECT_EQ(ea.value().score, eb.value().score);
  }
}

TEST(TraceReplay, MixedRadioMissingSourceRunsCleanEndToEnd) {
  // The acceptance scenario: a mixed WiFi/BLE/LoRa deployment where one
  // BLE beacon died after the initial survey, replayed through the full
  // trace-driven pipeline.
  sim::MixedRadioOptions options;
  options.missing_sources = {SourceId(200 + options.num_links / 3)};
  const sim::Testbed testbed = sim::make_mixed_radio_testbed(options);

  const auto captured = capture_trace(testbed);
  ASSERT_TRUE(captured.ok()) << captured.status().to_string();
  const CapturedTrace& trace = captured.value();
  EXPECT_EQ(trace.fingerprint.sources,
            sim::mixed_radio_sources(options.num_links));

  api::Engine engine;
  const auto report = run_replay(engine, trace.fingerprint,
                                 trace.observations, trace.queries);
  ASSERT_TRUE(report.ok()) << report.status().to_string();

  // Both observation days committed an update; everything was accepted
  // (the capture attributes readings to the registered sources).
  EXPECT_EQ(report.value().updates_committed, 2u);
  EXPECT_EQ(report.value().observations_accepted,
            trace.observations.size());
  EXPECT_EQ(report.value().observations_quarantined, 0u);
  EXPECT_GE(report.value().final_version, 3u);

  // Scored CDF over every query, all finite.
  ASSERT_EQ(report.value().localization_errors_m.size(),
            trace.queries.size());
  const auto cdf = report.value().error_cdf();
  EXPECT_TRUE(std::isfinite(cdf.median()));
  EXPECT_TRUE(std::isfinite(cdf.percentile(0.9)));

  // The engine-side health block agrees: no quarantine, stream observed.
  const auto health = engine.site_health("replay").value();
  EXPECT_EQ(health.quarantined_total(), 0u);
  EXPECT_EQ(health.observations_accepted, trace.observations.size());
  EXPECT_EQ(health.last_observed_day, 45u);
}

TEST(TraceReplay, WrongSourceAttributionIsQuarantinedNotFatal) {
  sim::Testbed testbed = sim::make_mixed_radio_testbed();
  auto captured = capture_trace(testbed);
  ASSERT_TRUE(captured.ok()) << captured.status().to_string();
  CapturedTrace& trace = captured.value();

  // Relabel a few readings to a transmitter that is not behind the link,
  // plus one to an entirely unknown id.
  trace.observations[0].source = trace.fingerprint.sources[1].id;
  trace.observations[1].source = SourceId(777777);
  trace.observations[2].source = SourceId();  // unattributed

  api::Engine engine;
  const auto report = run_replay(engine, trace.fingerprint,
                                 trace.observations, trace.queries);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().observations_quarantined, 3u);
  EXPECT_EQ(report.value().observations_accepted,
            trace.observations.size() - 3);
  const auto health = engine.site_health("replay").value();
  EXPECT_EQ(health.quarantine_unknown_source, 3u);
}

TEST(TraceReplay, UnsortedStreamIsRejected) {
  const sim::Testbed testbed = sim::make_mixed_radio_testbed();
  auto captured = capture_trace(testbed);
  ASSERT_TRUE(captured.ok());
  CapturedTrace& trace = captured.value();
  std::swap(trace.observations.front(), trace.observations.back());
  api::Engine engine;
  const auto report = run_replay(engine, trace.fingerprint,
                                 trace.observations, trace.queries);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceReplay, CsvFilesRoundTripThroughRunReplayFiles) {
  // Capture -> CSV -> import -> replay equals capture -> replay: the file
  // layer is bit-transparent to the pipeline.
  const sim::Testbed testbed = sim::make_mixed_radio_testbed();
  const auto captured = capture_trace(testbed);
  ASSERT_TRUE(captured.ok());
  const CapturedTrace& trace = captured.value();

  const std::string dir = ::testing::TempDir();
  const std::string fp = dir + "/fingerprint.csv";
  const std::string obs = dir + "/observations.csv";
  const std::string qry = dir + "/queries.csv";
  ASSERT_TRUE(write_fingerprint_csv(trace.fingerprint, fp).ok());
  ASSERT_TRUE(write_observation_csv(trace.observations, obs).ok());
  ASSERT_TRUE(write_query_csv(trace.queries, qry).ok());

  api::Engine direct;
  const auto a = run_replay(direct, trace.fingerprint, trace.observations,
                            trace.queries);
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  api::Engine via_files;
  const auto b = run_replay_files(via_files, fp, obs, qry);
  ASSERT_TRUE(b.ok()) << b.status().to_string();

  EXPECT_EQ(a.value().updates_committed, b.value().updates_committed);
  EXPECT_EQ(a.value().observations_accepted, b.value().observations_accepted);
  EXPECT_EQ(a.value().localization_errors_m, b.value().localization_errors_m);

  std::remove(fp.c_str());
  std::remove(obs.c_str());
  std::remove(qry.c_str());
}

}  // namespace
}  // namespace iup::trace
