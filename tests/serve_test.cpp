// The serving layer: RCU bundle publication, the zero-locks read-path
// contract and evict-while-read safety.
//
// The concurrency tests here are the machine check behind the claims in
// serve/shard.hpp: they run N reader threads against M background updates
// and require (a) zero state-mutex acquisitions inside ReadPathScope, and
// (b) every concurrent localize result to BIT-MATCH a serial localize
// against the exact published version the reader observed.  They are part
// of the TSan CI suite (scripts/ci.sh IUP_SANITIZE=thread).
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "core/fingerprint.hpp"
#include "eval/experiment.hpp"
#include "serve/shard.hpp"
#include "sim/sampler.hpp"
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

std::vector<std::vector<double>> office_queries(
    const eval::EnvironmentRun& run, std::size_t count,
    const std::string& tag) {
  sim::Sampler sampler(run.testbed, tag);
  std::vector<std::vector<double>> queries;
  queries.reserve(count);
  const std::size_t cells = run.testbed.num_cells();
  for (std::size_t k = 0; k < count; ++k) {
    queries.push_back(
        sampler.online_measurement((k * 7) % cells, (k % 2) * 15, 3));
  }
  return queries;
}

/// The serial reference: a fresh localizer over exactly `database`,
/// built the way every published bundle builds its own.
loc::LocalizationEstimate serial_localize(const linalg::Matrix& database,
                                          std::span<const double> query) {
  const auto localizer = make_localizer(LocalizerKind::kOmp, database);
  return localizer->localize(query);
}

TEST(ServePublication, BundleTracksCommitsAndPinsVersions) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);

  const auto v1 = engine.published("office");
  ASSERT_TRUE(v1.ok()) << v1.status().to_string();
  EXPECT_EQ(v1.value()->snapshot->version(), 1u);
  ASSERT_NE(v1.value()->localizer, nullptr);
  EXPECT_EQ(engine.published("nope").status().code(), StatusCode::kNotFound);

  const auto cells = engine.reference_cells("office").value();
  const auto r15 =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(r15.ok()) << r15.status().to_string();

  // The commit republished; the pinned bundle still serves version 1.
  const auto v2 = engine.published("office");
  EXPECT_EQ(v2.value()->snapshot->version(), 2u);
  EXPECT_EQ(v1.value()->snapshot->version(), 1u);
  EXPECT_TRUE(v1.value()->snapshot->database() == run.ground_truth.at_day(0));

  // set_reference_cells republishes the same localizer under the new
  // version (the database did not change).
  ASSERT_TRUE(engine
                  .set_reference_cells(
                      "office",
                      iup::to_cell_ids({0, 8, 16, 24, 32, 40, 48, 56}))
                  .ok());
  const auto v3 = engine.published("office");
  EXPECT_EQ(v3.value()->snapshot->version(), 3u);
  EXPECT_EQ(v3.value()->localizer, v2.value()->localizer);

  ASSERT_TRUE(engine.drop_site("office").ok());
  EXPECT_EQ(engine.published("office").status().code(), StatusCode::kNotFound);
  // The dropped site's pinned bundle keeps serving.
  const auto query = office_queries(run, 1, "serve-pin").front();
  const auto est = v1.value()->localizer->localize(query);
  const auto expected = serial_localize(run.ground_truth.at_day(0), query);
  EXPECT_EQ(est.cell, expected.cell);
  EXPECT_EQ(est.score, expected.score);
}

// Satellite regression for the history-limit eviction: a bundle pinned
// before the store evicted its version keeps serving bit-identical
// results (the store only ever drops ITS reference — snapshot.hpp).
TEST(ServePublication, EvictedVersionKeepsServingPinnedReaders) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run, EngineConfig().history_limit(2));
  const auto pinned = engine.published("office").value();
  const linalg::Matrix database_at_pin = pinned->snapshot->database();

  const auto cells = engine.reference_cells("office").value();
  for (std::size_t day : {std::size_t{5}, std::size_t{15}, std::size_t{45}}) {
    const auto res =
        engine.update(eval::collect_update_request(run, "office", cells, day));
    ASSERT_TRUE(res.ok()) << res.status().to_string();
  }
  // Version 1 is gone from the store...
  EXPECT_EQ(engine.snapshot("office", 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.store().version_count("office"), 2u);
  // ...but the pinned bundle is intact and bit-identical.
  EXPECT_EQ(pinned->snapshot->version(), 1u);
  EXPECT_TRUE(pinned->snapshot->database() == database_at_pin);
  const auto query = office_queries(run, 1, "serve-evict").front();
  const auto est = pinned->localizer->localize(query);
  const auto expected = serial_localize(database_at_pin, query);
  EXPECT_EQ(est.cell, expected.cell);
  EXPECT_EQ(est.score, expected.score);
}

// Satellite regression for the failure path of publication: an update
// that dies MID-BUILD — after the solve and correlation refresh, at the
// before_publish seam, i.e. with the next bundle's ingredients already
// computed — must leave the served bundle untouched: same object, same
// version, bit-identical localize results.  Readers can never observe a
// partially-published version because a failed build never reaches the
// publish store at all.
TEST(ServePublication, FailedMidBuildUpdateLeavesOldBundleServedBitIdentically) {
  const auto& run = iup::test::office_run();
  std::atomic<bool> fail_publish{false};
  std::atomic<std::uint64_t> consulted{0};
  UpdateHooks hooks;
  hooks.before_publish =
      [&](std::chrono::nanoseconds) -> Status {
    consulted.fetch_add(1);
    if (fail_publish.load()) {
      return Status::unavailable("injected mid-build failure");
    }
    return {};
  };
  Engine engine = office_engine(run, EngineConfig().update_hooks(hooks));

  const auto before = engine.published("office").value();
  const auto query = office_queries(run, 1, "serve-midbuild").front();
  const auto est_before = before->localizer->localize(query);

  fail_publish.store(true);
  const auto cells = engine.reference_cells("office").value();
  const auto failed =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(consulted.load(), 1u);  // the build really ran to the seam

  // Old bundle: same object, same version, nothing committed.
  const auto after = engine.published("office").value();
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(after->snapshot->version(), 1u);
  EXPECT_EQ(engine.store().version_count("office"), 1u);
  const auto est_after = after->localizer->localize(query);
  EXPECT_EQ(est_after.cell, est_before.cell);
  EXPECT_EQ(est_after.score, est_before.score);  // bitwise, not approx

  // The health surface saw the failure; the serve surface did not.
  const auto health = engine.site_health("office").value();
  EXPECT_EQ(health.updates_failed, 1u);
  EXPECT_EQ(health.serving_version, 1u);

  // Hook released: the very next update publishes normally.
  fail_publish.store(false);
  const auto ok =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(ok.ok()) << ok.status().to_string();
  EXPECT_EQ(engine.published("office").value()->snapshot->version(), 2u);
}

// N reader threads localize continuously while a writer commits M updates
// (with a tight history limit, so evictions happen underneath the
// readers).  Every result must bit-match a serial localize against the
// exact version the reader observed, and the read path must never touch a
// state mutex.
TEST(ServeConcurrency, ReadersDuringUpdatesBitMatchObservedVersion) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run, EngineConfig().history_limit(2));
  const auto queries = office_queries(run, 8, "serve-stress");
  const std::uint64_t violations_before = serve::read_path_lock_violations();

  // Record every committed database so readers can be checked against
  // whichever version they observed (index = version - 1).
  std::vector<linalg::Matrix> databases;
  databases.push_back(engine.snapshot("office").value()->database());
  constexpr std::size_t kUpdates = 3;
  constexpr std::size_t kReaders = 4;

  struct Observation {
    std::uint64_t version;
    std::size_t query;
    loc::LocalizationEstimate estimate;
  };
  std::vector<std::vector<Observation>> observed(kReaders);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ready.fetch_add(1);
      std::size_t k = t;  // stagger the query streams across readers
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t q = k++ % queries.size();
        // Pin the bundle FIRST so the (version, estimate) pairing is
        // exact even when an update publishes mid-call.
        const auto bundle = engine.published("office");
        ASSERT_TRUE(bundle.ok());
        const auto est = bundle.value()->localizer->localize(queries[q]);
        observed[t].push_back(
            {bundle.value()->snapshot->version(), q, est});
        // Also exercise the public entry point (checked below only when
        // no update landed mid-call).
        const auto before = engine.published("office").value();
        const auto via_engine = engine.localize("office", queries[q]);
        const auto after = engine.published("office").value();
        ASSERT_TRUE(via_engine.ok()) << via_engine.status().to_string();
        if (before->snapshot->version() == after->snapshot->version()) {
          observed[t].push_back(
              {before->snapshot->version(), q, via_engine.value()});
        }
      }
    });
  }
  while (ready.load() < kReaders) std::this_thread::yield();

  const auto cells = engine.reference_cells("office").value();
  for (std::size_t u = 0; u < kUpdates; ++u) {
    const auto res = engine.update(
        eval::collect_update_request(run, "office", cells, 5 + 10 * u));
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    databases.push_back(res.value().x_hat());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(serve::read_path_lock_violations(), violations_before);

  std::size_t checked = 0;
  std::vector<std::uint64_t> versions_seen;
  for (const auto& per_reader : observed) {
    for (const Observation& ob : per_reader) {
      ASSERT_GE(ob.version, 1u);
      ASSERT_LE(ob.version, databases.size());
      const auto expected =
          serial_localize(databases[ob.version - 1], queries[ob.query]);
      EXPECT_EQ(ob.estimate.cell, expected.cell);
      EXPECT_EQ(ob.estimate.score, expected.score);  // bit-exact
      ++checked;
      versions_seen.push_back(ob.version);
    }
  }
  EXPECT_GT(checked, 0u);
}

// Registry churn under readers: site lookups stay safe while other sites
// register and drop (the copy-on-write map republish), and a reader of
// the churned site itself sees either a served answer or kNotFound — never
// a shard that is in the map before its first bundle is published.
TEST(ServeConcurrency, RegistryChurnDoesNotDisturbReaders) {
  const auto& run = iup::test::office_run();
  Engine engine = office_engine(run);
  const auto queries = office_queries(run, 4, "serve-churn");
  const auto expected =
      serial_localize(run.ground_truth.at_day(0), queries[0]);
  // The churned site keeps the first slot of every link's band: a
  // registrable one-slot grid that registers ~4x faster than the full
  // one, so the loop affords enough cycles to hit the registration window.
  const core::BandLayout layout =
      core::band_layout_of(run.ground_truth.at_day(0));
  std::vector<std::size_t> churn_cells;
  for (std::size_t link = 0; link < layout.links; ++link) {
    churn_cells.push_back(layout.cell(link, 0));
  }
  const linalg::Matrix churn_x =
      run.ground_truth.at_day(0).select_columns(churn_cells);
  const linalg::Matrix churn_mask = run.b_mask.select_columns(churn_cells);

  constexpr int kCycles = 1000;
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    for (int i = 0; i < kCycles && !stop.load(); ++i) {
      const auto reg = engine.register_site("churn", churn_x, churn_mask);
      if (!reg.ok() || !engine.drop_site("churn").ok()) {
        ADD_FAILURE() << "churn cycle " << i << ": "
                      << reg.status().to_string();
        break;
      }
    }
    stop.store(true);
  });
  std::size_t churn_reads = 0;
  std::thread churn_reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto est = engine.localize("churn", queries[1]);
      ++churn_reads;
      if (!est.ok() && est.status().code() != StatusCode::kNotFound) {
        ADD_FAILURE() << est.status().to_string();
        stop.store(true);
      }
    }
  });
  std::size_t reads = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const auto est = engine.localize("office", queries[0]);
    if (!est.ok()) {
      ADD_FAILURE() << est.status().to_string();
      stop.store(true);
      break;
    }
    EXPECT_EQ(est.value().cell, expected.cell);
    EXPECT_EQ(est.value().score, expected.score);
    ++reads;
  }
  churn.join();
  churn_reader.join();
  EXPECT_GT(reads, 0u);
  EXPECT_GT(churn_reads, 0u);
  EXPECT_EQ(engine.published("churn").status().code(), StatusCode::kNotFound);
}

TEST(ServeReadPath, ScopeNestsAndReportsState) {
  EXPECT_FALSE(serve::in_read_path());
  {
    serve::ReadPathScope outer;
    EXPECT_TRUE(serve::in_read_path());
    {
      serve::ReadPathScope inner;
      EXPECT_TRUE(serve::in_read_path());
    }
    EXPECT_TRUE(serve::in_read_path());
  }
  EXPECT_FALSE(serve::in_read_path());
}

}  // namespace
}  // namespace iup::api
