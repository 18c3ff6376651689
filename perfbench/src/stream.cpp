// stream_durable: a seeded participatory trace replayed through the
// supervised ingest pipeline with durability on, then recovered.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "eval/metrics.hpp"
#include "geom/geometry.hpp"
#include "ingest/supervisor.hpp"
#include "layers.hpp"
#include "persist/durability.hpp"
#include "rng/rng.hpp"
#include "serve/shard.hpp"
#include "sim/fingerprint_builder.hpp"
#include "sim/testbeds.hpp"
#include "trace/capture.hpp"
#include "trace/fingerprint_csv.hpp"
#include "trace/observation_csv.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace iup;

// Work rate that turns --seconds into a fixed number of trace passes; set
// so one run measures for about --seconds on a 4-vCPU x86-64 host.
constexpr double kPassesPerSecond = 1.1;
constexpr std::size_t kDayStep = 3;  // trace days 3, 6, ..., 90
constexpr std::size_t kDays = 30;
constexpr std::size_t kSamplesPerEntry = 3;  // trace::CaptureOptions default
constexpr std::size_t kQueriesPerDay = 16;  // labelled, per site and day
constexpr std::size_t kObserveBatch = 64;
constexpr std::size_t kHistory = 4;
// A roll every 8 commits, as in bench_serve_soak's RECOVER mode, puts
// checkpoint cost in 1/8 of the commits, inside the freshness p90.
constexpr std::size_t kCheckpointEvery = 8;
constexpr std::size_t kRestores = 15;
constexpr std::uint64_t kWrongSource = 999'999;

/// Generator output for one site: the files the workload imports plus the
/// scorer's ground truth.
struct StreamSite {
  std::string name;
  std::unique_ptr<sim::Testbed> testbed;
  std::string fingerprint_csv, observation_csv, query_csv;
  std::vector<bool> corrupted;  ///< per observation row
  std::size_t corrupted_count = 0;
  linalg::Matrix mask;
  std::vector<linalg::Matrix> truth;  ///< by day index
};

std::vector<std::size_t> trace_days() {
  std::vector<std::size_t> days;
  for (std::size_t k = 1; k <= kDays; ++k) days.push_back(k * kDayStep);
  return days;
}

/// One office site, one mixed-radio site whose middle BLE beacon is dead,
/// and one library site; each captured over the trace days with many
/// readings per covered entry, corrupted readings at seeded rows and
/// day-matched labelled queries, written as CSV.
std::vector<StreamSite> make_stream_sites(const Options& options) {
  const std::string dir = options.data_dir + "/trace";
  make_dirs(dir);
  const std::vector<std::size_t> days = trace_days();
  static const char* const kNames[] = {"office", "mixed", "library"};
  std::vector<StreamSite> sites;
  for (std::size_t index = 0; index < 3; ++index) {
    StreamSite site;
    site.name = kNames[index];
    const std::uint64_t tb_seed = derive_seed(options.seed, 500 + index);
    if (site.name == "office") {
      site.testbed = std::make_unique<sim::Testbed>(sim::make_office_testbed(tb_seed));
    } else if (site.name == "library") {
      site.testbed = std::make_unique<sim::Testbed>(sim::make_library_testbed(tb_seed));
    } else {
      sim::MixedRadioOptions mixed;
      mixed.seed = tb_seed;
      const std::vector<SourceInfo> sources =
          sim::mixed_radio_sources(mixed.num_links);
      mixed.missing_sources = {sources[mixed.num_links / 2].id};
      site.testbed = std::make_unique<sim::Testbed>(sim::make_mixed_radio_testbed(mixed));
    }
    trace::CaptureOptions capture;
    capture.observation_days = days;
    capture.samples_per_entry = kSamplesPerEntry;
    capture.queries = 1;  // replaced by day-matched queries below
    api::Result<trace::CapturedTrace> captured =
        trace::capture_trace(*site.testbed, capture);
    if (!captured.ok()) {
      throw std::runtime_error("capture_trace: " +
                               captured.status().to_string());
    }
    trace::CapturedTrace& t = captured.value();

    // One reading of each quarantine class (non-finite, out of range,
    // wrong source id) per trace day, at seeded rows of that day: the
    // fewest that put every class into every day's stream of every site,
    // so the quarantine runs before every update, while observe_* still
    // times the accept path (3 of ~1,500 readings a site-day).
    rng::Rng corrupt(derive_seed(options.seed, 600 + index));
    site.corrupted.assign(t.observations.size(), false);
    for (std::size_t begin = 0, end = 0; begin < t.observations.size();
         begin = end) {
      while (end < t.observations.size() &&
             t.observations[end].day == t.observations[begin].day) {
        ++end;
      }
      for (int kind = 0; kind < 3 && end - begin >= 3; ++kind) {
        std::size_t row = 0;
        do {
          row = begin + corrupt.uniform_index(end - begin);
        } while (site.corrupted[row]);
        ingest::Observation& obs = t.observations[row];
        switch (kind) {
          case 0: obs.rss_db = std::nan(""); break;
          case 1: obs.rss_db = 500.0; break;
          default: obs.source = SourceId(kWrongSource); break;
        }
        site.corrupted[row] = true;
        ++site.corrupted_count;
      }
    }

    // Labelled queries for every trace day (the capture records its own at
    // the last day only), so each commit is scored on its own day.
    t.queries.clear();
    rng::Rng pick(derive_seed(options.seed, 700 + index));
    for (const std::size_t day : days) {
      sim::Sampler online(*site.testbed, "query-s" +
                                             std::to_string(options.seed) +
                                             "-day" + std::to_string(day));
      for (std::size_t k = 0; k < kQueriesPerDay; ++k) {
        const std::size_t cell = pick.uniform_index(site.testbed->num_cells());
        trace::LocalizationQuery q;
        q.id = t.queries.size();
        q.day = day;
        q.true_position = site.testbed->deployment().cell_center(cell);
        q.rss_db = online.online_measurement(cell, day, 3);
        t.queries.push_back(std::move(q));
      }
    }

    site.fingerprint_csv = dir + "/" + site.name + "-fingerprint.csv";
    site.observation_csv = dir + "/" + site.name + "-observations.csv";
    site.query_csv = dir + "/" + site.name + "-queries.csv";
    for (const api::Status& s :
         {trace::write_fingerprint_csv(t.fingerprint, site.fingerprint_csv),
          trace::write_observation_csv(t.observations, site.observation_csv),
          trace::write_query_csv(t.queries, site.query_csv)}) {
      if (!s.ok()) throw std::runtime_error("trace write: " + s.to_string());
    }
    site.mask = t.fingerprint.mask;
    site.truth = sim::collect_ground_truth(*site.testbed, days).x;
    sites.push_back(std::move(site));
  }
  return sites;
}

/// One live set-up: durability manager, engine, imported trace, watched
/// sites.  Declaration order makes destruction release the supervisor
/// first and the manager (whose hooks the engine holds) last.
struct Live {
  std::unique_ptr<persist::DurabilityManager> manager;
  std::unique_ptr<api::Engine> engine;
  std::unique_ptr<ingest::UpdateSupervisor> supervisor;
  std::vector<std::vector<ingest::Observation>> observations;
  std::vector<std::vector<trace::LocalizationQuery>> queries;
  std::size_t rows = 0;
};

std::unique_ptr<Live> set_up(const std::vector<StreamSite>& sites,
                             const std::string& dir, bool traced,
                             HookClock* clock, Gate& gate,
                             Tracer& tracer, std::size_t rep) {
  auto live = std::make_unique<Live>();
  persist::DurabilityOptions durable;
  durable.dir = dir;
  durable.checkpoint_every = kCheckpointEvery;
  // The checkout may sit on a VM disk; without fsync the figures measure
  // encoding, CRC and write syscalls instead of the disk's flush latency.
  durable.fsync = false;
  live->manager = std::make_unique<persist::DurabilityManager>(durable);
  api::UpdateHooks hooks =
      live->manager->engine_hooks(traced ? stamping_hooks(clock)
                                         : api::UpdateHooks{});
  if (traced) {
    hooks.after_commit = [inner = std::move(hooks.after_commit),
                          clock](const api::CommitEvent& event) {
      inner(event);  // stamps clock->after_commit, then the WAL tap runs
      clock->tap_end = now_ns();
    };
  }
  live->engine = std::make_unique<api::Engine>(
      api::EngineConfig().history_limit(kHistory).update_hooks(hooks));
  const api::Status bound = live->manager->bind(live->engine.get());
  gate.check(bound.ok(), "durability bind: " + bound.to_string());

  const std::int64_t import_start = now_ns();
  std::vector<trace::FingerprintTable> tables;
  for (const StreamSite& site : sites) {
    api::Result<trace::FingerprintTable> table =
        trace::read_fingerprint_csv(site.fingerprint_csv);
    api::Result<std::vector<ingest::Observation>> obs =
        trace::read_observation_csv(site.observation_csv);
    const std::size_t links = table.ok() ? table->database.rows() : 0;
    api::Result<std::vector<trace::LocalizationQuery>> queries =
        trace::read_query_csv(site.query_csv, links);
    gate.check(table.ok() && obs.ok() && queries.ok(),
               "trace import " + site.name);
    if (!table.ok() || !obs.ok() || !queries.ok()) return live;
    live->rows += table->database.rows() * table->database.cols() +
                  obs->size() + queries->size() * links;
    tables.push_back(std::move(table).value());
    live->observations.push_back(std::move(obs).value());
    live->queries.push_back(std::move(queries).value());
  }
  tracer.add("trace.import", import_start, now_ns(), rep);

  for (std::size_t i = 0; i < sites.size(); ++i) {
    const std::int64_t reg_start = now_ns();
    trace::FingerprintTable& table = tables[i];
    const api::Result<api::SnapshotPtr> registered = live->engine->register_site(
        sites[i].name, std::move(table.database), std::move(table.mask),
        std::move(table.sources));
    const api::Status attached = live->engine->attach_deployment(
        sites[i].name, &sites[i].testbed->deployment());
    tracer.add(kSpanRegister, reg_start, now_ns(), rep * 100 + i);
    gate.check(registered.ok() && attached.ok(), "register " + sites[i].name);
  }

  live->supervisor = std::make_unique<ingest::UpdateSupervisor>(*live->engine);
  for (const StreamSite& site : sites) {
    ingest::WatchOptions watch;
    // Out of reach: commits happen only at the day-boundary trigger()s,
    // while the EWMA still runs on every reading.
    watch.drift.threshold_db = 1e9;
    const api::Status watched = live->supervisor->watch(site.name, watch);
    gate.check(watched.ok(), "watch " + site.name);
  }
  return live;
}

double distance_m(const sim::Deployment& dep, geom::Point2 truth,
                  std::size_t cell) {
  return geom::distance(truth, dep.cell_center(cell));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

void run_stream_durable(const Options& options, bool traced, Report& report,
                        Gate& gate) {
  const std::vector<StreamSite> sites = make_stream_sites(options);
  const std::string dir = options.data_dir + "/durable";
  const std::vector<std::size_t> days = trace_days();
  HookClock clock;
  Tracer tracer(traced);
  const std::uint64_t violations_before = serve::read_path_lock_violations();

  const std::size_t passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(options.seconds *
                                              kPassesPerSecond)));
  Samples setup_s, observe_ns, update_ms, freshness_ms, localize_us, recon_db,
      loc_err_m;
  Samples collect_us, wal_us, checkpoint_ms;
  SolverStats stats;
  std::uint64_t accepted = 0, quarantined = 0, spd = 0, wal_appends = 0,
                checkpoints = 0;
  std::uint64_t request = 0;
  std::vector<std::uint64_t> version(sites.size());
  std::vector<std::string> names;
  for (const StreamSite& site : sites) names.push_back(site.name);
  bool statuses[kObserveBatch];

  // One pass = one deployment lifecycle: a fresh set-up (one setup_s
  // sample) into an empty durability directory, then every trace day.
  std::unique_ptr<Live> live;
  for (std::size_t pass = 0; pass < passes && gate.passed(); ++pass) {
    live.reset();
    remove_all(dir);
    const std::int64_t setup_start = now_ns();
    live = set_up(sites, dir, traced, &clock, gate, tracer, pass);
    setup_s.add(static_cast<double>(now_ns() - setup_start) * 1e-9);
    if (!gate.passed()) break;
    api::Engine& engine = *live->engine;
    ingest::UpdateSupervisor& supervisor = *live->supervisor;
    persist::DurabilityManager& manager = *live->manager;
    std::fill(version.begin(), version.end(), 1);

    // Row ranges of each trace day per site (the capture is day-sorted).
    std::vector<std::vector<std::size_t>> day_begin(sites.size());
    for (std::size_t s = 0; s < sites.size(); ++s) {
      const auto& obs = live->observations[s];
      std::size_t row = 0;
      for (const std::size_t day : days) {
        day_begin[s].push_back(row);
        while (row < obs.size() && obs[row].day == day) ++row;
      }
      day_begin[s].push_back(row);
      gate.check(row == obs.size(), "trace rows are day-sorted");
    }

    // Traced runs mirror each site's ingest buffer so the update the
    // supervisor is about to run can be re-solved beforehand through
    // Engine::reconstruct (its RsvdResult carries the solver diagnostics).
    std::vector<serve::SiteHealthCounters> mirror_health(sites.size());
    std::vector<std::unique_ptr<ingest::ObservationBuffer>> mirrors;
    if (traced) {
      for (std::size_t s = 0; s < sites.size(); ++s) {
        const api::SnapshotPtr snap = engine.snapshot(sites[s].name).value();
        mirrors.push_back(std::make_unique<ingest::ObservationBuffer>(
            snap->database().rows(), snap->database().cols(), snap->sources(),
            mirror_health[s]));
      }
    }

    for (std::size_t d = 0; d < days.size(); ++d) {
      for (std::size_t s = 0; s < sites.size(); ++s) {
        const StreamSite& site = sites[s];
        const auto& obs = live->observations[s];
        // Stream the site's readings for the day, timed in batches.
        for (std::size_t row = day_begin[s][d]; row < day_begin[s][d + 1];
             row += kObserveBatch) {
          const std::size_t n =
              std::min(kObserveBatch, day_begin[s][d + 1] - row);
          const std::int64_t start = now_ns();
          for (std::size_t k = 0; k < n; ++k) {
            statuses[k] = supervisor.observe(site.name, obs[row + k]).ok();
          }
          const std::int64_t end = now_ns();
          observe_ns.add(static_cast<double>(end - start) /
                         static_cast<double>(n));
          for (std::size_t k = 0; k < n; ++k) {
            // A corrupted reading the quarantine rejects is a success.
            const bool ok = statuses[k] != site.corrupted[row + k];
            gate.op("observe", ok,
                    ok ? std::string()
                       : site.name + " row " + std::to_string(row + k));
          }
        }

        const WarmView warm =
            traced ? read_warm(engine, site.name) : WarmView{};
        api::Result<api::UpdateResult> rerun =
            api::Status::unavailable("not traced");
        if (traced) {
          for (std::size_t row = day_begin[s][d]; row < day_begin[s][d + 1];
               ++row) {
            (void)mirrors[s]->push(obs[row]);
          }
          api::Result<core::UpdateInputs> inputs =
              mirrors[s]->assemble(*engine.snapshot(site.name).value());
          if (inputs.ok()) {
            rerun = engine.reconstruct(
                api::UpdateRequest{site.name, std::move(inputs).value(),
                                   days[d]});
          }
          mirrors[s]->consume();
        }

        // Day boundary: force the update, pump it on this thread, and
        // wait for the new version to be served and journaled.
        const std::uint64_t appends = manager.wal_appends();
        const std::uint64_t rolls = manager.checkpoints_written();
        const std::int64_t t_trigger = now_ns();
        const api::Status triggered = supervisor.trigger(site.name);
        const std::int64_t t_pump = now_ns();
        const std::size_t ran = supervisor.pump();
        const std::int64_t t_pumped = now_ns();
        const api::Result<serve::PublishedPtr> served =
            engine.published(site.name);
        const std::int64_t t_served = now_ns();
        const bool fresh = triggered.ok() && ran == 1 && served.ok() &&
                           served.value()->snapshot->version() ==
                               version[s] + 1 &&
                           manager.wal_appends() == appends + 1;
        gate.op("update", fresh,
                site.name + " day " + std::to_string(days[d]) + ": " +
                    triggered.to_string());
        if (!fresh) continue;
        ++version[s];
        ++request;
        update_ms.add(static_cast<double>(t_pumped - t_pump) * 1e-6);
        freshness_ms.add(static_cast<double>(t_served - t_trigger) * 1e-6);

        const api::SnapshotPtr& committed = served.value()->snapshot;
        recon_db.add(eval::median_of(eval::reconstruction_errors_db(
            committed->database(), site.truth[d], site.mask, 0.0)));
        if (traced) {
          const bool rolled = manager.checkpoints_written() != rolls;
          tracer.add("ingest.pump", t_pump, t_pumped, request);
          tracer.add("ingest.collect", t_pump, clock.on_solve, request);
          tracer.add(kSpanSolveRefresh, clock.on_solve, clock.before_publish,
                     request);
          tracer.add(kSpanPublish, clock.before_publish, clock.after_commit,
                     request);
          tracer.add(rolled ? "persist.checkpoint" : "persist.wal_append",
                     clock.after_commit, clock.tap_end, request);
          collect_us.add(static_cast<double>(clock.on_solve - t_pump) * 1e-3);
          const double tap_ns =
              static_cast<double>(clock.tap_end - clock.after_commit);
          if (rolled) {
            checkpoint_ms.add(tap_ns * 1e-6);
          } else {
            wal_us.add(tap_ns * 1e-3);
          }
          const std::size_t lrr_iterations =
              rerun_refresh(tracer, request, engine, *committed, warm);
          gate.check(rerun.ok() && rerun->x_hat() == committed->database(),
                     "re-solved update reproduces the committed database");
          if (rerun.ok()) {
            stats.add(rerun.value(), lrr_iterations, warm.factor_hit);
          }
          rerun_build(tracer, request, committed->database(),
                      &site.testbed->deployment());
        }

        // Probe: the first reads of the new version, the day's labelled
        // queries.
        const auto& queries = live->queries[s];
        for (std::size_t k = 0; k < kQueriesPerDay; ++k) {
          const trace::LocalizationQuery& q = queries[d * kQueriesPerDay + k];
          const std::int64_t q_start = now_ns();
          const api::Result<loc::LocalizationEstimate> est =
              engine.localize(site.name, q.rss_db);
          const std::int64_t q_end = now_ns();
          gate.op("localize", est.ok(), est.status().to_string());
          if (!est.ok()) continue;
          localize_us.add(static_cast<double>(q_end - q_start) * 1e-3);
          loc_err_m.add(distance_m(site.testbed->deployment(),
                                   q.true_position, est->cell));
          if (traced) {
            tracer.add(kSpanLocalize, q_start, q_end, request);
            const std::int64_t m_start = now_ns();
            served.value()->localizer->localize(q.rss_db);
            tracer.add(kSpanMatch, m_start, now_ns(), request);
          }
        }
      }
    }

    // Ingest accounting of the pass (health counters live per engine).
    std::uint64_t expected_bad = 0, expected_good = 0, pass_accepted = 0,
                  pass_quarantined = 0;
    for (std::size_t s = 0; s < sites.size(); ++s) {
      const api::Result<api::SiteHealth> health =
          engine.site_health(sites[s].name);
      if (health.ok()) {
        pass_accepted += health->observations_accepted;
        pass_quarantined += health->quarantined_total();
      }
      expected_bad += sites[s].corrupted_count;
      expected_good += live->observations[s].size() - sites[s].corrupted_count;
    }
    gate.check(pass_quarantined == expected_bad,
               "quarantined " + std::to_string(pass_quarantined) +
                   " == corrupted " + std::to_string(expected_bad));
    gate.check(pass_accepted == expected_good, "accepted clean readings");
    gate.check(manager.last_error().ok(),
               "durability last_error: " + manager.last_error().to_string());
    accepted += pass_accepted;
    quarantined += pass_quarantined;
    spd += spd_fallbacks(engine, names);
    wal_appends += manager.wal_appends();
    checkpoints += manager.checkpoints_written();
  }
  report.add("setup_s", "s", setup_s.median(), setup_s.size());
  if (live == nullptr || !gate.passed()) return;
  api::Engine& engine = *live->engine;

  // Recovery: fresh engines restore the final directory; each must serve
  // bit-identical localize results to the live engine at the same version.
  Samples recover_ms;
  const std::uint64_t dir_size = dir_bytes(dir);
  for (std::size_t k = 0; k < kRestores; ++k) {
    api::Engine restored(api::EngineConfig().history_limit(kHistory));
    const std::int64_t start = now_ns();
    const api::Status status = restored.restore_from(dir);
    const std::int64_t end = now_ns();
    gate.op("restore", status.ok(), status.to_string());
    if (!status.ok()) continue;
    recover_ms.add(static_cast<double>(end - start) * 1e-6);
    for (std::size_t s = 0; s < sites.size(); ++s) {
      const std::string& name = sites[s].name;
      gate.check(
          restored.attach_deployment(name, &sites[s].testbed->deployment())
              .ok(),
          "attach after restore");
      const api::Result<api::SnapshotPtr> snap = restored.snapshot(name);
      gate.check(snap.ok() && snap.value()->version() == version[s],
                 "restored " + name + " at the live version");
      bool identical = true;
      for (const trace::LocalizationQuery& q : live->queries[s]) {
        const auto a = engine.localize(name, q.rss_db);
        const auto b = restored.localize(name, q.rss_db);
        identical = identical && a.ok() && b.ok() && a->cell == b->cell &&
                    same_bits(a->score, b->score);
      }
      gate.check(identical,
                 "restored " + name + " serves bit-identical results");
    }
  }

  report.add("update_p50_ms", "ms", update_ms.median(), update_ms.size());
  report.add("update_p90_ms", "ms", update_ms.quantile(0.9), update_ms.size());
  report.add_p50_p90("localize", "us", localize_us);
  report.add_p50_p90("observe", "ns", observe_ns);
  report.add_p50_p90("freshness", "ms", freshness_ms);
  report.add("recover_ms", "ms", recover_ms.median(), recover_ms.size());
  report_accuracy(report, loc_err_m, recon_db, gate);

  const std::uint64_t violations =
      serve::read_path_lock_violations() - violations_before;
  gate.check(violations == 0, "serve read path took no state lock");
  report.add("serve.read_path_violations", "count",
             static_cast<double>(violations));
  report.add("linalg.spd_fallbacks", "count", static_cast<double>(spd));
  report.add("ingest.accepted", "count", static_cast<double>(accepted));
  report.add("ingest.quarantined", "count", static_cast<double>(quarantined));
  report.add("persist.wal_appends", "count", static_cast<double>(wal_appends));
  report.add("persist.checkpoints", "count", static_cast<double>(checkpoints));
  report.add("persist.dir_bytes", "bytes", static_cast<double>(dir_size));
  report.add("trace.rows", "count", static_cast<double>(live->rows));
  if (traced) {
    const std::vector<const Tracer*> tracers = {&tracer};
    report_update_layers(tracers, report);
    report_read_layers(tracers, report);
    const Samples import_ms = merged_durations(tracers, "trace.import", 1e-6);
    report.add("trace.import_ms", "ms", import_ms.median(), import_ms.size());
    report.add("ingest.collect_us", "us", collect_us.median(),
               collect_us.size());
    report.add("persist.wal_append_us", "us", wal_us.median(), wal_us.size());
    report.add("persist.checkpoint_ms", "ms", checkpoint_ms.median(),
               checkpoint_ms.size());
    stats.report(report);
    report.add("stage_sum.freshness_ms", "ms",
               collect_us.median() * 1e-3 + report.value("core.solve_ms") +
                   report.value("core.refresh_ms") +
                   report.value("loc.build_ms") +
                   report.value("api.commit_ms") + wal_us.median() * 1e-3);
    write_spans(options, tracers);
  }
}

}  // namespace perfbench
