// fleet_update and serve_under_update: an 8-site fleet updated from
// simulated reference surveys through the public api::Engine surface.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "layers.hpp"
#include "rng/rng.hpp"
#include "serve/shard.hpp"
#include "sim/sampler.hpp"
#include "sim/testbeds.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace iup;

// Work rates that turn --seconds into a fixed amount of work; set so one
// run measures for about --seconds on a 4-vCPU x86-64 host.
constexpr double kFleetRoundsPerSecond = 16.0;  // round = 1 update per site
// Writer period 50 ms, 5x faster than bench_serve_soak's 250 ms: a probe
// at 250 ms committed 60 updates in a 15 s run, too few scored queries for
// a steady loc_err_p90_m (README.md, "Where the traffic figures come
// from").
constexpr double kServeUpdatesPerSecond = 20.0;
constexpr std::size_t kSetupRepeats = 40;  // serve: set-ups before the run
constexpr std::size_t kProbeQueries = 8;  // localize probe after a commit
constexpr std::size_t kPoolPerStamp = 128;  // labelled queries per site-day
// bench_serve_soak's tight history limit: once a site holds 4 versions,
// every commit evicts one under the readers.
constexpr std::size_t kHistory = 4;
constexpr std::size_t kScoreQueries = 32;  // serve: per commit
constexpr std::size_t kReaders = 2;  // + the writer: three busy threads
constexpr std::size_t kReaderSiteSequence = 4096;
// YCSB's hotspot distribution at its defaults: 80% of operations spread
// evenly over the hot 20% of keys, the rest evenly over the others.  Of 8
// sites the hot set is 2 (the nearest whole number to 20%).
constexpr double kHotReadShare = 0.8;
constexpr std::size_t kHotSites[2] = {0, 3};  // office-0, mixed-0

struct Query {
  std::vector<double> rss;
  std::size_t cell = 0;
};

struct FleetSite {
  std::string name;
  std::unique_ptr<eval::EnvironmentRun> run;
  bool sourced = false;  ///< mixed-radio: registered with its source table
  std::vector<std::vector<Query>> pool;  ///< [update stamp][k], labelled
};

using Fleet = std::vector<FleetSite>;

sim::Testbed make_testbed(const std::string& kind, std::uint64_t seed) {
  if (kind == "office") return sim::make_office_testbed(seed);
  if (kind == "library") return sim::make_library_testbed(seed);
  if (kind == "hall") return sim::make_hall_testbed(seed);
  sim::MixedRadioOptions options;
  options.seed = seed;
  return sim::make_mixed_radio_testbed(options);
}

std::string seed_tag(std::uint64_t seed) {
  std::string tag = std::to_string(seed);
  tag.insert(tag.begin(), 's');
  return tag;
}

/// Two sites each of office 8x96, library 6x72, hall 8x120 and mixed-radio
/// 9x108, interleaved by shape; every testbed seed, sampler stream and
/// query cell derives from the workload seed.
Fleet make_fleet(std::uint64_t seed) {
  static const char* const kKinds[] = {"office", "library", "hall", "mixed"};
  Fleet fleet;
  for (std::size_t copy = 0; copy < 2; ++copy) {
    for (const char* kind : kKinds) {
      const std::size_t index = fleet.size();
      FleetSite site;
      site.name = std::string(kind) + "-" + std::to_string(copy);
      site.sourced = std::string(kind) == "mixed";
      site.run = std::make_unique<eval::EnvironmentRun>(
          make_testbed(kind, derive_seed(seed, 100 + index)));
      const sim::Testbed& tb = site.run->testbed;
      rng::Rng pick(derive_seed(seed, 200 + index));
      for (const std::size_t day : sim::paper_update_stamps()) {
        sim::Sampler sampler(tb, "pool-" + seed_tag(seed) + "-day" +
                                     std::to_string(day));
        std::vector<Query> queries(kPoolPerStamp);
        for (Query& q : queries) {
          q.cell = pick.uniform_index(tb.num_cells());
          q.rss = sampler.online_measurement(q.cell, day, 3);
        }
        site.pool.push_back(std::move(queries));
      }
      fleet.push_back(std::move(site));
    }
  }
  return fleet;
}

std::vector<std::string> site_names(const Fleet& fleet) {
  std::vector<std::string> names;
  for (const FleetSite& s : fleet) names.push_back(s.name);
  return names;
}

/// One set-up: Engine construction + register_site + attach_deployment for
/// every site.  Appends its wall time [s] to `setup_s`.
std::unique_ptr<api::Engine> register_fleet(const Fleet& fleet,
                                            const api::EngineConfig& config,
                                            Samples& setup_s, Gate& gate,
                                            Tracer& tracer,
                                            std::uint64_t request) {
  const std::int64_t start = now_ns();
  auto engine = std::make_unique<api::Engine>(config);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const FleetSite& site = fleet[i];
    const std::int64_t reg_start = now_ns();
    const linalg::Matrix& x0 = site.run->ground_truth.at_day(0);
    const api::Result<api::SnapshotPtr> registered =
        site.sourced ? engine->register_site(site.name, x0, site.run->b_mask,
                                             site.run->testbed.sources())
                     : engine->register_site(site.name, x0, site.run->b_mask);
    const api::Status attached = engine->attach_deployment(
        site.name, &site.run->testbed.deployment());
    tracer.add(kSpanRegister, reg_start, now_ns(), request * 100 + i);
    gate.check(registered.ok(), "register " + site.name + ": " +
                                    registered.status().to_string());
    gate.check(attached.ok(),
               "attach " + site.name + ": " + attached.to_string());
  }
  setup_s.add(static_cast<double>(now_ns() - start) * 1e-9);
  return engine;
}

std::vector<std::vector<CellId>> reference_cells(const Fleet& fleet,
                                                 const api::Engine& engine,
                                                 Gate& gate) {
  std::vector<std::vector<CellId>> cells;
  for (const FleetSite& site : fleet) {
    api::Result<std::vector<CellId>> refs = engine.reference_cells(site.name);
    gate.check(refs.ok(), "reference_cells " + site.name);
    cells.push_back(refs.ok() ? refs.value() : std::vector<CellId>{});
  }
  return cells;
}

/// One update request for `site` at stamp `stamp_index` of round `round`:
/// a fresh simulated reference survey (its own sampler stream per round).
api::UpdateRequest make_request(const FleetSite& site,
                                const std::vector<CellId>& cells,
                                std::size_t round, std::size_t stamp_index,
                                std::uint64_t seed) {
  const std::size_t day = sim::paper_update_stamps()[stamp_index];
  api::UpdateRequest request = eval::collect_update_request(
      *site.run, site.name, cells, day, 5,
      "survey-" + seed_tag(seed) + "-r" + std::to_string(round));
  if (site.sourced) request.inputs.sources = site.run->testbed.sources();
  return request;
}

/// Traced-run layer probes after one committed update.
void trace_commit(Tracer& tracer, std::uint64_t request,
                  const api::Engine& engine, const FleetSite& site,
                  const api::UpdateResult& result, const WarmView& warm,
                  SolverStats& stats) {
  const std::size_t lrr_iterations =
      rerun_refresh(tracer, request, engine, *result.snapshot, warm);
  rerun_build(tracer, request, result.x_hat(),
              &site.run->testbed.deployment());
  stats.add(result, lrr_iterations, warm.factor_hit);
}

}  // namespace

// --------------------------------------------------------------------------
// fleet_update: one thread, closed loop, in survey epochs.  An epoch is the
// paper's lifecycle for the whole fleet: a fresh engine registers every
// site from its original survey (one setup_s sample), then the sites update
// round-robin through Engine::update() at each of the paper's five update
// stamps, with fresh survey noise every round.  Each commit is followed by
// a small labelled localize probe on that site (the first reads of a
// freshly published bundle).
// --------------------------------------------------------------------------
void run_fleet_update(const Options& options, bool traced, Report& report,
                      Gate& gate) {
  const Fleet fleet = make_fleet(options.seed);
  HookClock clock;
  api::EngineConfig config = api::EngineConfig().history_limit(kHistory);
  if (traced) config.update_hooks(stamping_hooks(&clock));
  Tracer tracer(traced);
  const std::uint64_t violations_before = serve::read_path_lock_violations();

  const std::size_t stamps = sim::paper_update_stamps().size();
  const std::size_t epochs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             options.seconds * kFleetRoundsPerSecond /
             static_cast<double>(stamps))));
  Samples setup_s, update_ms, localize_us, loc_err_m, recon_db;
  update_ms.reserve(epochs * stamps * fleet.size());
  localize_us.reserve(epochs * stamps * fleet.size() * kProbeQueries);
  SolverStats stats;
  std::uint64_t request_id = 0, spd = 0;
  const std::vector<std::string> names = site_names(fleet);

  std::vector<api::UpdateRequest> batch(fleet.size());
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    std::unique_ptr<api::Engine> engine =
        register_fleet(fleet, config, setup_s, gate, tracer, epoch);
    const std::vector<std::vector<CellId>> cells =
        reference_cells(fleet, *engine, gate);
    for (std::size_t stamp = 0; stamp < stamps; ++stamp) {
      const std::size_t round = epoch * stamps + stamp;
      const std::size_t day = sim::paper_update_stamps()[stamp];
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        batch[i] = make_request(fleet[i], cells[i], round, stamp, options.seed);
      }
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        const FleetSite& site = fleet[i];
        const std::uint64_t request = ++request_id;
        const WarmView warm =
            traced ? read_warm(*engine, site.name) : WarmView{};

        const std::int64_t start = now_ns();
        const api::Result<api::UpdateResult> result = engine->update(batch[i]);
        const std::int64_t end = now_ns();
        gate.op("update", result.ok(), result.status().to_string());
        if (!result.ok()) continue;
        update_ms.add(static_cast<double>(end - start) * 1e-6);
        if (traced) {
          record_update_spans(tracer, request, start, end, clock);
          trace_commit(tracer, request, *engine, site, result.value(), warm,
                       stats);
        }
        recon_db.add(eval::score_reconstruction(*site.run, result->x_hat(), day)
                         .median_db);

        // Probe: kProbeQueries labelled reads of the new version.
        const std::vector<Query>& pool = site.pool[stamp];
        const std::size_t offset = (epoch * kProbeQueries) % pool.size();
        const api::Result<serve::PublishedPtr> bundle =
            traced ? engine->published(site.name)
                   : api::Result<serve::PublishedPtr>(serve::PublishedPtr{});
        for (std::size_t k = 0; k < kProbeQueries; ++k) {
          const Query& q = pool[(offset + k) % pool.size()];
          const std::int64_t q_start = now_ns();
          const api::Result<loc::LocalizationEstimate> est =
              engine->localize(site.name, q.rss);
          const std::int64_t q_end = now_ns();
          gate.op("localize", est.ok(), est.status().to_string());
          if (!est.ok()) continue;
          localize_us.add(static_cast<double>(q_end - q_start) * 1e-3);
          loc_err_m.add(eval::localization_error_m(
              site.run->testbed.deployment(), q.cell, est->cell));
          if (traced) {
            tracer.add(kSpanLocalize, q_start, q_end, request);
            const std::int64_t m_start = now_ns();
            const loc::LocalizationEstimate direct =
                bundle.value()->localizer->localize(q.rss);
            tracer.add(kSpanMatch, m_start, now_ns(), request);
            gate.check(direct.cell == est->cell,
                       "bundle match agrees with Engine::localize");
          }
        }
      }
    }
    spd += spd_fallbacks(*engine, names);
  }

  report.add("setup_s", "s", setup_s.median(), setup_s.size());
  report.add("update_p50_ms", "ms", update_ms.median(), update_ms.size());
  report.add("update_p90_ms", "ms", update_ms.quantile(0.9), update_ms.size());
  report.add_p50_p90("localize", "us", localize_us);
  report_accuracy(report, loc_err_m, recon_db, gate);

  const std::uint64_t violations =
      serve::read_path_lock_violations() - violations_before;
  gate.check(violations == 0, "serve read path took no state lock");
  report.add("linalg.spd_fallbacks", "count", static_cast<double>(spd));
  report.add("serve.read_path_violations", "count",
             static_cast<double>(violations));
  if (traced) {
    const std::vector<const Tracer*> tracers = {&tracer};
    stats.report(report);
    report_update_layers(tracers, report);
    report_read_layers(tracers, report);
    write_spans(options, tracers);
  }
}

// --------------------------------------------------------------------------
// serve_under_update: the same fleet, three threads.  Two closed-loop
// readers localize pre-generated drifting measurements, mostly on two hot
// sites; one open-loop writer commits a fixed number of updates at a fixed
// period over every site (hot ones included), each timed from its
// scheduled start.  The history limit keeps eviction churning under the
// readers.  Accuracy is scored on each committed version in the writer's
// idle time.
// --------------------------------------------------------------------------
void run_serve_under_update(const Options& options, bool traced,
                            Report& report, Gate& gate) {
  const Fleet fleet = make_fleet(options.seed);
  HookClock clock;
  api::EngineConfig config = api::EngineConfig().history_limit(kHistory);
  if (traced) config.update_hooks(stamping_hooks(&clock));
  Tracer writer_tracer(traced);

  const std::uint64_t violations_before = serve::read_path_lock_violations();
  // Set-up repeated into fresh engines (setup_s is the median); the last
  // engine serves the run.
  Samples setup_s;
  std::unique_ptr<api::Engine> engine;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    engine = register_fleet(fleet, config, setup_s, gate, writer_tracer, rep);
  }
  report.add("setup_s", "s", setup_s.median(), setup_s.size());
  const std::vector<std::vector<CellId>> cells =
      reference_cells(fleet, *engine, gate);

  // Reader site sequences, hotspot-distributed (kHotReadShare of reads on
  // the two hot sites); each reader gets its own seeded sequence.
  std::vector<std::vector<std::uint8_t>> sequences(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    rng::Rng skew(derive_seed(options.seed, 300 + r));
    for (std::size_t k = 0; k < kReaderSiteSequence; ++k) {
      const double u = skew.uniform();
      std::size_t site = 0;
      if (u < kHotReadShare / 2) {
        site = kHotSites[0];
      } else if (u < kHotReadShare) {
        site = kHotSites[1];
      } else {
        do {
          site = skew.uniform_index(fleet.size());
        } while (site == kHotSites[0] || site == kHotSites[1]);
      }
      sequences[r].push_back(static_cast<std::uint8_t>(site));
    }
  }

  const std::size_t updates = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(options.seconds *
                                              kServeUpdatesPerSecond)));
  const std::int64_t period_ns =
      static_cast<std::int64_t>(1e9 / kServeUpdatesPerSecond);
  std::atomic<bool> writer_done{false};

  struct ReaderOut {
    LogHistogram localize_ns;
    Gate gate;
    Tracer tracer;
  };
  std::vector<ReaderOut> readers(kReaders);
  for (ReaderOut& r : readers) r.tracer = Tracer(traced);
  const std::size_t stamps = sim::paper_update_stamps().size();

  auto reader_loop = [&](std::size_t r) {
    ReaderOut& out = readers[r];
    const std::vector<std::uint8_t>& seq = sequences[r];
    std::size_t k = 0;
    while (!writer_done.load(std::memory_order_acquire)) {
      const FleetSite& site = fleet[seq[k % seq.size()]];
      // Drift as in bench_serve_soak: the measurement day advances every
      // third read.
      const std::vector<Query>& pool = site.pool[(k / 3) % stamps];
      const Query& q = pool[(k * 7 + r) % pool.size()];
      const std::int64_t start = now_ns();
      const api::Result<loc::LocalizationEstimate> est =
          engine->localize(site.name, q.rss);
      const std::int64_t end = now_ns();
      out.gate.op("localize", est.ok(), est.status().to_string());
      out.localize_ns.add(static_cast<double>(end - start));
      if (traced) {
        out.tracer.add(kSpanLocalize, start, end, k);
        const api::Result<serve::PublishedPtr> bundle =
            engine->published(site.name);
        const std::int64_t m_start = now_ns();
        bundle.value()->localizer->localize(q.rss);
        out.tracer.add(kSpanMatch, m_start, now_ns(), k);
      }
      ++k;
    }
  };
  auto reader_main = [&](std::size_t r) {
    try {
      reader_loop(r);
    } catch (const std::exception& e) {
      readers[r].gate.check(false, std::string("reader: ") + e.what());
    }
  };

  // Days advance through the five stamps once over the run: every site
  // ages from day 3 to day 90, never back (cycling back on one long-lived
  // engine compounds reconstruction error; see README).
  const std::size_t rounds = (updates + fleet.size() - 1) / fleet.size();
  const auto stamp_of = [&](std::size_t round) {
    return std::min(stamps - 1, round * stamps / rounds);
  };
  Samples update_ms, service_ms, lateness_ms, recon_db, loc_err_m;
  SolverStats stats;
  {
    std::vector<std::thread> threads;
    // Stops and joins the readers on every way out of this block.
    struct JoinReaders {
      std::atomic<bool>& done;
      std::vector<std::thread>& threads;
      ~JoinReaders() {
        done.store(true, std::memory_order_release);
        for (std::thread& t : threads) t.join();
      }
    } join_readers{writer_done, threads};
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back(reader_main, r);
    }
    // Writer (this thread).
    api::UpdateRequest next =
        make_request(fleet[0], cells[0], 0, stamp_of(0), options.seed);
    const std::int64_t origin = now_ns() + period_ns;
    for (std::size_t u = 0; u < updates; ++u) {
      const std::size_t i = u % fleet.size();
      const std::size_t round = u / fleet.size();
      const std::size_t stamp = stamp_of(round);
      const FleetSite& site = fleet[i];
      const std::int64_t due = origin + static_cast<std::int64_t>(u) * period_ns;
      // Busy-wait for the due time.  A sleeping writer lets its vCPU halt
      // and wake up cold, which on a shared VM host swung the writer's
      // latency by a fifth from run to run.
      while (now_ns() < due) cpu_relax();
      const WarmView warm =
          traced ? read_warm(*engine, site.name) : WarmView{};
      const std::int64_t start = now_ns();
      const api::Result<api::UpdateResult> result = engine->update(next);
      const std::int64_t end = now_ns();
      gate.op("update", result.ok(), result.status().to_string());
      lateness_ms.add(static_cast<double>(start - due) * 1e-6);
      if (result.ok()) {
        update_ms.add(static_cast<double>(end - due) * 1e-6);
        service_ms.add(static_cast<double>(end - start) * 1e-6);
        if (traced) {
          record_update_spans(writer_tracer, u + 1, start, end, clock);
          trace_commit(writer_tracer, u + 1, *engine, site, result.value(),
                       warm, stats);
        }
        recon_db.add(eval::score_reconstruction(
                         *site.run, result->x_hat(),
                         sim::paper_update_stamps()[stamp])
                         .median_db);
        // Accuracy of the committed version on labelled queries of its
        // day, scored in the writer's idle time against the bundle it just
        // published (the writer is the only committer).
        const api::Result<serve::PublishedPtr> bundle =
            engine->published(site.name);
        const std::vector<Query>& pool = site.pool[stamp];
        for (std::size_t k = 0; k < kScoreQueries; ++k) {
          const Query& q = pool[(round * kScoreQueries + k) % pool.size()];
          const loc::LocalizationEstimate est =
              bundle.value()->localizer->localize(q.rss);
          loc_err_m.add(eval::localization_error_m(
              site.run->testbed.deployment(), q.cell, est.cell));
        }
      }
      // Prepare the next request inside the idle part of the period.
      if (u + 1 < updates) {
        const std::size_t ni = (u + 1) % fleet.size();
        const std::size_t nround = (u + 1) / fleet.size();
        next = make_request(fleet[ni], cells[ni], nround, stamp_of(nround),
                            options.seed);
      }
    }
  }

  LogHistogram localize_ns;
  for (ReaderOut& r : readers) {
    localize_ns.merge(r.localize_ns);
    gate.merge(r.gate);
  }

  report.add("update_p50_ms", "ms", update_ms.median(), update_ms.size());
  report.add("update_service_p50_ms", "ms", service_ms.median(),
             service_ms.size());
  report.add("writer_max_lateness_ms", "ms", lateness_ms.max(),
             lateness_ms.size());
  report.add("localize_p50_us", "us", localize_ns.quantile(0.5) * 1e-3,
             localize_ns.size());
  report.add("localize_p90_us", "us", localize_ns.quantile(0.9) * 1e-3,
             localize_ns.size());
  report_accuracy(report, loc_err_m, recon_db, gate);

  const std::uint64_t violations =
      serve::read_path_lock_violations() - violations_before;
  gate.check(violations == 0, "serve read path took no state lock");
  report.add("linalg.spd_fallbacks", "count",
             static_cast<double>(spd_fallbacks(*engine, site_names(fleet))));
  report.add("serve.read_path_violations", "count",
             static_cast<double>(violations));
  if (traced) {
    std::vector<const Tracer*> tracers = {&writer_tracer};
    for (const ReaderOut& r : readers) tracers.push_back(&r.tracer);
    stats.report(report);
    report_update_layers({&writer_tracer}, report);
    report_read_layers(tracers, report);
    write_spans(options, tracers);
  }
}

}  // namespace perfbench
