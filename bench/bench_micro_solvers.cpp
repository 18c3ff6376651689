// Micro-benchmarks (google-benchmark) for the numerical kernels: SVD,
// LRR, the full update, the batched engine entry points, OMP localization
// and SVR training.
// These are runtime numbers, not paper figures; the paper's desktop
// (i7-4790) runs the whole pipeline interactively and so must we.
//
// scripts/bench.sh runs this binary and records the JSON trajectory in
// BENCH_micro.json (previous run kept as "before").
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>

#include "api/engine.hpp"
#include "baselines/rass.hpp"
#include "core/lrr.hpp"
#include "linalg/cholesky.hpp"
#include "core/mic.hpp"
#include "core/updater.hpp"
#include "eval/experiment.hpp"
#include "ingest/buffer.hpp"
#include "ingest/drift.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/svd.hpp"
#include "loc/omp.hpp"
#include "persist/checkpoint.hpp"
#include "persist/durability.hpp"
#include "persist/wal.hpp"
#include "rng/rng.hpp"

namespace {

using namespace iup;

const eval::EnvironmentRun& office() {
  static eval::EnvironmentRun run(sim::make_office_testbed());
  return run;
}

void BM_SvdOfficeMatrix(benchmark::State& state) {
  const auto& x = office().ground_truth.at_day(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::svd(x));
  }
}
BENCHMARK(BM_SvdOfficeMatrix);

void BM_MicExtraction(benchmark::State& state) {
  const auto& x = office().ground_truth.at_day(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extract_mic(x));
  }
}
BENCHMARK(BM_MicExtraction);

void BM_LrrCorrelation(benchmark::State& state) {
  const auto& x = office().ground_truth.at_day(0);
  const auto mic = core::extract_mic(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_lrr(mic.x_mic, x));
  }
}
BENCHMARK(BM_LrrCorrelation);

void BM_Reconstruct(benchmark::State& state) {
  const auto& run = office();
  api::Engine engine;
  eval::register_run(engine, run, "office");
  const auto cells = engine.reference_cells("office").value();
  const auto request = eval::collect_update_request(run, "office", cells, 45);
  api::Result<api::UpdateResult> last = api::Status::internal("never ran");
  for (auto _ : state) {
    last = engine.reconstruct(request);
    benchmark::DoNotOptimize(last);
  }
  // Sweeps until the convergence stop (RsvdOptions::converge_db); not
  // named "iterations", which google-benchmark's JSON already uses.
  state.counters["sweeps"] =
      static_cast<double>(last.value().solver.iterations);
}
BENCHMARK(BM_Reconstruct);

// The X_hat = L R^T kernel (objective evaluation) on factor shapes from
// the office grid up to a warehouse-scale grid.
void BM_XhatProduct(benchmark::State& state) {
  rng::Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix l(16, 16);
  linalg::Matrix r(n, 16);
  for (double& v : l.data()) v = rng.normal();
  for (double& v : r.data()) v = rng.normal();
  linalg::Matrix out;
  for (auto _ : state) {
    linalg::multiply_transposed_into(l, r, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_XhatProduct)->Arg(96)->Arg(4096);

// Batched engine updates across independent sites.
void BM_UpdateBatchFourSites(benchmark::State& state) {
  const auto& run = office();
  api::Engine engine(api::EngineConfig()
                         .threads(static_cast<std::size_t>(state.range(0)))
                         .history_limit(2));
  std::vector<api::UpdateRequest> requests;
  for (const char* site : {"a", "b", "c", "d"}) {
    eval::register_run(engine, run, site);
    const auto cells = engine.reference_cells(site).value();
    requests.push_back(eval::collect_update_request(run, site, cells, 45));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.update_batch(requests));
  }
}
BENCHMARK(BM_UpdateBatchFourSites)->Arg(1)->Arg(4);

// Batched localization of one measurement per grid cell.
void BM_LocalizeBatch(benchmark::State& state) {
  const auto& run = office();
  api::Engine engine(api::EngineConfig().threads(
      static_cast<std::size_t>(state.range(0))));
  eval::register_run(engine, run, "office");
  const auto& x = run.ground_truth.at_day(0);
  std::vector<std::vector<double>> measurements;
  for (std::size_t j = 0; j < x.cols(); ++j) measurements.push_back(x.col(j));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.localize_batch("office", measurements));
  }
}
BENCHMARK(BM_LocalizeBatch)->Arg(1)->Arg(8);

void BM_OmpLocalize(benchmark::State& state) {
  const auto& run = office();
  const auto& x = run.ground_truth.at_day(0);
  const loc::OmpLocalizer omp(x, {});
  const auto y = x.col(37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(omp.localize(y));
  }
}
BENCHMARK(BM_OmpLocalize);

void BM_RassTraining(benchmark::State& state) {
  const auto& run = office();
  const auto& x = run.ground_truth.at_day(0);
  for (auto _ : state) {
    baselines::Rass rass(x, run.testbed.deployment());
    benchmark::DoNotOptimize(rass);
  }
}
BENCHMARK(BM_RassTraining);

void BM_GroundTruthSurvey(benchmark::State& state) {
  const auto& run = office();
  sim::Sampler sampler(run.testbed, "bench-survey");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.survey_full(45, 5));
  }
}
BENCHMARK(BM_GroundTruthSurvey);

// --- Code-layout note: inserting functions mid-file shifts the code
// layout of every later benchmark, which on the office testbed moved
// BM_SvdOfficeMatrix/BM_Reconstruct by double-digit percentages with zero
// source changes.  Keep new registrations at the end.

// --- PR 4 additions (SIMD kernel layer + ADMM warm start), appended last
// per the code-layout note above.

// The dot micro-kernel at the sweep's factor width (16) and a grid-row
// width (4096).  Sub-microsecond: gated by the bench_check noise floor.
void BM_KernelDot(benchmark::State& state) {
  rng::Rng rng(21);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n), b(n);
  for (double& v : a) v = rng.normal();
  for (double& v : b) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::kernels::dot(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_KernelDot)->Arg(16)->Arg(4096);

// Warm vs cold correlation refresh: the engine scenario, where the
// previous snapshot's ADMM state seeds the re-acquisition on a drifted
// database.  Pairs with BM_LrrCorrelation (the cold baseline above).
void BM_LrrCorrelationWarm(benchmark::State& state) {
  const auto& run = office();
  const auto& x0 = run.ground_truth.at_day(0);
  const auto& x1 = run.ground_truth.at_day(45);
  const auto mic0 = core::extract_mic(x0);
  const core::LrrOptions options;
  const auto cold = core::solve_lrr(mic0.x_mic, x0, options);
  core::LrrWarmStart warm;
  warm.z = cold.z;
  warm.y1 = cold.y1;
  warm.y2 = cold.y2;
  warm.mu = cold.mu_final;
  const auto mic1 = core::mic_from_cells(x1, mic0.reference_cells);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_lrr(mic1.x_mic, x1, options, &warm));
  }
}
BENCHMARK(BM_LrrCorrelationWarm);

// The batched RASS hyperparameter grid (3 C candidates x 2 axes, one
// fan-out).  Arg is the thread budget; multi-thread rows are on the
// bench-gate skip list (wall clock is a property of the host's cores).
void BM_RassGridSearch(benchmark::State& state) {
  const auto& run = office();
  const auto& x = run.ground_truth.at_day(0);
  baselines::RassOptions options;
  options.c_grid = {1.0, 10.0, 100.0};
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    baselines::Rass rass(x, run.testbed.deployment(), options);
    benchmark::DoNotOptimize(rass);
  }
}
BENCHMARK(BM_RassGridSearch)->Arg(1)->Arg(8);

// --- Streaming-ingest additions, appended last per the code-layout note
// above.

// The ingest front door: validate + fold one streamed reading into the
// per-(link, cell) running means.  This sits on the producer path of the
// continuous-update pipeline, so it must stay far below the localize
// read-path cost (tens of ns, not µs); bench_check.py floors the row.
void BM_IngestObservation(benchmark::State& state) {
  serve::SiteHealthCounters health;
  ingest::ObservationBuffer buffer(8, 96,
                                   health);  // office-sized id space
  std::uint64_t k = 0;
  for (auto _ : state) {
    ingest::Observation obs{k % 8, (k * 7) % 96,
                            -50.0 - static_cast<double>(k % 13), k};
    benchmark::DoNotOptimize(buffer.push(obs));
    if (++k % 4096 == 0) buffer.consume();  // stay under capacity
  }
}
BENCHMARK(BM_IngestObservation);

// One EWMA fold + threshold check per streamed residual.
void BM_DriftDetector(benchmark::State& state) {
  ingest::EwmaDriftDetector detector;
  std::uint64_t k = 0;
  for (auto _ : state) {
    detector.observe(static_cast<double>(k % 7) - 3.0);
    benchmark::DoNotOptimize(detector.drifted());
    ++k;
  }
}
BENCHMARK(BM_DriftDetector);

// --- PR 9 additions (durability: checkpoint + WAL), appended last per
// the code-layout note above.

// A self-deleting durability directory shared by one benchmark's setup.
struct BenchDir {
  BenchDir() {
    std::string tmpl = "/tmp/iup-bench-persist-XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path = tmpl;
  }
  ~BenchDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  std::string path;
};

// Full checkpoint publication for the three-commit office engine:
// collect the image under the state lock, encode, write temp + fsync +
// rename.  This is the cost a checkpoint roll adds OFF the commit path
// (the DurabilityManager runs it outside the engine's commit lock).
void BM_CheckpointSave(benchmark::State& state) {
  const auto& run = office();
  api::Engine engine(api::EngineConfig().threads(1));
  eval::register_run(engine, run, "office");
  const auto cells = engine.reference_cells("office").value();
  for (const std::size_t day : {30ul, 60ul}) {
    engine.update(eval::collect_update_request(run, "office", cells, day));
  }
  static BenchDir dir;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.save_checkpoint(dir.path));
  }
}
BENCHMARK(BM_CheckpointSave);

// One committed snapshot framed + appended to the log; Arg(1) adds the
// per-record fsync (the durability knob's true price — on CI's tmpfs it
// is nearly free, on a real disk it dominates).  The log is re-truncated
// periodically so the bench never fills /tmp.
void BM_WalAppend(benchmark::State& state) {
  const auto& run = office();
  api::Engine engine(api::EngineConfig().threads(1));
  eval::register_run(engine, run, "office");
  persist::WalRecord record;
  record.snapshot = engine.snapshot("office").value();
  const bool do_fsync = state.range(0) != 0;
  static BenchDir dir;
  persist::WalWriter wal;
  if (!wal.open(dir.path + "/WAL-bench", /*truncate=*/true).ok()) {
    state.SkipWithError("cannot open WAL");
    return;
  }
  std::uint64_t appended = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.append(record, do_fsync));
    if (++appended % 256 == 0) {
      state.PauseTiming();
      benchmark::DoNotOptimize(
          wal.open(dir.path + "/WAL-bench", /*truncate=*/true));
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1);

// Cold recovery into a fresh engine: load + CRC-check the checkpoint,
// replay the WAL suffix, rebuild localizers, publish.  The directory
// holds the six-commit office run rolled at checkpoint_every=4, so the
// replayed suffix is two records — the steady-state crash-restart shape.
void BM_Recover(benchmark::State& state) {
  const auto& run = office();
  static BenchDir dir;
  static const bool prepared = [&]() {
    persist::DurabilityManager manager(
        {dir.path, /*checkpoint_every=*/4, /*fsync=*/true});
    api::Engine engine(
        api::EngineConfig().threads(1).update_hooks(manager.engine_hooks()));
    if (!manager.bind(&engine).ok()) return false;
    eval::register_run(engine, run, "office");
    const auto cells = engine.reference_cells("office").value();
    for (const std::size_t day : {15ul, 30ul, 45ul, 60ul, 75ul}) {
      engine.update(eval::collect_update_request(run, "office", cells, day));
    }
    return true;
  }();
  if (!prepared) {
    state.SkipWithError("durable setup failed");
    return;
  }
  for (auto _ : state) {
    api::Engine recovered(api::EngineConfig().threads(1));
    benchmark::DoNotOptimize(recovered.restore_from(dir.path));
  }
}
BENCHMARK(BM_Recover);

// --- Lane-batched sweep additions, appended last per the code-layout note
// above.

// The office R-update's normal systems, one per grid column: lambda*I +
// L^T L minus the column's unobserved outer products at the converged
// day-45 office factor (rank 8), each with one right-hand side.  /0 solves
// them one by one (factor_spd + solve_factored_spd), /1 kSpdLanes at a
// time through kernels::spd_factor_lanes + spd_solve_lanes, tile packing
// included — the batched half-sweep's factor/solve core.  Microseconds per
// call: floored in scripts/bench_check.py.
void BM_SpdSolveLanes(benchmark::State& state) {
  struct Systems {
    std::vector<linalg::Matrix> q;
    std::vector<std::vector<double>> rhs;
  };
  static const Systems sys = [] {
    const auto& run = office();
    api::Engine engine;
    eval::register_run(engine, run, "office");
    const auto cells = engine.reference_cells("office").value();
    const linalg::Matrix l =
        engine
            .reconstruct(
                eval::collect_update_request(run, "office", cells, 45))
            .value()
            .solver.l;
    linalg::Matrix seed = l.gram();
    for (std::size_t a = 0; a < seed.rows(); ++a) seed(a, a) += 0.05;
    Systems out;
    rng::Rng rng(25);
    for (std::size_t j = 0; j < run.b_mask.cols(); ++j) {
      linalg::Matrix q = seed;
      for (std::size_t i = 0; i < run.b_mask.rows(); ++i) {
        if (run.b_mask(i, j) != 0.0) continue;
        for (std::size_t a = 0; a < q.rows(); ++a) {
          for (std::size_t b = 0; b < q.cols(); ++b) {
            q(a, b) -= l(i, a) * l(i, b);
          }
        }
      }
      out.q.push_back(q);
      std::vector<double> b(q.rows());
      for (double& v : b) v = rng.normal();
      out.rhs.push_back(b);
    }
    return out;
  }();
  const std::size_t n = sys.q.front().rows();
  constexpr std::size_t w = linalg::kernels::kSpdLanes;
  linalg::Matrix work;
  std::vector<double> diag(n), x(n);
  std::vector<double> tile(n * n * w), rhs(n * w);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      for (std::size_t j = 0; j < sys.q.size(); ++j) {
        work = sys.q[j];
        x = sys.rhs[j];
        benchmark::DoNotOptimize(linalg::factor_spd(work, diag));
        linalg::solve_factored_spd(work, x);
        benchmark::DoNotOptimize(x.data());
      }
      continue;
    }
    for (std::size_t g0 = 0; g0 < sys.q.size(); g0 += w) {
      for (std::size_t lane = 0; lane < w; ++lane) {
        const bool used = g0 + lane < sys.q.size();
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = a; b < n; ++b) {
            tile[(a * n + b) * w + lane] =
                used ? sys.q[g0 + lane](a, b) : (a == b ? 1.0 : 0.0);
          }
          rhs[a * w + lane] = used ? sys.rhs[g0 + lane][a] : 0.0;
        }
      }
      benchmark::DoNotOptimize(
          linalg::kernels::spd_factor_lanes(tile.data(), n));
      linalg::kernels::spd_solve_lanes(tile.data(), rhs.data(), n);
      benchmark::DoNotOptimize(rhs.data());
    }
  }
}
BENCHMARK(BM_SpdSolveLanes)->Arg(0)->Arg(1);

// --- OMP read-path additions, appended last per the code-layout note
// above.

// The served path's OMP match: noisy 3-sample day-45 queries cycling over
// the office cells.  They run all three greedy atoms, where
// BM_OmpLocalize's exact column stops after one.
void BM_OmpLocalizeNoisy(benchmark::State& state) {
  const auto& run = office();
  const auto& x = run.ground_truth.at_day(0);
  const loc::OmpLocalizer omp(x, {});
  sim::Sampler sampler(run.testbed, "bench-omp-noisy");
  std::vector<std::vector<double>> queries;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    queries.push_back(sampler.online_measurement(j, 45, 3));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(omp.localize(queries[k]));
    k = k + 1 == queries.size() ? 0 : k + 1;
  }
}
BENCHMARK(BM_OmpLocalizeNoisy);

// --- Committed-update rows, appended last per the code-layout note above.

// The real office update(): solve from the cached warm factor, correlation
// refresh, localizer build and publish — what BM_Reconstruct leaves out.
// Every iteration times the same commit: with timing paused it drops and
// re-registers the office and commits a day-15 update, so the day-45
// commit it times starts from the same warm factor and correlation state
// whatever the iteration count (committing day 45 on top of itself would
// compound the database and time a state that diverges with it).  Arg(1)
// adds a DurabilityManager in a temp dir (WAL append per commit, checkpoint
// rolls at the default cadence, fsync off so the row measures the encode
// and write path, not the disk).
void BM_CommitUpdate(benchmark::State& state) {
  const auto& run = office();
  const BenchDir dir;
  persist::DurabilityManager manager(
      {dir.path, /*checkpoint_every=*/16, /*fsync=*/false});
  const bool durable = state.range(0) != 0;
  api::EngineConfig config = api::EngineConfig().threads(1);
  if (durable) config.update_hooks(manager.engine_hooks());
  api::Engine engine(std::move(config));
  if (durable && !manager.bind(&engine).ok()) {
    state.SkipWithError("durable setup failed");
    return;
  }
  eval::register_run(engine, run, "office");
  const auto cells = engine.reference_cells("office").value();
  const auto warm_up = eval::collect_update_request(run, "office", cells, 15);
  const auto request = eval::collect_update_request(run, "office", cells, 45);
  std::size_t sweeps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (!engine.drop_site("office").ok() ||
        !eval::register_run(engine, run, "office").ok()) {
      state.SkipWithError("re-registration failed");
      return;
    }
    const bool warmed = engine.update(warm_up).ok();
    state.ResumeTiming();
    const auto committed = engine.update(request);
    if (!warmed || !committed.ok()) {
      state.SkipWithError("update failed");
      return;
    }
    sweeps = committed.value().solver.iterations;
    benchmark::DoNotOptimize(committed);
  }
  // Sweeps of the timed solve (RsvdOptions::converge_db).
  state.counters["sweeps"] = static_cast<double>(sweeps);
}
BENCHMARK(BM_CommitUpdate)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
