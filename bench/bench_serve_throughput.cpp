// Serving-path micro benches (google-benchmark): concurrent localize
// throughput through the lock-free shard read path.
//
// BM_ServeThroughput/R drives R reader threads of single-measurement
// engine.localize() calls and reports wall-clock per iteration (manual
// time: the threads' overlapped window, not CPU time) plus aggregate
// counters: qps, and p50_us / p99_us single-call latency percentiles.
// The multi-reader rows measure the host's core count as much as the
// code, so scripts/bench_check.py skip-lists them; the /1 rows and their
// latency counters are gated.
//
// scripts/bench.sh runs this binary alongside bench_micro_solvers and
// merges both into BENCH_micro.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "eval/experiment.hpp"
#include "sim/sampler.hpp"

namespace {

using namespace iup;

const eval::EnvironmentRun& office() {
  static eval::EnvironmentRun run(sim::make_office_testbed());
  return run;
}

std::vector<std::vector<double>> serve_queries(std::size_t count) {
  sim::Sampler sampler(office().testbed, "bench-serve");
  std::vector<std::vector<double>> queries;
  queries.reserve(count);
  const std::size_t cells = office().testbed.num_cells();
  for (std::size_t k = 0; k < count; ++k) {
    queries.push_back(sampler.online_measurement((k * 7) % cells, 0, 3));
  }
  return queries;
}

double percentile_us(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

/// Harness: R readers each issue `per_reader` calls through
/// `call(query)` per iteration; wall time is the overlapped window.
template <typename Call>
void serve_throughput_loop(benchmark::State& state, std::size_t readers,
                           const std::vector<std::vector<double>>& queries,
                           Call&& call) {
  constexpr std::size_t kPerReader = 32;
  std::vector<double> latencies_us;
  double total_seconds = 0.0;
  std::uint64_t total_queries = 0;

  for (auto _ : state) {
    std::vector<std::vector<double>> lat(readers);
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (std::size_t t = 0; t < readers; ++t) {
      threads.emplace_back([&, t] {
        lat[t].reserve(kPerReader);
        ready.fetch_add(1, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::size_t k = 0; k < kPerReader; ++k) {
          const auto& query = queries[(t * 5 + k) % queries.size()];
          const auto t0 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(call(query));
          const auto t1 = std::chrono::steady_clock::now();
          lat[t].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      });
    }
    while (ready.load(std::memory_order_acquire) < readers) {
      std::this_thread::yield();
    }
    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    state.SetIterationTime(wall);
    total_seconds += wall;
    total_queries += readers * kPerReader;
    for (const auto& per_thread : lat) {
      latencies_us.insert(latencies_us.end(), per_thread.begin(),
                          per_thread.end());
    }
  }

  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["qps"] =
      total_seconds > 0.0
          ? static_cast<double>(total_queries) / total_seconds
          : 0.0;
  state.counters["p50_us"] = percentile_us(latencies_us, 0.50);
  state.counters["p99_us"] = percentile_us(latencies_us, 0.99);
}

void BM_ServeThroughput(benchmark::State& state) {
  const auto& run = office();
  api::Engine engine;
  const auto registered = eval::register_run(engine, run, "office");
  if (!registered.ok()) {
    state.SkipWithError(registered.status().to_string().c_str());
    return;
  }
  const auto queries = serve_queries(16);
  serve_throughput_loop(
      state, static_cast<std::size_t>(state.range(0)), queries,
      [&](const std::vector<double>& query) {
        return engine.localize("office", query);
      });
}
BENCHMARK(BM_ServeThroughput)->Arg(1)->Arg(4)->UseManualTime();

}  // namespace
