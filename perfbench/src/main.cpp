// perfbench — the repository benchmark's binary; perfbench/run.py runs it
// and builds the result line from its output.
//
//   perfbench --workload <fleet_update|serve_under_update|stream_durable>
//             --seed <n> --seconds <s> --trace <0|1> --data-dir <dir>
//
// Runs the workload once: untraced with --trace 0 (the end-to-end
// metrics), or with spans recorded around every layer call with --trace 1
// (the per-layer metrics, plus the traced run's own end-to-end figures,
// which run.py sets against an untraced process of the same seed to report
// the tracing overhead).  Prints the run metadata ("meta <key> <value>"),
// one line per measurement ("metric <name> <value> <unit> n=<samples>"),
// the operation counts ("ops <op> attempted=<n> failed=<n>") and the
// correctness gate ("gate PASS" or "gate FAIL").  Exits nonzero when the
// gate fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "linalg/kernels/kernels.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fleet_update|serve_under_update|"
               "stream_durable> --seed <n> --seconds <s> --trace <0|1> "
               "--data-dir <dir>\n");
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--data-dir") {
      options.data_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() &&
         !options.data_dir.empty() && options.seconds > 0.0;
}

using RunFn = void (*)(const Options&, bool, Report&, Gate&);

RunFn find_workload(const std::string& name) {
  if (name == "fleet_update") return run_fleet_update;
  if (name == "serve_under_update") return run_serve_under_update;
  if (name == "stream_durable") return run_stream_durable;
  return nullptr;
}

/// Every digit a double carries.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print(const Report& report, const Gate& gate) {
  for (const auto& [key, value] : report.notes()) {
    std::printf("meta %s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, m] : report.metrics()) {
    std::printf("metric %-28s %-24s %-6s n=%zu\n", name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  for (const auto& [op, counts] : gate.ops()) {
    std::printf("ops %-10s attempted=%llu failed=%llu\n", op.c_str(),
                static_cast<unsigned long long>(counts.attempted),
                static_cast<unsigned long long>(counts.failed));
  }
  for (const std::string& f : gate.failures()) {
    std::printf("gate-failure %s\n", f.c_str());
  }
  std::printf("gate %s\n", gate.passed() ? "PASS" : "FAIL");
}

}  // namespace

void write_spans(const Options& options,
                 const std::vector<const Tracer*>& tracers) {
  const std::string path =
      options.data_dir + "/spans-" + options.workload + ".csv";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "thread,name,start_ns,end_ns,parent,request\n");
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    tracers[t]->write_csv(out, static_cast<int>(t));
  }
  std::fclose(out);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  const RunFn run = find_workload(options.workload);
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  Report report;
  Gate gate;
  report.note("workload", options.workload);
  report.note("seed", std::to_string(options.seed));
  report.note("seconds", number(options.seconds));
  report.note("trace", options.trace ? "1" : "0");
  report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.note("compiler", __VERSION__);
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("march", PERFBENCH_ARCH);
  report.note("simd_level", iup::linalg::kernels::active_level_name());
  report.note("host_probe_start_ms", number(host_speed_probe_ms()));
  try {
    make_dirs(options.data_dir);
    run(options, options.trace, report, gate);
    report.add("peak_rss_mb", "MB", peak_rss_mb());
  } catch (const std::exception& e) {
    gate.check(false, std::string("exception: ") + e.what());
  }
  report.note("host_probe_end_ms", number(host_speed_probe_ms()));
  print(report, gate);
  return gate.passed() ? 0 : 1;
}
