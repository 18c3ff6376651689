// perfbench harness: clocks, sample sets, the metric report, the
// correctness gate and the in-memory span tracer every workload shares.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Spin-wait hint for busy loops.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// What the command line asked for.  `seconds` is a work budget, not a
/// deadline: each workload turns it into a fixed amount of work through
/// fixed per-workload rates, so the same (seed, seconds) pair always runs
/// the same operations and only the timings differ between runs.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
};

/// Raw per-call samples (any unit); quantiles interpolate linearly between
/// order statistics, so a percentile keeps every digit it measured.
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  /// q in [0, 1]; NaN when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Quantile of values that sit on a discrete lattice (distances between
  /// grid cells): each distinct value's share is spread evenly up to the
  /// midpoints with its neighbours, so the quantile moves smoothly as the
  /// shares shift instead of jumping a whole lattice step.
  double lattice_quantile(double q) const;
  double max() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Fixed-memory latency histogram for call counts too large to keep raw
/// (the serve readers): log-spaced buckets 0.1% wide from 1 ns to 10 s.
/// Quantiles interpolate geometrically inside their bucket, so a
/// percentile still moves with every sample.
class LogHistogram {
 public:
  LogHistogram();
  void add(double ns);
  void merge(const LogHistogram& other);
  std::size_t size() const { return total_; }
  /// q in [0, 1], in ns; NaN when empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::size_t total_ = 0;
};

/// One named measurement with its unit and sample count (0 for counts and
/// other single-valued figures).
struct Metric {
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value,
           std::size_t samples = 0);
  /// p50 + p90 of `s` as `<stem>_p50_<unit>` / `<stem>_p90_<unit>`.
  void add_p50_p90(const std::string& stem, const std::string& unit,
                   const Samples& s);
  double value(const std::string& name) const;
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// Run metadata (host, build, seed, host-speed probe).
  void note(const std::string& key, const std::string& value);
  const std::map<std::string, std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
};

/// The correctness gate: per-operation attempted/failed counts plus named
/// invariant checks.  Any failure makes the run exit nonzero.
class Gate {
 public:
  struct Ops {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  /// Count one attempted operation of kind `op`; `ok == false` counts a
  /// failure and keeps `detail` (the first few only) for the report.
  void op(const char* op, bool ok, const std::string& detail = {});
  void check(bool ok, const std::string& what);
  /// Fold in another gate (a worker thread's).
  void merge(const Gate& other);
  bool passed() const { return failures_.empty(); }
  const std::map<std::string, Ops>& ops() const { return ops_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::map<std::string, Ops> ops_;
  std::vector<std::string> failures_;
};

/// In-memory span log: spans are appended by the thread that owns the
/// tracer (one tracer per thread) and written out when the run ends.
/// Disabled tracers record nothing.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< 1-based index of the parent span; 0 = root
  std::uint64_t request = 0;
  std::int64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  /// Returns the span's 1-based id (0 when disabled).
  std::uint32_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request,
                    std::uint32_t parent = 0);
  /// Durations [ns] of every span called `name`, keyed by request id (the
  /// sum when a request has several).
  std::map<std::uint64_t, std::int64_t> by_request(const char* name) const;
  /// Durations of every span called `name`, in `scale` units per ns.
  Samples durations(const char* name, double scale) const;
  /// Append as CSV rows (thread,name,start_ns,end_ns,parent,request).
  void write_csv(std::FILE* out, int thread) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Process peak resident set size [MB].
double peak_rss_mb();

/// Wall time [ms] of a fixed benchmark-side floating-point loop: a host
/// speed diagnostic recorded at the start and the end of every run.
double host_speed_probe_ms();

/// Deterministic 64-bit mix of a seed and a tag (SplitMix64 finaliser).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Create `dir` (and parents); throws std::runtime_error on failure.
void make_dirs(const std::string& dir);
/// Remove `path` recursively when it exists.
void remove_all(const std::string& path);
/// Total size [bytes] of the regular files under `dir`.
std::uint64_t dir_bytes(const std::string& dir);

}  // namespace perfbench
