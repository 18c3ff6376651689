#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace perfbench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::lattice_quantile(double q) const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Distinct lattice values (rounding noise folded in) with their counts.
  std::vector<double> value;
  std::vector<double> count;
  for (const double v : values_) {
    if (!value.empty() && v - value.back() <= 1e-9 * std::max(1.0, v)) {
      count.back() += 1.0;
    } else {
      value.push_back(v);
      count.push_back(1.0);
    }
  }
  const double target = q * static_cast<double>(values_.size());
  double below = 0.0;
  for (std::size_t k = 0; k < value.size(); ++k) {
    if (target <= below + count[k] || k + 1 == value.size()) {
      const double lo = k == 0 ? value[k] : 0.5 * (value[k - 1] + value[k]);
      const double hi =
          k + 1 == value.size() ? value[k] : 0.5 * (value[k] + value[k + 1]);
      const double frac = std::clamp((target - below) / count[k], 0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
    below += count[k];
  }
  return value.back();
}

double Samples::max() const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(values_.begin(), values_.end());
}

namespace {
constexpr double kBucketRatio = 1.001;
const double kLogRatio = std::log(kBucketRatio);
constexpr std::size_t kBuckets = 23'100;  // 1.001^23100 > 1e10
}  // namespace

LogHistogram::LogHistogram() : counts_(kBuckets, 0) {}

void LogHistogram::add(double ns) {
  const double x = std::max(ns, 1.0);
  const std::size_t b = std::min(
      kBuckets - 1, static_cast<std::size_t>(std::log(x) / kLogRatio));
  ++counts_[b];
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const double rank = q * static_cast<double>(total_ - 1);
  double below = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (c > 0.0 && rank < below + c) {
      const double frac = (rank - below + 0.5) / c;
      return std::exp((static_cast<double>(b) + frac) * kLogRatio);
    }
    below += c;
  }
  return std::exp(static_cast<double>(kBuckets) * kLogRatio);
}

void Report::add(const std::string& name, const std::string& unit,
                 double value, std::size_t samples) {
  metrics_[name] = Metric{unit, value, samples};
}

void Report::add_p50_p90(const std::string& stem, const std::string& unit,
                         const Samples& s) {
  add(stem + "_p50_" + unit, unit, s.quantile(0.5), s.size());
  add(stem + "_p90_" + unit, unit, s.quantile(0.9), s.size());
}

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) return std::numeric_limits<double>::quiet_NaN();
  return it->second.value;
}

void Report::note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

void Gate::op(const char* op, bool ok, const std::string& detail) {
  Ops& ops = ops_[op];
  ++ops.attempted;
  if (!ok) {
    ++ops.failed;
    if (ops.failed <= 3) {
      failures_.push_back(std::string(op) + " failed: " + detail);
    } else if (ops.failed == 4) {
      failures_.push_back(std::string(op) + ": further failures elided");
    }
  }
}

void Gate::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back("check failed: " + what);
}

void Gate::merge(const Gate& other) {
  for (const auto& [name, ops] : other.ops_) {
    ops_[name].attempted += ops.attempted;
    ops_[name].failed += ops.failed;
  }
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

std::uint32_t Tracer::add(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint64_t request,
                          std::uint32_t parent) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<std::uint32_t>(spans_.size());
}

std::map<std::uint64_t, std::int64_t> Tracer::by_request(
    const char* name) const {
  std::map<std::uint64_t, std::int64_t> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) out[s.request] += s.duration();
  }
  return out;
}

Samples Tracer::durations(const char* name, double scale) const {
  Samples out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.add(static_cast<double>(s.duration()) * scale);
    }
  }
  return out;
}

void Tracer::write_csv(std::FILE* out, int thread) const {
  for (const Span& s : spans_) {
    std::fprintf(out, "%d,%s,%lld,%lld,%u,%llu\n", thread, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would carry
  // over the peak of the parent that forked us.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return std::numeric_limits<double>::quiet_NaN();
  char line[256];
  double kib = std::numeric_limits<double>::quiet_NaN();
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(status);
  return kib / 1024.0;
}

double host_speed_probe_ms() {
  // Eight independent multiply-add lanes over cache-resident arrays:
  // throughput bound and vectorised, like the solver's kernels, so it
  // slows down when the core's vector units are shared.
  constexpr std::size_t kN = 2048;
  std::vector<double> a(kN), b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = 1.0 + static_cast<double>(i) * 1e-6;
    b[i] = 1.0 - static_cast<double>(i) * 1e-7;
  }
  double acc[8] = {};
  const std::int64_t start = now_ns();
  for (int round = 0; round < 20000; ++round) {
    for (std::size_t i = 0; i < kN; i += 8) {
      for (std::size_t l = 0; l < 8; ++l) acc[l] += a[i + l] * b[i + l];
    }
    b[static_cast<std::size_t>(round) % kN] += 1e-9;
  }
  const std::int64_t end = now_ns();
  double total = 0.0;
  for (const double x : acc) total += x;
  if (!std::isfinite(total)) std::fprintf(stderr, "probe: non-finite\n");
  return static_cast<double>(end - start) * 1e-6;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error("cannot create '" + dir + "': " + ec.message());
}

void remove_all(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
