// Default-bits probe: hashes everything an Engine commits, so the output
// of two builds can be diffed to show that a change moved no bit
// (scripts/bits_check.sh does exactly that against an older revision).
// It uses only long-standing public API, so this one source compiles
// against older revisions of the library too.
//
// A default-config Engine serves four sites: the office, library and hall
// testbeds and the mixed-radio testbed (registered with its per-link
// source table) — factor widths 8, 6 (a partial lane tile) and 9, and 12
// and 15 band slots.  One more Engine per non-default solver branch
// serves the office alone: the published Constraint-2 curvature
// (kPaperLiteral), Constraint 2 off (grouped L-update rows), Constraint 1
// off, mask grouping off, and rank 20 from a random start (factor width
// above 16).  Every
// site is updated at every paper stamp; per stamp and site the probe
// prints the committed version, FNV-1a hashes of the committed x_hat and
// Z, and a hash over the localize (cell, score) of one online measurement
// per grid cell.  A combined hash per site and the process-wide SpdStats
// totals close the output.
//
// The hashes are deterministic per build but differ between SIMD dispatch
// levels (IUP_ARCH), so compare two builds at the same level only.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/rsvd.hpp"
#include "eval/experiment.hpp"
#include "linalg/cholesky.hpp"
#include "sim/sampler.hpp"
#include "sim/testbeds.hpp"

namespace {

using namespace iup;

class Fnv1a {
 public:
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(const linalg::Matrix& m) {
    add(static_cast<std::uint64_t>(m.rows()));
    add(static_cast<std::uint64_t>(m.cols()));
    for (const double v : m.data()) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

unsigned long long hash_of(const linalg::Matrix& m) {
  Fnv1a h;
  h.add(m);
  return h.value();
}

struct Site {
  std::string name;
  const eval::EnvironmentRun* run;
  std::vector<SourceInfo> sources;  // empty = legacy registration
  Fnv1a combined;
};

bool fail(const std::string& what, const api::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.to_string().c_str());
  return false;
}

bool probe_stamp(api::Engine& engine, Site& site, std::size_t day) {
  const eval::EnvironmentRun& run = *site.run;
  const std::vector<CellId> cells = engine.reference_cells(site.name).value();
  api::UpdateRequest request =
      eval::collect_update_request(run, site.name, cells, day);
  request.inputs.sources = site.sources;
  const auto updated = engine.update(request);
  if (!updated.ok()) return fail(site.name + " update", updated.status());
  const api::SnapshotPtr& snap = updated.value().snapshot;

  sim::Sampler sampler(run.testbed, "probe-day" + std::to_string(day));
  Fnv1a loc;
  for (std::size_t cell = 0; cell < snap->database().cols(); ++cell) {
    const std::vector<double> y = sampler.online_measurement(cell, day, 3);
    const auto estimate = engine.localize(site.name, y);
    if (!estimate.ok()) return fail(site.name + " localize", estimate.status());
    loc.add(static_cast<std::uint64_t>(estimate.value().cell));
    loc.add(estimate.value().score);
  }

  const unsigned long long x_hash = hash_of(snap->database());
  const unsigned long long z_hash = hash_of(snap->correlation());
  std::printf("%-14s day %2zu  v%llu  x_hat %016llx  z %016llx  loc %016llx\n",
              site.name.c_str(), day,
              static_cast<unsigned long long>(snap->version()), x_hash,
              z_hash, static_cast<unsigned long long>(loc.value()));
  site.combined.add(static_cast<std::uint64_t>(snap->version()));
  site.combined.add(static_cast<std::uint64_t>(x_hash));
  site.combined.add(static_cast<std::uint64_t>(z_hash));
  site.combined.add(loc.value());
  return true;
}

}  // namespace

/// One Engine and the sites it serves.
struct Probe {
  std::unique_ptr<api::Engine> engine;
  std::vector<Site> sites;
};

int main() {
  const eval::EnvironmentRun office(sim::make_office_testbed());
  const eval::EnvironmentRun mixed(sim::make_mixed_radio_testbed());
  const eval::EnvironmentRun library(sim::make_library_testbed());
  const eval::EnvironmentRun hall(sim::make_hall_testbed());

  std::vector<Probe> probes;
  probes.push_back({std::make_unique<api::Engine>(),
                    {{"office", &office, {}, {}},
                     {"mixed", &mixed, mixed.testbed.sources(), {}},
                     {"library", &library, {}, {}},
                     {"hall", &hall, {}, {}}}});
  const auto office_with = [&](const char* name, auto tweak) {
    core::RsvdOptions rsvd;
    tweak(rsvd);
    probes.push_back(
        {std::make_unique<api::Engine>(api::EngineConfig().rsvd(rsvd)),
         {{name, &office, {}, {}}}});
  };
  office_with("office-literal", [](core::RsvdOptions& o) {
    o.c2_mode = core::Constraint2Mode::kPaperLiteral;
  });
  office_with("office-no-c2",
              [](core::RsvdOptions& o) { o.use_constraint2 = false; });
  office_with("office-no-c1",
              [](core::RsvdOptions& o) { o.use_constraint1 = false; });
  office_with("office-ungroup",
              [](core::RsvdOptions& o) { o.group_masks = false; });
  // The SVD warm start leaves factor columns past the 8 links at zero; a
  // seeded random start keeps all 20 live.
  office_with("office-rank20", [](core::RsvdOptions& o) {
    o.rank = 20;
    o.init = core::FactorInit::kRandom;
  });

  for (Probe& probe : probes) {
    for (const Site& site : probe.sites) {
      const auto registered = probe.engine->register_site(
          site.name, site.run->ground_truth.at_day(0), site.run->b_mask,
          site.sources);
      if (!registered.ok()) {
        fail(site.name + " register", registered.status());
        return 1;
      }
      const api::Status attached = probe.engine->attach_deployment(
          site.name, &site.run->testbed.deployment());
      if (!attached.ok()) {
        fail(site.name + " attach", attached);
        return 1;
      }
    }
  }

  for (const std::size_t day : sim::paper_update_stamps()) {
    for (Probe& probe : probes) {
      for (Site& site : probe.sites) {
        if (!probe_stamp(*probe.engine, site, day)) return 1;
      }
    }
  }
  for (const Probe& probe : probes) {
    for (const Site& site : probe.sites) {
      std::printf("%-14s combined %016llx\n", site.name.c_str(),
                  static_cast<unsigned long long>(site.combined.value()));
    }
  }
  const linalg::SpdStats spd = linalg::spd_stats();
  std::printf("spd_stats failures %llu bumps %llu lu_fallbacks %llu\n",
              static_cast<unsigned long long>(spd.cholesky_failures),
              static_cast<unsigned long long>(spd.bump_recoveries),
              static_cast<unsigned long long>(spd.lu_fallbacks));
  return 0;
}
