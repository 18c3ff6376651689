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
// (kPaperLiteral), Constraint 2 off (mask-only L-update systems),
// Constraint 1 off, mask grouping off on revisions that still have it
// (elsewhere the default), rank 20 from a random start (factor width
// above 16), and the fixed max_iters trajectory without the convergence
// stop (converge_db = 0), which keeps the sweep's own bits pinned.
// Every site is updated at every paper stamp; per stamp and site the
// probe prints the committed version, FNV-1a hashes of the committed
// x_hat and Z, and a hash over the localize (cell, score) of one online
// measurement per grid cell.  A combined hash per site and the
// process-wide SpdStats totals close the output.
//
// A kernel section comes first: it hashes the active level's
// micro-kernels directly over the shapes the testbeds never reach —
// every length 0..67 at three offsets, dot_panel with 1..19 columns,
// axpy_sequence / axpy_panel with 0..9 terms over 1..9 rows, the lane
// factor + solve for n = 1..20 with one indefinite system, and
// multiply_into / gram_into up to 65 x 63 x 67.
//
// The hashes are deterministic per build but differ between SIMD dispatch
// levels (IUP_ARCH), so compare two builds at the same level only.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/rsvd.hpp"
#include "eval/experiment.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/matrix.hpp"
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

/// Deterministic kernel inputs: splitmix64 mapped to [-1, 1), with every
/// 7th value an exact zero and every 11th a negative zero.  Self-contained
/// rather than rng::Rng, so the inputs cannot move with the revision under
/// test.
class Inputs {
 public:
  double next() {
    ++count_;
    if (count_ % 7 == 0) return 0.0;
    if (count_ % 11 == 0) return -0.0;
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-52 - 1.0;
  }
  std::vector<double> vec(std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = next();
    return v;
  }
  linalg::Matrix matrix(std::size_t rows, std::size_t cols) {
    linalg::Matrix m(rows, cols);
    for (double& x : m.data()) x = next();
    return m;
  }

 private:
  std::uint64_t state_ = 0x1f2e3d4c5b6a7988ull;
  std::uint64_t count_ = 0;
};

void add_all(Fnv1a& h, const std::vector<double>& v) {
  for (const double x : v) h.add(x);
}

void print_hash(const char* what, const Fnv1a& h) {
  std::printf("kernels %-14s %016llx\n", what,
              static_cast<unsigned long long>(h.value()));
}

/// Reductions and element-wise kernels over n = 0..67 at offsets 0, 1, 3,
/// and dot_panel over n = 0..37 with 1..19 columns.
void probe_vector_kernels(Inputs& in) {
  namespace k = linalg::kernels;
  Fnv1a red, elem;
  for (std::size_t n = 0; n <= 67; ++n) {
    for (const std::size_t off : {0u, 1u, 3u}) {
      const auto a = in.vec(n + off);
      const auto b = in.vec(n + off);
      const auto m = in.vec(n + off);
      red.add(k::dot(a.data() + off, b.data() + off, n));
      red.add(k::norm_sq(a.data() + off, n));
      red.add(k::diff_norm_sq(a.data() + off, b.data() + off, n));
      red.add(k::masked_diff_norm_sq(m.data() + off, a.data() + off,
                                     b.data() + off, n));
      auto y = in.vec(n + off);
      k::axpy(in.next(), a.data() + off, y.data() + off, n);
      add_all(elem, y);
      const double alpha = in.next();
      const double beta = in.next();
      k::axpy2(alpha, a.data() + off, beta, b.data() + off, y.data() + off,
               n);
      add_all(elem, y);
    }
  }
  print_hash("reductions", red);
  print_hash("axpy+axpy2", elem);

  Fnv1a panel;
  for (std::size_t n = 0; n <= 37; ++n) {
    for (std::size_t cols = 1; cols <= 19; ++cols) {
      const std::size_t ld = cols + cols % 3;
      const auto a = in.vec(n);
      const auto b = in.vec(n * ld);
      std::vector<double> out(cols);
      k::dot_panel(a.data(), b.data(), ld, n, cols, out.data());
      add_all(panel, out);
    }
  }
  print_hash("dot_panel", panel);
}

/// axpy_sequence and axpy_panel: row widths 1..24, 0..9 terms, 1..9 rows,
/// the first coefficient of every row an exact zero.
void probe_axpy_chains(Inputs& in) {
  namespace k = linalg::kernels;
  Fnv1a seq, pan;
  for (std::size_t n = 1; n <= 24; ++n) {
    for (std::size_t count = 0; count <= 9; ++count) {
      std::vector<std::vector<double>> xs(count);
      std::vector<const double*> x(count);
      for (std::size_t t = 0; t < count; ++t) {
        xs[t] = in.vec(n);
        x[t] = xs[t].data();
      }
      for (std::size_t rows = 1; rows <= 9; ++rows) {
        const std::size_t ldc = count + 1;
        const std::size_t ldy = n + 2;
        auto coef = in.vec(rows * ldc);
        for (std::size_t c = 0; c < rows; ++c) coef[c * ldc] = 0.0;
        auto y = in.vec(rows * ldy);
        auto z = y;
        k::axpy_panel(coef.data(), ldc, rows, x.data(), count, y.data(), ldy,
                      n);
        add_all(pan, y);
        for (std::size_t c = 0; c < rows; ++c) {
          k::axpy_sequence(coef.data() + c * ldc, x.data(), count,
                           z.data() + c * ldy, n);
        }
        add_all(seq, z);
      }
    }
  }
  print_hash("axpy_sequence", seq);
  print_hash("axpy_panel", pan);
}

/// The lane factor + solve for n = 1..20: max(kSpdLanes, 2) systems
/// G^T G + I in tiles of kSpdLanes, system 1 made indefinite.  Hashes
/// every failure mask and the factor and solution of every good lane.
void probe_spd_lanes(Inputs& in) {
  namespace k = linalg::kernels;
  constexpr std::size_t w = k::kSpdLanes;
  const std::size_t systems = std::max<std::size_t>(w, 2);
  Fnv1a h;
  for (std::size_t n = 1; n <= 20; ++n) {
    for (std::size_t first = 0; first < systems; first += w) {
      std::vector<double> tile(n * n * w, 0.0);
      std::vector<double> rhs = in.vec(n * w);
      for (std::size_t lane = 0; lane < w; ++lane) {
        const linalg::Matrix g = in.matrix(n + 2, n);
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = a; b < n; ++b) {
            double q = a == b ? 1.0 : 0.0;
            for (std::size_t r = 0; r < g.rows(); ++r) q += g(r, a) * g(r, b);
            tile[(a * n + b) * w + lane] = q;
          }
        }
        if (first + lane == 1) tile[((n - 1) * n + n - 1) * w + lane] = -1.0;
      }
      const unsigned failed = k::spd_factor_lanes(tile.data(), n);
      k::spd_solve_lanes(tile.data(), rhs.data(), n);
      h.add(static_cast<std::uint64_t>(failed));
      for (std::size_t lane = 0; lane < w; ++lane) {
        if ((failed >> lane) & 1u) continue;
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = a; b < n; ++b) {
            h.add(tile[(a * n + b) * w + lane]);
          }
          h.add(rhs[a * w + lane]);
        }
      }
    }
  }
  print_hash("spd_lanes", h);
}

/// multiply_into (m x inner x n) and gram_into of both factors, with
/// zero pivots, from 1 x 1 x 1 up to 65 x 63 x 67.
void probe_products(Inputs& in) {
  const std::size_t shapes[][3] = {{1, 1, 1},    {3, 5, 7},     {8, 15, 16},
                                   {8, 16, 16},  {9, 17, 33},   {16, 16, 300},
                                   {64, 64, 64}, {65, 63, 67}};
  Fnv1a mul, gram;
  for (const auto& s : shapes) {
    const linalg::Matrix a = in.matrix(s[0], s[1]);
    const linalg::Matrix b = in.matrix(s[1], s[2]);
    linalg::Matrix out;
    linalg::multiply_into(a, b, out);
    mul.add(out);
    linalg::gram_into(a, out);
    gram.add(out);
    linalg::gram_into(b, out);
    gram.add(out);
  }
  print_hash("multiply_into", mul);
  print_hash("gram_into", gram);
}

}  // namespace

/// One Engine and the sites it serves.
struct Probe {
  std::unique_ptr<api::Engine> engine;
  std::vector<Site> sites;
};

int main() {
  {
    Inputs in;
    probe_vector_kernels(in);
    probe_axpy_chains(in);
    probe_spd_lanes(in);
    probe_products(in);
  }

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
  // Revisions with mask grouping solved grouped columns against one shared
  // factor; there this branch runs the one-system-per-lane path, which is
  // the only path elsewhere, so both must match it bit for bit.
  office_with("office-ungroup", [](auto& o) {
    if constexpr (requires { o.group_masks; }) o.group_masks = false;
  });
  // The SVD warm start leaves factor columns past the 8 links at zero; a
  // seeded random start keeps all 20 live.
  office_with("office-rank20", [](core::RsvdOptions& o) {
    o.rank = 20;
    o.init = core::FactorInit::kRandom;
  });
  // A revision without RsvdOptions::converge_db always runs the full
  // trajectory, so there the branch equals its default.
  office_with("office-full", [](auto& o) {
    if constexpr (requires { o.converge_db; }) o.converge_db = 0.0;
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
