#include "layers.hpp"

#include <cmath>
#include <map>

#include "core/mic.hpp"
#include "serve/registry.hpp"

namespace perfbench {

using namespace iup;

api::UpdateHooks stamping_hooks(HookClock* clock) {
  api::UpdateHooks hooks;
  hooks.on_solve = [clock] {
    clock->on_solve = now_ns();
    return api::Status{};
  };
  hooks.before_publish = [clock](std::chrono::nanoseconds) {
    clock->before_publish = now_ns();
    return api::Status{};
  };
  hooks.after_commit = [clock](const api::CommitEvent&) {
    clock->after_commit = now_ns();
  };
  return hooks;
}

WarmView read_warm(const api::Engine& engine, const std::string& site) {
  WarmView view;
  const api::Result<api::SnapshotPtr> latest = engine.snapshot(site);
  if (latest.ok()) view.latest_version = latest.value()->version();
  const auto shard = engine.shards().find(site);
  if (shard == nullptr) return view;
  const auto lock = shard->lock_for_update();
  const serve::WarmCaches& caches = shard->caches(lock);
  view.factor_hit =
      caches.factor != nullptr && caches.factor_version == view.latest_version;
  if (caches.lrr != nullptr && caches.lrr_version == view.latest_version) {
    view.lrr = caches.lrr;
  }
  return view;
}

void record_update_spans(Tracer& tracer, std::uint64_t request,
                         std::int64_t start, std::int64_t end,
                         const HookClock& clock) {
  const std::uint32_t parent = tracer.add(kSpanUpdate, start, end, request);
  tracer.add(kSpanSolveRefresh, clock.on_solve, clock.before_publish, request,
             parent);
  tracer.add(kSpanPublish, clock.before_publish, clock.after_commit, request,
             parent);
}

std::size_t rerun_refresh(Tracer& tracer, std::uint64_t request,
                          const api::Engine& engine,
                          const api::FingerprintSnapshot& committed,
                          const WarmView& warm) {
  const std::int64_t start = now_ns();
  const core::MicResult mic =
      core::mic_from_cells(committed.database(), committed.reference_cells());
  const core::LrrResult lrr = core::solve_lrr(
      mic.x_mic, committed.database(), engine.config().lrr(), warm.lrr.get());
  tracer.add(kSpanRefresh, start, now_ns(), request);
  return lrr.iterations;
}

void rerun_build(Tracer& tracer, std::uint64_t request,
                 const linalg::Matrix& database,
                 const sim::Deployment* deployment) {
  const std::int64_t start = now_ns();
  const std::unique_ptr<loc::Localizer> localizer =
      api::make_localizer(api::LocalizerKind::kOmp, database, deployment);
  tracer.add(kSpanBuild, start, now_ns(), request);
}

namespace {

std::map<std::uint64_t, std::int64_t> merged_by_request(
    const std::vector<const Tracer*>& tracers, const char* name) {
  std::map<std::uint64_t, std::int64_t> out;
  for (const Tracer* t : tracers) {
    for (const auto& [request, ns] : t->by_request(name)) out[request] += ns;
  }
  return out;
}

/// Per-request difference `outer - inner` [ms] over requests that have
/// both spans.
Samples difference_ms(const std::map<std::uint64_t, std::int64_t>& outer,
                      const std::map<std::uint64_t, std::int64_t>& inner) {
  Samples out;
  for (const auto& [request, ns] : outer) {
    const auto it = inner.find(request);
    if (it != inner.end()) {
      out.add(static_cast<double>(ns - it->second) * 1e-6);
    }
  }
  return out;
}

}  // namespace

Samples merged_durations(const std::vector<const Tracer*>& tracers,
                         const char* name, double scale) {
  Samples out;
  for (const Tracer* t : tracers) out.append(t->durations(name, scale));
  return out;
}

void SolverStats::add(const api::UpdateResult& result,
                      std::size_t lrr_iterations, bool warm_hit) {
  solve_iters.add(static_cast<double>(result.solver.iterations));
  lrr_iters.add(static_cast<double>(lrr_iterations));
  grouped_share.add(static_cast<double>(result.solver.grouped_columns) /
                    static_cast<double>(result.x_hat().cols()));
  ++updates;
  if (warm_hit) ++warm_hits;
}

void SolverStats::report(Report& r) const {
  r.add("core.solve_iters", "count", solve_iters.median(), solve_iters.size());
  r.add("core.lrr_iters", "count", lrr_iters.median(), lrr_iters.size());
  r.add("core.grouped_share", "ratio", grouped_share.median(),
        grouped_share.size());
  r.add("core.warm_hit_share", "ratio",
        updates == 0 ? 0.0
                     : static_cast<double>(warm_hits) /
                           static_cast<double>(updates),
        updates);
}

void report_accuracy(Report& report, const Samples& loc_err_m,
                     const Samples& recon_db, Gate& gate) {
  report.add("loc_err_median_m", "m", loc_err_m.lattice_quantile(0.5),
             loc_err_m.size());
  report.add("loc_err_p90_m", "m", loc_err_m.lattice_quantile(0.9),
             loc_err_m.size());
  report.add("recon_err_median_db", "dB", recon_db.median(), recon_db.size());
  gate.check(std::isfinite(report.value("loc_err_median_m")) &&
                 std::isfinite(report.value("loc_err_p90_m")) &&
                 std::isfinite(report.value("recon_err_median_db")),
             "accuracy metrics are finite");
}

void report_update_layers(const std::vector<const Tracer*>& tracers,
                          Report& report) {
  const auto refresh = merged_by_request(tracers, kSpanRefresh);
  const auto build = merged_by_request(tracers, kSpanBuild);
  const Samples solve =
      difference_ms(merged_by_request(tracers, kSpanSolveRefresh), refresh);
  const Samples commit =
      difference_ms(merged_by_request(tracers, kSpanPublish), build);
  const Samples refresh_ms = merged_durations(tracers, kSpanRefresh, 1e-6);
  const Samples build_ms = merged_durations(tracers, kSpanBuild, 1e-6);
  report.add("core.solve_ms", "ms", solve.median(), solve.size());
  report.add("core.refresh_ms", "ms", refresh_ms.median(), refresh_ms.size());
  report.add("loc.build_ms", "ms", build_ms.median(), build_ms.size());
  report.add("api.commit_ms", "ms", commit.median(), commit.size());
  report.add("stage_sum.update_ms", "ms",
             solve.median() + refresh_ms.median() + build_ms.median() +
                 commit.median());
}

void report_read_layers(const std::vector<const Tracer*>& tracers,
                        Report& report) {
  const Samples reg = merged_durations(tracers, kSpanRegister, 1e-6);
  const Samples localize = merged_durations(tracers, kSpanLocalize, 1e-3);
  const Samples match = merged_durations(tracers, kSpanMatch, 1e-3);
  report.add("api.register_ms", "ms", reg.median(), reg.size());
  report.add("loc.match_us", "us", match.median(), match.size());
  report.add("serve.overhead_us", "us", localize.median() - match.median(),
             localize.size());
}

std::uint64_t spd_fallbacks(const api::Engine& engine,
                            const std::vector<std::string>& sites) {
  std::uint64_t total = 0;
  for (const std::string& site : sites) {
    const api::Result<api::SiteHealth> health = engine.site_health(site);
    if (!health.ok()) continue;
    total += health->spd_cholesky_failures + health->spd_bump_recoveries +
             health->spd_lu_fallbacks;
  }
  return total;
}

}  // namespace perfbench
