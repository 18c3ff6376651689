// Per-layer measurement from outside the engine: the UpdateHooks seams
// stamp the stage boundaries of every update, and each layer's public
// function is re-run on the same inputs to time it on its own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/lrr.hpp"
#include "harness.hpp"
#include "sim/deployment.hpp"

namespace perfbench {

/// Stage stamps written by the hooks on the updating thread and read by
/// the same thread after Engine::update (or UpdateSupervisor::pump)
/// returns.
struct HookClock {
  std::int64_t on_solve = 0;
  std::int64_t before_publish = 0;
  std::int64_t after_commit = 0;
  /// stream_durable: when the durability manager's after_commit tap,
  /// which runs after the after_commit stamp, returned.
  std::int64_t tap_end = 0;
};

/// Hooks that only stamp `clock` (which must outlive the engine).
iup::api::UpdateHooks stamping_hooks(HookClock* clock);

/// The site's warm-start caches as the next update will see them (read
/// from the SiteShard under its update lock, outside any timed region).
struct WarmView {
  std::uint64_t latest_version = 0;
  bool factor_hit = false;  ///< cached factor derived from latest_version
  std::shared_ptr<const iup::core::LrrWarmStart> lrr;  ///< null on miss
};
WarmView read_warm(const iup::api::Engine& engine, const std::string& site);

/// Span names shared by every workload's traced run.
inline constexpr const char* kSpanUpdate = "api.update";
inline constexpr const char* kSpanSolveRefresh = "core.solve+refresh";
inline constexpr const char* kSpanPublish = "api.publish";
inline constexpr const char* kSpanRefresh = "core.refresh";
inline constexpr const char* kSpanBuild = "loc.build";
inline constexpr const char* kSpanLocalize = "api.localize";
inline constexpr const char* kSpanMatch = "loc.match";
inline constexpr const char* kSpanRegister = "api.register";

/// Record the hook-derived spans of one committed update: the call itself
/// [start, end] with its solve+refresh and publish children.
void record_update_spans(Tracer& tracer, std::uint64_t request,
                         std::int64_t start, std::int64_t end,
                         const HookClock& clock);

/// Re-run the post-commit correlation refresh (MIC gather + LRR solve) on
/// the committed database with the warm state the engine used; records a
/// core.refresh span and returns the LRR iteration count.
std::size_t rerun_refresh(Tracer& tracer, std::uint64_t request,
                          const iup::api::Engine& engine,
                          const iup::api::FingerprintSnapshot& committed,
                          const WarmView& warm);

/// Re-run the OMP localizer build over the committed database; records a
/// loc.build span.
void rerun_build(Tracer& tracer, std::uint64_t request,
                 const iup::linalg::Matrix& database,
                 const iup::sim::Deployment* deployment);

/// Solver diagnostics of committed updates (traced runs only).
struct SolverStats {
  Samples solve_iters, lrr_iters, grouped_share;
  std::size_t updates = 0, warm_hits = 0;
  /// One committed update: its solver result, the LRR iterations of its
  /// correlation refresh, and whether its factor cache was warm.
  void add(const iup::api::UpdateResult& result, std::size_t lrr_iterations,
           bool warm_hit);
  /// core.solve_iters, core.lrr_iters, core.grouped_share and
  /// core.warm_hit_share.
  void report(Report& report) const;
};

/// loc_err_median_m and loc_err_p90_m (lattice quantiles of the labelled
/// queries' errors) and recon_err_median_db; the gate checks all three are
/// finite.
void report_accuracy(Report& report, const Samples& loc_err_m,
                     const Samples& recon_db, Gate& gate);

/// core.solve_ms, core.refresh_ms, loc.build_ms and api.commit_ms from the
/// spans above, plus their sum (stage_sum.update_ms) for reconciliation.
void report_update_layers(const std::vector<const Tracer*>& tracers,
                          Report& report);

/// api.register_ms, loc.match_us and serve.overhead_us from the spans.
void report_read_layers(const std::vector<const Tracer*>& tracers,
                        Report& report);

/// Sum of the SPD fallback counters over `sites` (Engine::site_health).
std::uint64_t spd_fallbacks(const iup::api::Engine& engine,
                            const std::vector<std::string>& sites);

/// Spans of several tracers under one name, as samples in `scale` units.
Samples merged_durations(const std::vector<const Tracer*>& tracers,
                         const char* name, double scale);

}  // namespace perfbench
