// Fluent configuration for iup::api::Engine.
//
//   core::RsvdOptions rsvd;
//   rsvd.w_similarity = 0.0;  // Constraint 2 without adjacent-link similarity
//   auto engine = api::Engine(api::EngineConfig()
//                                 .rsvd(rsvd)
//                                 .refresh_correlation(false));
//
// Setters return *this; unset fields keep the paper's defaults (self-
// augmented RSVD, correlation refreshed on every commit).  Localization
// is not configurable: every site serves the paper's OMP matcher.
// rsvd() is the whole solver configuration: every solve runs
// core::SelfAugmentedRsvd with exactly these options.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "api/snapshot.hpp"
#include "api/status.hpp"
#include "core/lrr.hpp"
#include "core/rsvd.hpp"

namespace iup::api {

/// One successfully committed snapshot, as observed by the after_commit
/// hook: the exact immutable state a durability layer must write to make
/// a later restore bit-identical.  The warm-cache pointers mirror what
/// Engine::cache_warm_state installed for this version (null when the
/// corresponding cache is disabled or the commit path produced none) —
/// persisting them matters because the caches change later solver
/// iterates, so a replay that re-solved from cold caches would drift
/// from the uninterrupted run at the byte level.
struct CommitEvent {
  SnapshotPtr snapshot;  ///< the committed version (never null)
  std::shared_ptr<const linalg::Matrix> warm_factor;    ///< converged L
  std::shared_ptr<const core::LrrWarmStart> lrr_state;  ///< ADMM state
};

/// Failure-path and durability seams on the update pipeline, default-empty
/// (and then completely free: a null hook is never consulted, so the
/// default-config update trajectory is byte-identical with or without this
/// struct).  ingest::FaultInjector::engine_hooks() builds closures for the
/// failure seams; persist::DurabilityManager::engine_hooks() adds the
/// after_commit durability tap (and can compose around an inner injector's
/// hooks).  Hooks may be called concurrently (one per in-flight update)
/// and must be thread-safe.
struct UpdateHooks {
  /// Consulted by every solve (update / reconstruct / update_batch) after
  /// request validation, before the solver runs.  A non-OK return fails
  /// the solve with exactly that status — no state has been touched.
  std::function<Status()> on_solve;
  /// Consulted once per update() after the solve and correlation refresh,
  /// before the commit lock is taken; `elapsed` is the wall-clock time
  /// since the update entered the engine.  A non-OK return aborts the
  /// commit — nothing is published, the site keeps serving its last-good
  /// bundle — which is how a cooperative deadline is enforced (return
  /// kDeadlineExceeded when `elapsed` is past budget).
  std::function<Status(std::chrono::nanoseconds elapsed)> before_publish;
  /// Fired once per committed snapshot (register_site,
  /// set_reference_cells and every update() commit), after publication
  /// and warm-cache installation, OUTSIDE the commit lock and every shard
  /// lock.  The commit is already visible to readers, so the hook cannot
  /// veto it — a durability layer that crashes between publish and its
  /// WAL append loses at most this in-flight commit, never a published
  /// prefix.  Runs on the committing thread; keep it cheap or hand off.
  std::function<void(const CommitEvent&)> after_commit;
};

class EngineConfig {
 public:
  EngineConfig() = default;

  /// The reconstruction solver's options.  Constraint 1 (the X_R * Z
  /// prediction) is built only when use_constraint1 is set, and the
  /// engine's versioned warm-start cache is used only when init is
  /// FactorInit::kWarmStart (the default): each commit then caches its
  /// converged factor as the L0 of the next solve reading that snapshot,
  /// instead of paying for a fresh initialisation SVD.  The cache changes
  /// the second-and-later update() iterates relative to a cold start;
  /// results remain bit-identical across engines replaying the same
  /// per-site request sequence.
  EngineConfig& rsvd(core::RsvdOptions value) {
    rsvd_ = value;
    return *this;
  }
  EngineConfig& lrr(core::LrrOptions value) {
    lrr_ = value;
    return *this;
  }
  /// Re-derive Z from each committed reconstruction (the paper's "original
  /// or latest updated" phrasing).  Each refresh warm-starts from the
  /// previous snapshot's ADMM state (Z + multipliers + penalty, versioned
  /// per-site cache like the solver factor above) instead of solving the
  /// LRR cold — roughly a 3-4x cut in refresh iterations on
  /// slowly-drifting databases.  A version jump the cache was not derived
  /// from (e.g. set_reference_cells) resets to a cold solve, so stale
  /// state can never leak across reference sets; results remain
  /// bit-identical across engines replaying the same request sequence.
  EngineConfig& refresh_correlation(bool value) {
    refresh_correlation_ = value;
    return *this;
  }
  /// Snapshot versions retained per site (0 = unlimited).
  EngineConfig& history_limit(std::size_t value) {
    history_limit_ = value;
    return *this;
  }
  /// How many independent work items run at once (0 = all hardware
  /// threads, default 1): the sites of an update_batch and the
  /// measurements of a localize_batch.  One solve is never split.  Results
  /// are bit-identical for any value, because only independent items run
  /// concurrently.
  EngineConfig& threads(std::size_t value) {
    threads_ = value;
    return *this;
  }
  /// Install failure-path seams on the update pipeline (see UpdateHooks).
  /// Default-empty hooks cost nothing and change nothing.
  EngineConfig& update_hooks(UpdateHooks value) {
    update_hooks_ = std::move(value);
    return *this;
  }

  const core::RsvdOptions& rsvd() const { return rsvd_; }
  const core::LrrOptions& lrr() const { return lrr_; }
  bool refresh_correlation() const { return refresh_correlation_; }
  std::size_t history_limit() const { return history_limit_; }
  const UpdateHooks& update_hooks() const { return update_hooks_; }
  std::size_t threads() const { return threads_; }

 private:
  core::RsvdOptions rsvd_;
  core::LrrOptions lrr_;
  bool refresh_correlation_ = true;
  std::size_t history_limit_ = 0;
  std::size_t threads_ = 1;
  UpdateHooks update_hooks_;
};

}  // namespace iup::api
