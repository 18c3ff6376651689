// iup::serve — per-site shards with RCU-style snapshot publication.
//
// The serving workload is a huge localize fan-out against a fingerprint
// map that updates rarely (the participatory-sensing DFL loop): classic
// read-copy-update.  Each site gets a SiteShard owning
//
//   * the PUBLISHED version: one immutable PublishedSite bundle
//     {snapshot, localizer} in an RcuSlot (see rcu_slot.hpp for why not
//     std::atomic<std::shared_ptr>).  Readers load the pointer, compute
//     against the bundle, and drop it — no mutex, ever.  Writers build
//     the next bundle entirely off to the side and publish it with a
//     single slot store, so a reader either sees the old version or the
//     new one, never a mix; a reader that loaded a bundle keeps it valid
//     for as long as it holds the pointer, even across store eviction or
//     drop_site (shared_ptr lifetime).
//   * the writer-side warm-start caches (solver factor + LRR ADMM state),
//     guarded by the shard's update mutex — taken by update paths only.
//
// Zero-locks-on-the-read-path is machine-checked, not aspirational: every
// serve/api state-mutex acquisition routes through lock_for_update() /
// Engine::state_lock(), which records a violation (and asserts, in Debug)
// when it fires inside a ReadPathScope.  tests/serve_test.cpp drives
// readers through the scope under TSan and requires the violation counter
// to stay zero.  (The RcuSlot's spin bit is an atomic word held for a
// pointer copy — not a mutex, and never held across real work.)
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "api/snapshot.hpp"
#include "core/lrr.hpp"
#include "linalg/matrix.hpp"
#include "loc/localizer.hpp"
#include "serve/health.hpp"
#include "serve/rcu_slot.hpp"

namespace iup::serve {

/// One published, immutable serving version of a site: the snapshot and
/// the localizer built over its database.  The bundle owns both, so a
/// localizer can never outlive the data it matches against — holding the
/// bundle pins the exact {database, reference set, correlation, matcher}
/// a result was computed from (the bit-identity anchor for the
/// localize-during-update guarantee).
struct PublishedSite {
  api::SnapshotPtr snapshot;
  /// Null when the configured localizer needs deployment geometry that is
  /// not attached yet (api::Engine::attach_deployment republishes).
  std::shared_ptr<const loc::Localizer> localizer;
};

using PublishedPtr = std::shared_ptr<const PublishedSite>;

/// Marks the current thread as being on the lock-free serve read path for
/// the scope's lifetime (nestable).  State-mutex acquisitions inside the
/// scope are counted as violations — see read_path_lock_violations().
class ReadPathScope {
 public:
  ReadPathScope();
  ~ReadPathScope();
  ReadPathScope(const ReadPathScope&) = delete;
  ReadPathScope& operator=(const ReadPathScope&) = delete;
};

/// Process-wide count of state-mutex acquisitions that happened inside a
/// ReadPathScope.  Zero in steady state by construction; tests and the
/// soak harness assert it stays zero.
std::uint64_t read_path_lock_violations();

/// True on a thread currently inside a ReadPathScope.
bool in_read_path();

/// Record a state-mutex acquisition: bumps the violation counter (and
/// asserts, in Debug builds) when called inside a ReadPathScope.  Every
/// serve/api state mutex routes its lock() through this.
void note_state_lock_acquired();

/// Writer-side warm-start caches of one site, version-paired so a cached
/// entry is consulted only when it was derived from the exact snapshot
/// version the next solve reads (any version jump starts cold).  Guarded
/// by the owning shard's update mutex; entries are exchanged as pointers
/// under the lock and copied outside it.
struct WarmCaches {
  std::uint64_t factor_version = 0;
  std::shared_ptr<const linalg::Matrix> factor;  ///< converged solver L
  std::uint64_t lrr_version = 0;
  std::shared_ptr<const core::LrrWarmStart> lrr;  ///< ADMM refresh state
};

/// One site's serving state: the published bundle (lock-free readers) and
/// the writer-side caches (update mutex).  Created by the registry at
/// registration; readers that still hold the shard after drop_site keep a
/// valid object serving the last published version.
class SiteShard {
 public:
  explicit SiteShard(std::string site) : site_(std::move(site)) {}

  SiteShard(const SiteShard&) = delete;
  SiteShard& operator=(const SiteShard&) = delete;

  const std::string& site() const { return site_; }

  /// The current published version; never null for a shard found in the
  /// registry, which inserts a shard only once it holds its first bundle
  /// (ShardRegistry::publish).  THE read-path entry point: no mutex, ever.
  PublishedPtr published() const { return published_.load(); }

  /// Replace the published version (release handoff).  Callers serialise
  /// publication order themselves (Engine publishes under its commit
  /// lock, so versions can never publish out of order).
  void publish(PublishedPtr next) { published_.store(std::move(next)); }

  /// Lock the writer-side caches.  Asserts the calling thread is not on
  /// the serve read path (the zero-locks contract).
  std::unique_lock<std::mutex> lock_for_update() const {
    note_state_lock_acquired();
    return std::unique_lock<std::mutex>(update_mutex_);
  }

  /// Warm caches; callers must hold lock_for_update() (the reference
  /// parameter makes that contract explicit at every call site).
  WarmCaches& caches(const std::unique_lock<std::mutex>& lock) const {
    ensure_holds(lock);
    return caches_;
  }

  /// Per-site health/diagnostic counters (see serve/health.hpp).  All
  /// fields are relaxed atomics, so no lock is required from any thread;
  /// like the published bundle, the counters survive drop_site for
  /// readers that still hold the shard.
  SiteHealthCounters& health() const { return health_; }

 private:
  void ensure_holds(const std::unique_lock<std::mutex>& lock) const;

  std::string site_;
  RcuSlot<const PublishedSite> published_;
  mutable std::mutex update_mutex_;
  mutable WarmCaches caches_;
  mutable SiteHealthCounters health_;
};

}  // namespace iup::serve
