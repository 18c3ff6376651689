// iup::api::Engine — the service facade over the whole pipeline.
//
// One Engine owns any number of deployments ("sites"), each a versioned
// history of immutable FingerprintSnapshots in a SnapshotStore.  Per site
// it runs the paper's loop: MIC reference selection + LRR correlation at
// registration, then low-cost updates that reconstruct the database from
// fresh X_B / X_R through the self-augmented RSVD (Algorithm 1, configured
// by EngineConfig::rsvd), and localization over the latest database.
// Every entry point validates its inputs and returns Status / Result<T>;
// exceptions never cross this boundary.
//
// Serving architecture (src/serve/): each site is backed by a SiteShard
// whose published {snapshot, localizer} bundle is swapped RCU-style by the
// write paths.  Every bundle serves the paper's matcher, a
// loc::OmpLocalizer built over the bundle's own database.
// localize()/localize_batch() run WITHOUT ANY LOCK in steady state — they
// resolve the shard through the registry's lock-free map, load one
// published pointer (serve::RcuSlot) and compute against the immutable
// bundle.  A localize overlapping an update observes either the old or
// the new version in full, and its result is bit-identical to a serial
// localize against whichever version it observed (the bundle pins
// database and localizer together).  The zero-locks contract is machine-
// checked: the read paths run inside serve::ReadPathScope and every state
// mutex routes through serve::note_state_lock_acquired().
//
// Batched entry points (update_batch / localize_batch) amortize per-site
// state: snapshots and correlation matrices are reused from the store, the
// localizer (whose construction builds the matching dictionary) lives in
// the published bundle, and each commit caches its converged solver factor
// in the site's shard as a versioned warm start for the next solve of the
// same snapshot (whenever EngineConfig::rsvd().init is
// FactorInit::kWarmStart, the default), skipping the per-update
// initialisation SVD.
//
// Commits: register_site, set_reference_cells and update() build their
// next snapshot and its localizer outside every lock, then store and
// publish it through one private commit(), which refuses the commit unless
// the site's latest snapshot is still exactly the one the work was based
// on (pointer identity, so a drop + re-register in between is caught too).
//
// Parallelism has one grain: EngineConfig::threads(n) is how many
// independent work items run at once.  update_batch parallelises across
// *sites* (same-site requests stay strictly ordered, so batches remain
// exactly equivalent to sequential update() calls) and localize_batch
// across measurements.  One solve (sweep, MIC, LRR) always runs on one
// thread.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/engine_config.hpp"
#include "api/snapshot.hpp"
#include "api/status.hpp"
#include "base/ids.hpp"
#include "core/updater.hpp"
#include "linalg/cholesky.hpp"
#include "loc/localizer.hpp"
#include "loc/omp.hpp"
#include "serve/health.hpp"
#include "serve/registry.hpp"
#include "serve/shard.hpp"

namespace iup::persist {
struct EngineImage;
struct SiteImage;
struct WalRecord;
}  // namespace iup::persist

namespace iup::api {

// API v2 vocabulary (base/ids.hpp), re-exported so callers can spell the
// typed identifiers as api::CellId etc. next to the Engine they feed.
using iup::CellId;
using iup::LinkId;
using iup::SourceId;
using iup::SourceInfo;
using iup::Technology;

/// One low-cost update: fresh measurements for one site at one timestamp.
struct UpdateRequest {
  std::string site;
  core::UpdateInputs inputs;  ///< X_B (no-decrease) + X_R (reference survey)
  std::size_t day = 0;        ///< timestamp label carried into the snapshot
};

/// One-call health/staleness introspection for a site: a sampled copy of
/// its serve::SiteHealthCounters plus the serving metadata a degraded site
/// keeps publishing (which version is served, how stale it is against the
/// observation stream).  Counters are relaxed-atomic tallies sampled
/// individually, so fields may be mutually skewed by in-flight updates —
/// a monitoring surface, not a transaction.
struct SiteHealth : serve::HealthValues {
  std::uint64_t serving_version = 0;  ///< published bundle's version
  std::size_t serving_day = 0;        ///< published bundle's day label
  std::uint64_t latest_version = 0;   ///< store's newest committed version
  /// last_observed_day - serving_day when the stream is ahead, else 0.
  std::uint64_t staleness_days = 0;
};

struct UpdateResult {
  core::RsvdResult solver;
  std::size_t reference_count = 0;
  std::uint64_t base_version = 0;       ///< snapshot version the solve read
  std::uint64_t committed_version = 0;  ///< 0 for reconstruct()
  SnapshotPtr snapshot;                 ///< committed snapshot; null for
                                        ///< reconstruct()

  /// The reconstructed fingerprint matrix.
  const linalg::Matrix& x_hat() const { return solver.x_hat; }
};

/// The localizers the evaluation compares (Figs. 21-24).  The Engine
/// itself always serves kOmp.
enum class LocalizerKind {
  kOmp,   ///< the paper's sparse-recovery matcher (Sec. V)
  kRass,  ///< SVR baseline; needs deployment geometry
};

/// Build a localizer of `kind` over `database`.  `deployment` is mandatory
/// for kRass; returns nullptr when it is missing.
std::unique_ptr<loc::Localizer> make_localizer(
    LocalizerKind kind, const linalg::Matrix& database,
    const sim::Deployment* deployment = nullptr);

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  // --- site lifecycle --------------------------------------------------
  /// Register a deployment from its initial site survey: selects the MIC
  /// reference locations, acquires the correlation matrix Z, commits
  /// snapshot version 1 and publishes the site's first serving bundle.
  /// `sources` is the site's per-link source table — entry i names the
  /// transmitter behind fingerprint row i and its technology (WiFi AP /
  /// BLE beacon / LoRa node).  It must be empty (legacy: source
  /// validation disabled) or have exactly one entry per link, every id
  /// specified and unique.  The table is carried immutably through every
  /// snapshot version the site commits, and enforced against
  /// UpdateInputs::sources and (through the supervisor's
  /// ObservationBuffer) every streamed observation.
  Result<SnapshotPtr> register_site(std::string site,
                                    linalg::Matrix x_original,
                                    linalg::Matrix b_mask,
                                    std::vector<SourceInfo> sources = {});
  Status drop_site(const std::string& site);

  /// Validates its arguments and nothing else: kInvalidArgument for a
  /// null deployment, kNotFound for an unknown site, otherwise OK.  The
  /// OMP matcher every site serves needs no geometry, so the engine
  /// stores nothing and republishes nothing.  Kept only because the
  /// benchmark harness (perfbench/) still calls it and checks the status;
  /// once those calls are gone, so can this method be.
  Status attach_deployment(const std::string& site,
                           const sim::Deployment* deployment);

  // --- snapshots -------------------------------------------------------
  Result<SnapshotPtr> snapshot(const std::string& site) const;
  Result<SnapshotPtr> snapshot(const std::string& site,
                               std::uint64_t version) const;
  /// The grid cells a surveyor must visit for the next update, as typed
  /// CellIds (API v2; use CellId::value() at the numeric boundary).
  Result<std::vector<CellId>> reference_cells(const std::string& site) const;
  /// Override the reference set (benches evaluate 7 / 8+1 / random sets);
  /// commits a new snapshot version with the re-acquired correlation.
  Status set_reference_cells(const std::string& site,
                             std::vector<CellId> cells);
  /// The site's registered per-link source table; empty for legacy
  /// single-technology registrations.
  Result<std::vector<SourceInfo>> sources(const std::string& site) const;

  // --- updates ---------------------------------------------------------
  /// Reconstruct against the latest snapshot without committing.
  Result<UpdateResult> reconstruct(const UpdateRequest& request) const;
  /// Reconstruct and commit a new snapshot version.
  Result<UpdateResult> update(const UpdateRequest& request);
  /// Apply many updates (any mix of sites).  Per site, requests are
  /// processed in order, so same-site requests at increasing timestamps
  /// are exactly equivalent to sequential update() calls; each request
  /// gets its own Result and a failed request never blocks the rest of
  /// the batch.  With config().threads() > 1 distinct sites are updated
  /// concurrently — results are bit-identical to the sequential order
  /// because sites share no mutable state.
  std::vector<Result<UpdateResult>> update_batch(
      const std::vector<UpdateRequest>& requests);

  // --- localization ----------------------------------------------------
  /// Lock-free: resolves the site's published {snapshot, localizer}
  /// bundle and matches against it (see the serving-architecture note).
  Result<loc::LocalizationEstimate> localize(
      const std::string& site, std::span<const double> measurement) const;
  /// Localize many online measurements against one site; all of them
  /// match the SAME published bundle (one version, even mid-update).
  Result<std::vector<loc::LocalizationEstimate>> localize_batch(
      const std::string& site,
      const std::vector<std::vector<double>>& measurements) const;

  const SnapshotStore& store() const { return store_; }
  const EngineConfig& config() const { return config_; }

  /// The serve-layer registry backing this engine's sites.  The
  /// soak/bench harnesses build on it; shards resolved from it stay valid
  /// across drop_site.
  const serve::ShardRegistry& shards() const { return *shards_; }

  /// The site's current published serving bundle (lock-free).  Holding
  /// the pointer pins that exact {snapshot, localizer} version across
  /// any number of concurrent updates or evictions.
  Result<serve::PublishedPtr> published(const std::string& site) const;

  /// Snapshot version the site's cached warm-start factor was derived
  /// from, or nullopt when the cache is empty (rsvd().init is not
  /// FactorInit::kWarmStart, never updated, or dropped).  A cached version
  /// older than the site's latest snapshot means the next solve
  /// re-initialises cold — the cache is consulted only when the versions
  /// match exactly.  Introspection for tests and monitoring.
  std::optional<std::uint64_t> warm_start_version(
      const std::string& site) const;

  /// Snapshot version of the site's cached LRR ADMM warm-start state
  /// (correlation refresh), or nullopt when empty.  Same exact-match
  /// consultation rule as warm_start_version().
  std::optional<std::uint64_t> lrr_warm_version(const std::string& site) const;

  /// Health/staleness snapshot for one site: update pipeline state,
  /// serving version vs latest commit, quarantine tallies and the SPD
  /// fallback counters attributed to this site (previously only the
  /// process-global linalg::spd_stats() existed).  Not a read-path call
  /// (it takes the commit lock for the latest version); monitoring and
  /// tests only.
  Result<SiteHealth> site_health(const std::string& site) const;

  // --- durability (implemented in src/persist/engine_persist.cpp) ------
  /// Write a durable checkpoint of every site — retained snapshot chain,
  /// warm-start caches, health counters — into `dir` (created if needed)
  /// with atomic publication (temp + fsync + rename).  Safe to call
  /// concurrently with updates: it collects a commit-consistent view per
  /// site (never holding the commit lock across I/O) and never touches
  /// the serve read path.
  Status save_checkpoint(const std::string& dir) const;
  /// Crash recovery into a FRESH engine (kFailedPrecondition when any
  /// site is already registered): load `dir`'s checkpoint (if present),
  /// replay the WAL suffix (torn tail tolerated, mid-stream corruption is
  /// kDataLoss), republish every site at its recovered latest version and
  /// reinstall the warm caches so the next solves are bit-identical to an
  /// uninterrupted run.  kNotFound when `dir` holds no durable state at
  /// all.  The engine's config must match the writer's for bit-identity
  /// (documented in README).
  Status restore_from(const std::string& dir);

 private:
  /// Validate `request` against `snapshot` and run the solver, seeding it
  /// from the shard's warm-start cache when the cached version matches.
  Result<UpdateResult> solve_request(const FingerprintSnapshot& snapshot,
                                     const UpdateRequest& request) const;

  /// update() minus the health accounting wrapper.
  Result<UpdateResult> update_impl(const UpdateRequest& request);

  /// Record one update outcome in the site's shard counters: commit
  /// success/failure plus the delta of the process-wide SPD stats across
  /// the attempt (the per-site fallback attribution; see serve/health.hpp
  /// for the concurrency caveat).
  void record_update_health(const std::string& site, bool ok,
                            const linalg::SpdStats& before) const;

  /// Post-commit correlation refresh: gather the reference columns of
  /// `x_hat` (MIC) and re-solve the LRR for Z with config_.lrr(),
  /// warm-starting the ADMM from `warm` when given.  Runs outside the
  /// state lock; in update_batch the per-site refreshes execute
  /// concurrently across sites.
  Result<core::LrrResult> refreshed_correlation(
      const linalg::Matrix& x_hat, const std::vector<std::size_t>& cells,
      const core::LrrWarmStart* warm) const;

  /// Cached LRR state for solves reading snapshot `version` of `site`
  /// (nullptr on version mismatch / empty cache) from the site's shard.
  std::shared_ptr<const core::LrrWarmStart> lrr_warm_for(
      const std::string& site, std::uint64_t version) const;
  static std::shared_ptr<const core::LrrWarmStart> lrr_state_of(
      const linalg::Matrix& z, core::LrrResult&& result);

  /// The OMP localizer over `database`, ready for a bundle (never null).
  /// Wraps construction exceptions into Status.
  static Result<std::shared_ptr<const loc::OmpLocalizer>> build_localizer(
      const linalg::Matrix& database);

  /// The one commit path of register_site, set_reference_cells and
  /// update().  First refuses (kInternal, touching nothing) a `next` whose
  /// database or correlation holds a non-finite entry.  Then, under the
  /// commit lock, requires the site's latest snapshot
  /// to be exactly `base` (the same object, so a drop + re-register is not
  /// mistaken for the site the work read) — or, for a registration
  /// (`base` null), the site to be absent — and fails with
  /// kFailedPrecondition otherwise, touching nothing.  Then stores `next`
  /// and publishes {next, localizer}.  Outside every lock it installs the
  /// warm caches for next's version (null pointers skip their slot) and
  /// fires the after_commit hook.  `caller` prefixes the error message.
  Status commit(const char* caller, const SnapshotPtr& base,
                SnapshotPtr next,
                std::shared_ptr<const loc::OmpLocalizer> localizer,
                std::shared_ptr<const linalg::Matrix> factor,
                std::shared_ptr<const core::LrrWarmStart> lrr);

  /// Acquire the commit lock, asserting the caller is not on the serve
  /// read path (the zero-locks contract; see serve/shard.hpp).
  std::unique_lock<std::mutex> state_lock() const {
    serve::note_state_lock_acquired();
    return std::unique_lock<std::mutex>(*state_mutex_);
  }

  /// Store the post-commit warm-start caches in the site's shard (its own
  /// lock; never held together with the commit lock).  Null pointers skip
  /// their slot.
  void cache_warm_state(const std::string& site, std::uint64_t version,
                        std::shared_ptr<const linalg::Matrix> factor,
                        std::shared_ptr<const core::LrrWarmStart> lrr) const;

  // --- durability internals (src/persist/engine_persist.cpp) -----------
  /// Commit-consistent value image of every site for checkpointing.
  persist::EngineImage collect_persist_image() const;
  /// Install one checkpointed site into a fresh engine: restore the
  /// chain, publish the latest version, reinstall warm caches + health.
  Status install_restored_site(persist::SiteImage image);
  /// Apply one WAL record during replay (idempotent: versions at or below
  /// the site's restored latest are skipped; a gap is kDataLoss).
  Status apply_wal_record(const persist::WalRecord& record);

  EngineConfig config_;
  /// config_.update_hooks(): failure-path seams, empty (never consulted)
  /// by default.
  UpdateHooks hooks_;
  /// config_.rsvd().init is FactorInit::kWarmStart, so the solver consumes
  /// problem.l0; otherwise the factor cache is bypassed entirely (no
  /// copies, no retention).
  bool warm_start_enabled_ = false;
  /// The COMMIT lock: guards store_ and serialises publication order
  /// (bundles are published while it is held, so a site's published
  /// version can never move backwards).  Solver, correlation and
  /// localizer-construction work always runs outside it, and the
  /// localization read paths never touch it at all.  Held by unique_ptr
  /// so Engine stays movable (moving an Engine while a batch is in flight
  /// is a caller bug, as with any container).
  std::unique_ptr<std::mutex> state_mutex_ = std::make_unique<std::mutex>();
  SnapshotStore store_;
  /// Per-site serving shards: published bundles + warm-start caches.
  /// unique_ptr (registry is non-movable) so Engine stays movable.
  std::unique_ptr<serve::ShardRegistry> shards_ =
      std::make_unique<serve::ShardRegistry>();
};

}  // namespace iup::api
