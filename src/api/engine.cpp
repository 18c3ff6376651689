#include "api/engine.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <unordered_map>
#include <utility>

#include "baselines/rass.hpp"
#include "core/lrr.hpp"
#include "core/mic.hpp"
#include "core/self_augmented.hpp"
#include "loc/omp.hpp"
#include "parallel/thread_pool.hpp"

namespace iup::api {

namespace {

// Input hygiene for the service boundary: a single NaN/Inf smuggled into a
// solve poisons every downstream iterate (and commits a corrupt snapshot),
// so malformed RSS is rejected with kInvalidArgument BEFORE any state is
// touched.  One linear pass over caller-provided data — noise next to the
// solves it protects.
bool all_finite(const linalg::Matrix& m) {
  for (const double v : m.data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool all_finite(std::span<const double> v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::size_t count_non_finite(const linalg::Matrix& m) {
  std::size_t count = 0;
  for (const double v : m.data()) count += std::isfinite(v) ? 0 : 1;
  return count;
}

}  // namespace

std::unique_ptr<loc::Localizer> make_localizer(
    LocalizerKind kind, const linalg::Matrix& database,
    const sim::Deployment* deployment) {
  switch (kind) {
    case LocalizerKind::kOmp:
      return std::make_unique<loc::OmpLocalizer>(database,
                                                 std::vector<double>{});
    case LocalizerKind::kRass:
      if (deployment == nullptr) return nullptr;
      return std::make_unique<baselines::Rass>(database, *deployment);
  }
  return nullptr;
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      hooks_(config_.update_hooks()),
      warm_start_enabled_(config_.rsvd().init ==
                          core::FactorInit::kWarmStart),
      lrr_warm_enabled_(config_.lrr_warm_start()),
      store_(config_.history_limit()) {}

std::shared_ptr<const core::LrrWarmStart> Engine::lrr_warm_for(
    const std::string& site, std::uint64_t version) const {
  if (!lrr_warm_enabled_) return nullptr;
  const auto shard = shards_->find(site);
  if (shard == nullptr) return nullptr;
  const auto lock = shard->lock_for_update();
  const serve::WarmCaches& caches = shard->caches(lock);
  if (caches.lrr_version != version) return nullptr;
  return caches.lrr;
}

std::shared_ptr<const core::LrrWarmStart> Engine::lrr_state_of(
    const linalg::Matrix& z, core::LrrResult&& result) {
  auto state = std::make_shared<core::LrrWarmStart>();
  state->z = z;
  state->y1 = std::move(result.y1);
  state->y2 = std::move(result.y2);
  state->mu = result.mu_final;
  return state;
}

void Engine::cache_warm_state(
    const std::string& site, std::uint64_t version,
    std::shared_ptr<const linalg::Matrix> factor,
    std::shared_ptr<const core::LrrWarmStart> lrr) const {
  if (factor == nullptr && lrr == nullptr) return;
  const auto shard = shards_->find(site);
  if (shard == nullptr) return;  // site dropped since the commit
  const auto lock = shard->lock_for_update();
  serve::WarmCaches& caches = shard->caches(lock);
  // Monotonic: never let a slower writer overwrite a newer commit's cache
  // with an older entry (consultation is exact-version-match, so a stale
  // overwrite would only cost a cold start — but it is free to prevent).
  if (factor != nullptr && version >= caches.factor_version) {
    caches.factor_version = version;
    caches.factor = std::move(factor);
  }
  if (lrr != nullptr && version >= caches.lrr_version) {
    caches.lrr_version = version;
    caches.lrr = std::move(lrr);
  }
}

Result<std::shared_ptr<const loc::OmpLocalizer>> Engine::build_localizer(
    const linalg::Matrix& database) {
  try {
    return std::make_shared<const loc::OmpLocalizer>(database,
                                                     std::vector<double>{});
  } catch (const std::exception& e) {
    return Status::internal(std::string("localizer construction: ") +
                            e.what());
  }
}

Status Engine::commit(const char* caller, const SnapshotPtr& base,
                      SnapshotPtr next,
                      std::shared_ptr<const loc::OmpLocalizer> localizer,
                      std::shared_ptr<const linalg::Matrix> factor,
                      std::shared_ptr<const core::LrrWarmStart> lrr) {
  const std::string& site = next->site();
  // Publish-time finiteness guard: finite inputs can still overflow inside
  // a solve, and a non-finite database must never be served.
  for (const auto& [name, m] :
       {std::pair<const char*, const linalg::Matrix*>{"database",
                                                      &next->database()},
        {"correlation", &next->correlation()}}) {
    if (const std::size_t bad = count_non_finite(*m); bad > 0) {
      return Status::internal(std::string(caller) + ": site '" + site +
                              "' " + name + " has " + std::to_string(bad) +
                              " non-finite entries; nothing committed");
    }
  }
  {
    const auto lock = state_lock();
    // Lost-update guard: `next` was derived from `base`, so committing on
    // top of anything else would discard a concurrent commit — or, after a
    // drop + re-register, graft the old site's state onto the new one,
    // whose version numbers restart at 1.  Identity tells those apart.
    const SnapshotPtr latest =
        store_.contains(site) ? store_.latest(site).value() : nullptr;
    if (latest != base) {
      return Status::failed_precondition(
          std::string(caller) + ": site '" + site + "' " +
          (base == nullptr
               ? std::string("is already registered")
               : "changed after this commit read its version " +
                     std::to_string(base->version()) +
                     " (a concurrent commit, drop or re-registration)"));
    }
    if (Status put = store_.put(next); !put.ok()) return put;
    // Published under the commit lock so versions can never publish out of
    // order; a localize overlapping this store is entirely lock-free (it
    // loads the atomic bundle pointer, not this mutex).
    shards_->publish(site,
                     std::make_shared<const serve::PublishedSite>(
                         serve::PublishedSite{next, std::move(localizer)}));
  }
  cache_warm_state(site, next->version(), factor, lrr);
  // Durability tap: every commit, registration (version 1) included.
  if (hooks_.after_commit) {
    hooks_.after_commit(
        CommitEvent{std::move(next), std::move(factor), std::move(lrr)});
  }
  return {};
}

Result<SnapshotPtr> Engine::register_site(std::string site,
                                          linalg::Matrix x_original,
                                          linalg::Matrix b_mask,
                                          std::vector<SourceInfo> sources) {
  if (site.empty()) {
    return Status::invalid_argument("register_site: empty site name");
  }
  {
    const auto lock = state_lock();
    if (store_.contains(site)) {
      return Status::failed_precondition("register_site: site '" + site +
                                         "' is already registered");
    }
  }
  if (x_original.empty()) {
    return Status::invalid_argument("register_site: empty fingerprint matrix");
  }
  if (x_original.rows() != b_mask.rows() ||
      x_original.cols() != b_mask.cols()) {
    return Status::invalid_argument(
        "register_site: X is " + std::to_string(x_original.rows()) + "x" +
        std::to_string(x_original.cols()) + " but B is " +
        std::to_string(b_mask.rows()) + "x" + std::to_string(b_mask.cols()));
  }
  if (x_original.cols() % x_original.rows() != 0) {
    return Status::invalid_argument(
        "register_site: grid size " + std::to_string(x_original.cols()) +
        " is not a multiple of the link count " +
        std::to_string(x_original.rows()) + " (band layout)");
  }
  if (!all_finite(x_original)) {
    return Status::invalid_argument(
        "register_site: survey matrix contains non-finite entries");
  }
  // B is an index matrix (Eq. 8): the sweep treats any nonzero entry as
  // observed while the objective's data term scales by the entry, so a
  // fractional entry would make the two disagree.
  for (std::size_t i = 0; i < b_mask.rows(); ++i) {
    for (std::size_t j = 0; j < b_mask.cols(); ++j) {
      const double v = b_mask(i, j);
      if (v != 0.0 && v != 1.0) {
        return Status::invalid_argument(
            "register_site: mask entry (link " + std::to_string(i) +
            ", cell " + std::to_string(j) + ") is " + std::to_string(v) +
            "; B must be 0 or 1");
      }
    }
  }
  // Source-table hygiene (multi-radio model): one entry per link, every
  // id specified and unique.  An empty table is the legacy degenerate
  // case — single technology, no source validation anywhere downstream.
  if (!sources.empty()) {
    if (sources.size() != x_original.rows()) {
      return Status::invalid_argument(
          "register_site: source table has " +
          std::to_string(sources.size()) + " entries but the site has " +
          std::to_string(x_original.rows()) + " links");
    }
    std::unordered_map<std::uint64_t, std::size_t> seen;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (!sources[i].id.specified()) {
        return Status::invalid_argument(
            "register_site: source for link " + std::to_string(i) +
            " has an unspecified id");
      }
      const auto [it, fresh] = seen.try_emplace(sources[i].id.value(), i);
      if (!fresh) {
        return Status::invalid_argument(
            "register_site: source id " +
            std::to_string(sources[i].id.value()) +
            " is registered for both link " + std::to_string(it->second) +
            " and link " + std::to_string(i));
      }
    }
  }
  const core::BandLayout layout = core::band_layout_of(x_original);

  core::MicResult mic;
  linalg::Matrix z;
  std::shared_ptr<const core::LrrWarmStart> lrr_state;
  try {
    mic = core::extract_mic(x_original);
    if (mic.reference_cells.empty()) {
      return Status::invalid_argument(
          "register_site: fingerprint matrix has rank 0, no reference "
          "locations can be selected");
    }
    core::LrrResult lrr =
        core::solve_lrr(mic.x_mic, x_original, config_.lrr());
    z = std::move(lrr.z);
    // Seed the refresh warm-start cache from the registration solve, so
    // even the site's first update refreshes warm.
    if (lrr_warm_enabled_) lrr_state = lrr_state_of(z, std::move(lrr));
  } catch (const std::exception& e) {
    return Status::internal(std::string("register_site: ") + e.what());
  }

  SnapshotPtr snapshot = std::make_shared<FingerprintSnapshot>(
      site, /*version=*/1, std::move(x_original), std::move(b_mask), layout,
      std::move(mic.reference_cells), std::move(z), /*day=*/0,
      std::move(sources));
  Result<std::shared_ptr<const loc::OmpLocalizer>> localizer =
      build_localizer(snapshot->database());
  if (!localizer.ok()) return localizer.status();
  // commit() re-checks that the name is still free: a concurrent
  // register_site may have won the race since the early check above.
  if (Status committed =
          commit("register_site", nullptr, snapshot,
                 std::move(localizer).value(), nullptr, std::move(lrr_state));
      !committed.ok()) {
    return committed;
  }
  return snapshot;
}

Status Engine::drop_site(const std::string& site) {
  const auto lock = state_lock();
  // Readers that already resolved the shard keep serving its last bundle;
  // new lookups miss.  Warm caches die with the shard.
  shards_->erase(site);
  return store_.erase_site(site);
}

std::optional<std::uint64_t> Engine::warm_start_version(
    const std::string& site) const {
  const auto shard = shards_->find(site);
  if (shard == nullptr) return std::nullopt;
  const auto lock = shard->lock_for_update();
  const serve::WarmCaches& caches = shard->caches(lock);
  if (caches.factor == nullptr) return std::nullopt;
  return caches.factor_version;
}

std::optional<std::uint64_t> Engine::lrr_warm_version(
    const std::string& site) const {
  const auto shard = shards_->find(site);
  if (shard == nullptr) return std::nullopt;
  const auto lock = shard->lock_for_update();
  const serve::WarmCaches& caches = shard->caches(lock);
  if (caches.lrr == nullptr) return std::nullopt;
  return caches.lrr_version;
}

Status Engine::attach_deployment(const std::string& site,
                                 const sim::Deployment* deployment) {
  if (deployment == nullptr) {
    return Status::invalid_argument("attach_deployment: null deployment");
  }
  const auto lock = state_lock();
  if (!store_.contains(site)) {
    return Status::not_found("attach_deployment: unknown site '" + site +
                             "'");
  }
  return {};
}

Result<SnapshotPtr> Engine::snapshot(const std::string& site) const {
  const auto lock = state_lock();
  return store_.latest(site);
}

Result<SnapshotPtr> Engine::snapshot(const std::string& site,
                                     std::uint64_t version) const {
  const auto lock = state_lock();
  return store_.at_version(site, version);
}

Result<std::vector<CellId>> Engine::reference_cells(
    const std::string& site) const {
  Result<SnapshotPtr> latest = snapshot(site);
  if (!latest.ok()) return latest.status();
  return to_cell_ids(latest.value()->reference_cells());
}

Result<std::vector<SourceInfo>> Engine::sources(
    const std::string& site) const {
  Result<SnapshotPtr> latest = snapshot(site);
  if (!latest.ok()) return latest.status();
  return latest.value()->sources();
}

Status Engine::set_reference_cells(const std::string& site,
                                   std::vector<CellId> ids) {
  std::vector<std::size_t> cells = to_raw_cells(ids);
  // The published bundle pins the latest snapshot together with the
  // localizer built over its database.  The new version keeps that
  // database, so it reuses the localizer instead of rebuilding the
  // dictionary (commit() refuses if the snapshot is no longer the latest).
  const auto shard = shards_->find(site);
  if (shard == nullptr) {
    return Status::not_found("set_reference_cells: unknown site '" + site +
                             "'");
  }
  const serve::PublishedPtr bundle = shard->published();
  const SnapshotPtr& snap = bundle->snapshot;
  if (cells.empty()) {
    return Status::invalid_argument("set_reference_cells: empty reference "
                                    "set (at least one cell is required)");
  }
  for (const std::size_t cell : cells) {
    if (cell >= snap->database().cols()) {
      return Status::invalid_argument(
          "set_reference_cells: cell " + std::to_string(cell) +
          " is outside the " + std::to_string(snap->database().cols()) +
          "-cell grid");
    }
  }

  // A reference-set change invalidates any cached ADMM state by shape, so
  // this refresh always solves cold (the convergence-preserving reset) —
  // and its state re-seeds the cache for the version it commits.
  Result<core::LrrResult> refreshed =
      refreshed_correlation(snap->database(), cells, nullptr);
  if (!refreshed.ok()) {
    return Status::internal("set_reference_cells: " +
                            refreshed.status().message());
  }
  core::LrrResult lrr = std::move(refreshed).value();
  linalg::Matrix z = std::move(lrr.z);
  std::shared_ptr<const core::LrrWarmStart> lrr_state;
  if (lrr_warm_enabled_) lrr_state = lrr_state_of(z, std::move(lrr));

  return commit("set_reference_cells", snap,
                std::make_shared<FingerprintSnapshot>(
                    site, snap->version() + 1, snap->database(), snap->mask(),
                    snap->layout(), std::move(cells), std::move(z),
                    snap->day(), snap->sources()),
                bundle->localizer, nullptr, std::move(lrr_state));
}

Result<UpdateResult> Engine::solve_request(const FingerprintSnapshot& snap,
                                           const UpdateRequest& request) const {
  const core::UpdateInputs& inputs = request.inputs;
  const linalg::Matrix& mask = snap.mask();
  if (inputs.x_b.rows() != mask.rows() || inputs.x_b.cols() != mask.cols()) {
    return Status::invalid_argument(
        "update: X_B is " + std::to_string(inputs.x_b.rows()) + "x" +
        std::to_string(inputs.x_b.cols()) + " but site '" + snap.site() +
        "' expects " + std::to_string(mask.rows()) + "x" +
        std::to_string(mask.cols()));
  }
  if (inputs.x_r.rows() != mask.rows() ||
      inputs.x_r.cols() != snap.reference_cells().size()) {
    return Status::invalid_argument(
        "update: X_R is " + std::to_string(inputs.x_r.rows()) + "x" +
        std::to_string(inputs.x_r.cols()) + " but site '" + snap.site() +
        "' expects one fresh column per reference location (" +
        std::to_string(mask.rows()) + "x" +
        std::to_string(snap.reference_cells().size()) + ")");
  }
  // Reject corrupt measurements before any solver state is built: a
  // non-finite entry would propagate through the factor iterates and, on
  // the update path, commit a poisoned snapshot.
  if (!all_finite(inputs.x_b)) {
    return Status::invalid_argument(
        "update: X_B contains non-finite RSS values");
  }
  if (!all_finite(inputs.x_r)) {
    return Status::invalid_argument(
        "update: X_R contains non-finite RSS values");
  }
  // Source-provenance check: inputs that declare where their rows came
  // from must agree with the site's registered table link by link (a row
  // swap between technologies is undetectable numerically but corrupts
  // the fingerprint semantics).  Unattributed inputs (empty) are accepted
  // for compatibility with pre-source measurement campaigns.
  if (!inputs.sources.empty()) {
    const std::vector<SourceInfo>& registered = snap.sources();
    if (registered.empty()) {
      return Status::invalid_argument(
          "update: inputs carry a source table but site '" + snap.site() +
          "' was registered without one");
    }
    if (inputs.sources.size() != registered.size()) {
      return Status::invalid_argument(
          "update: inputs carry " + std::to_string(inputs.sources.size()) +
          " sources but site '" + snap.site() + "' registered " +
          std::to_string(registered.size()));
    }
    for (std::size_t i = 0; i < registered.size(); ++i) {
      if (inputs.sources[i] != registered[i]) {
        return Status::invalid_argument(
            "update: source for link " + std::to_string(i) + " is id " +
            std::to_string(inputs.sources[i].id.value()) + " (" +
            std::string(to_string(inputs.sources[i].technology)) +
            ") but site '" + snap.site() + "' registered id " +
            std::to_string(registered[i].id.value()) + " (" +
            std::string(to_string(registered[i].technology)) + ")");
      }
    }
  }
  // Fault-injection / chaos seam: a non-OK on_solve hook IS a solver
  // failure as far as every caller can tell (empty by default).
  if (hooks_.on_solve) {
    if (Status forced = hooks_.on_solve(); !forced.ok()) return forced;
  }

  core::RsvdProblem problem;
  problem.x_b = inputs.x_b;
  problem.b = mask;
  if (config_.rsvd().use_constraint1) {
    problem.p = inputs.x_r * snap.correlation();
  }
  if (warm_start_enabled_) {
    // Seed the solver from the cached factor when — and only when — it was
    // derived from the exact snapshot this solve reads; any other version
    // means the site moved underneath the cache and the solver starts cold.
    // Only the pointer moves under the shard lock; the copy happens
    // outside it.
    std::shared_ptr<const linalg::Matrix> cached;
    if (const auto shard = shards_->find(snap.site()); shard != nullptr) {
      const auto lock = shard->lock_for_update();
      const serve::WarmCaches& caches = shard->caches(lock);
      if (caches.factor_version == snap.version()) cached = caches.factor;
    }
    if (cached != nullptr) problem.l0 = *cached;
  }

  UpdateResult result;
  try {
    const core::SelfAugmentedRsvd solver(snap.layout(), config_.rsvd());
    result.solver = solver.solve(problem);
  } catch (const std::exception& e) {
    return Status::internal(std::string("solver failed: ") + e.what());
  }
  result.reference_count = snap.reference_cells().size();
  result.base_version = snap.version();
  return result;
}

Result<UpdateResult> Engine::reconstruct(const UpdateRequest& request) const {
  Result<SnapshotPtr> latest = snapshot(request.site);
  if (!latest.ok()) return latest.status();
  return solve_request(*latest.value(), request);
}

Result<core::LrrResult> Engine::refreshed_correlation(
    const linalg::Matrix& x_hat, const std::vector<std::size_t>& cells,
    const core::LrrWarmStart* warm) const {
  try {
    const core::MicResult mic = core::mic_from_cells(x_hat, cells);
    return core::solve_lrr(mic.x_mic, x_hat, config_.lrr(), warm);
  } catch (const std::exception& e) {
    return Status::internal(std::string("correlation refresh: ") + e.what());
  }
}

Result<UpdateResult> Engine::update(const UpdateRequest& request) {
  // Health accounting wraps the real work: sample the process-wide SPD
  // counters so the attempt's fallback delta lands on this site, and
  // record the commit outcome.  Counters only — no behavior change.
  const linalg::SpdStats spd_before = linalg::spd_stats();
  Result<UpdateResult> result = update_impl(request);
  record_update_health(request.site, result.ok(), spd_before);
  return result;
}

void Engine::record_update_health(const std::string& site, bool ok,
                                  const linalg::SpdStats& before) const {
  const auto shard = shards_->find(site);
  if (shard == nullptr) return;  // unknown or dropped site: nothing to tag
  serve::SiteHealthCounters& health = shard->health();
  (ok ? health.updates_ok : health.updates_failed)
      .fetch_add(1, std::memory_order_relaxed);
  const linalg::SpdStats now = linalg::spd_stats();
  const auto add = [](std::atomic<std::uint64_t>& counter, std::uint64_t a,
                      std::uint64_t b) {
    if (a > b) counter.fetch_add(a - b, std::memory_order_relaxed);
  };
  add(health.spd_cholesky_failures, now.cholesky_failures,
      before.cholesky_failures);
  add(health.spd_bump_recoveries, now.bump_recoveries, before.bump_recoveries);
  add(health.spd_lu_fallbacks, now.lu_fallbacks, before.lu_fallbacks);
}

Result<SiteHealth> Engine::site_health(const std::string& site) const {
  const auto shard = shards_->find(site);
  if (shard == nullptr) {
    return Status::not_found("site_health: unknown site '" + site + "'");
  }
  SiteHealth out{shard->health().sample()};
  if (const serve::PublishedPtr bundle = shard->published();
      bundle != nullptr && bundle->snapshot != nullptr) {
    out.serving_version = bundle->snapshot->version();
    out.serving_day = bundle->snapshot->day();
  }
  {
    const auto lock = state_lock();
    if (store_.contains(site)) {
      out.latest_version = store_.next_version(site) - 1;
    }
  }
  out.staleness_days = out.last_observed_day > out.serving_day
                           ? out.last_observed_day - out.serving_day
                           : 0;
  return out;
}

Result<UpdateResult> Engine::update_impl(const UpdateRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  Result<SnapshotPtr> latest = snapshot(request.site);
  if (!latest.ok()) return latest.status();
  const SnapshotPtr snap = std::move(latest).value();

  // The solve — the expensive part — runs outside the state lock; only
  // the commit below re-acquires it.  Per-site ordering is the caller's
  // (or update_batch's) responsibility, exactly as before.
  Result<UpdateResult> solved = solve_request(*snap, request);
  if (!solved.ok()) return solved;
  UpdateResult result = std::move(solved).value();

  // Post-solve correlation refresh: the reconstruction becomes the latest
  // database; optionally re-acquire Z from it for the next cycle (the
  // paper's "original or latest updated" phrasing).  Runs outside the
  // lock, warm-started from the ADMM state cached for the exact snapshot
  // this update read (version jumps reset to a cold solve).
  std::vector<std::size_t> cells = snap->reference_cells();
  linalg::Matrix z = snap->correlation();
  std::shared_ptr<const core::LrrWarmStart> lrr_state;
  if (config_.refresh_correlation()) {
    const std::shared_ptr<const core::LrrWarmStart> lrr_warm =
        lrr_warm_for(request.site, snap->version());
    Result<core::LrrResult> refreshed =
        refreshed_correlation(result.solver.x_hat, cells, lrr_warm.get());
    if (!refreshed.ok()) {
      return Status::internal("update: " + refreshed.status().message());
    }
    core::LrrResult lrr = std::move(refreshed).value();
    z = std::move(lrr.z);
    if (lrr_warm_enabled_) lrr_state = lrr_state_of(z, std::move(lrr));
  }

  // Copy the converged factor for the cache before taking the lock (only
  // the pointer is exchanged under it).
  std::shared_ptr<const linalg::Matrix> warm_factor;
  if (warm_start_enabled_) {
    warm_factor = std::make_shared<linalg::Matrix>(result.solver.l);
  }

  // Fault-injection / deadline seam: the everything-is-built,
  // nothing-is-published point.  A non-OK return abandons the commit in
  // full — the site keeps serving its previous bundle bit for bit, which
  // is what lets a supervisor abort a solve that blew its deadline
  // without ever exposing partial state (empty by default).
  if (hooks_.before_publish) {
    if (Status aborted = hooks_.before_publish(
            std::chrono::steady_clock::now() - start);
        !aborted.ok()) {
      return aborted;
    }
  }

  // The next bundle: the snapshot and its localizer over the
  // reconstruction, both built outside the lock.  The converged factor
  // becomes the version-paired warm start for the next solve reading it.
  Result<std::shared_ptr<const loc::OmpLocalizer>> localizer =
      build_localizer(result.solver.x_hat);
  if (!localizer.ok()) return localizer.status();
  result.snapshot = std::make_shared<FingerprintSnapshot>(
      request.site, snap->version() + 1, result.solver.x_hat, snap->mask(),
      snap->layout(), std::move(cells), std::move(z), request.day,
      snap->sources());
  result.committed_version = result.snapshot->version();
  if (Status committed =
          commit("update", snap, result.snapshot, std::move(localizer).value(),
                 std::move(warm_factor), std::move(lrr_state));
      !committed.ok()) {
    return committed;
  }
  return result;
}

std::vector<Result<UpdateResult>> Engine::update_batch(
    const std::vector<UpdateRequest>& requests) {
  const std::size_t threads = parallel::resolve_threads(config_.threads());
  if (threads <= 1 || requests.size() <= 1) {
    std::vector<Result<UpdateResult>> results;
    results.reserve(requests.size());
    for (const UpdateRequest& request : requests) {
      // In-order application keeps same-site batches exactly equivalent to
      // sequential update() calls; each request reads the store state its
      // predecessors committed.
      results.push_back(update(request));
    }
    return results;
  }

  // Parallel path: group request indices by site (first-appearance order).
  // Sites share no mutable state, so running the per-site chains
  // concurrently — each chain still strictly in request order — commits
  // exactly the snapshots and returns exactly the Results of the
  // sequential loop above.  Each chain carries its own post-commit MIC +
  // LRR correlation refresh, so site A's refresh overlaps site B's solve
  // instead of serialising the whole batch behind the refreshes.
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::string, std::size_t> group_of;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const auto [it, fresh] = group_of.try_emplace(requests[k].site,
                                                  groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(k);
  }

  std::vector<Result<UpdateResult>> results(
      requests.size(),
      Result<UpdateResult>(Status::internal("update_batch: not processed")));
  parallel::parallel_for(
      threads, groups.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t g = begin; g < end; ++g) {
          for (const std::size_t k : groups[g]) {
            results[k] = update(requests[k]);
          }
        }
      });
  return results;
}

Result<serve::PublishedPtr> Engine::published(const std::string& site) const {
  const auto shard = shards_->find(site);
  if (shard == nullptr) {
    return Status::not_found("published: unknown site '" + site + "'");
  }
  return shard->published();
}

Result<loc::LocalizationEstimate> Engine::localize(
    const std::string& site, std::span<const double> measurement) const {
  // THE lock-free read path: registry map load + published-bundle load,
  // then pure compute against immutable state.  The scope turns any state
  // mutex acquired below into a counted contract violation.
  serve::ReadPathScope read_scope;
  const auto shard = shards_->find(site);
  if (shard == nullptr) {
    return Status::not_found("localize: unknown site '" + site + "'");
  }
  const serve::PublishedPtr bundle = shard->published();
  const std::size_t links = bundle->snapshot->database().rows();
  if (measurement.size() != links) {
    return Status::invalid_argument(
        "localize: measurement has " + std::to_string(measurement.size()) +
        " entries but site '" + site + "' has " + std::to_string(links) +
        " links");
  }
  if (!all_finite(measurement)) {
    return Status::invalid_argument(
        "localize: measurement contains non-finite RSS values");
  }
  try {
    return bundle->localizer->localize(measurement);
  } catch (const std::exception& e) {
    return Status::internal(std::string("localize: ") + e.what());
  }
}

Result<std::vector<loc::LocalizationEstimate>> Engine::localize_batch(
    const std::string& site,
    const std::vector<std::vector<double>>& measurements) const {
  serve::ReadPathScope read_scope;
  const auto shard = shards_->find(site);
  if (shard == nullptr) {
    return Status::not_found("localize: unknown site '" + site + "'");
  }
  // ONE bundle for the whole batch: every measurement matches the same
  // published version even if updates land mid-batch.
  const serve::PublishedPtr bundle = shard->published();
  const std::size_t links = bundle->snapshot->database().rows();
  for (std::size_t k = 0; k < measurements.size(); ++k) {
    if (measurements[k].size() != links) {
      return Status::invalid_argument(
          "localize_batch: measurement " + std::to_string(k) + " has " +
          std::to_string(measurements[k].size()) + " entries but site '" +
          site + "' has " + std::to_string(links) + " links");
    }
    if (!all_finite(measurements[k])) {
      return Status::invalid_argument(
          "localize_batch: measurement " + std::to_string(k) +
          " contains non-finite RSS values");
    }
  }
  const std::size_t threads = parallel::resolve_threads(config_.threads());
  try {
    if (threads <= 1 || measurements.size() <= 1) {
      return bundle->localizer->localize_batch(measurements);
    }
    // Fan out: measurements are independent and each index owns its
    // output slot, so the result is identical to the sequential loop.
    // parallel_for rethrows the first body exception on this thread,
    // where the catch below converts it to a Status.
    std::vector<loc::LocalizationEstimate> estimates(measurements.size());
    parallel::parallel_for(
        threads, measurements.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            estimates[k] = bundle->localizer->localize(measurements[k]);
          }
        });
    return estimates;
  } catch (const std::exception& e) {
    return Status::internal(std::string("localize_batch: ") + e.what());
  }
}

}  // namespace iup::api
