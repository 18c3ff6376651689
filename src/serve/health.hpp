// Per-site health state for the continuous-update pipeline.
//
// One SiteHealthCounters lives in each SiteShard, next to the published
// bundle it describes.  Three writers feed it, none of them on the serve
// read path: the Engine's update paths (commit outcomes + SPD fallback
// deltas), the ingest::ObservationBuffer (quarantine tallies) and the
// ingest::UpdateSupervisor (state machine, backoff/breaker transitions).
// Every field is a relaxed atomic: the counters are monotonic tallies (or
// a last-writer-wins state word) read for monitoring and by tests after
// joins — they order nothing, so they stay cheap enough to leave on in
// release builds, exactly like linalg::SpdStats.  Readers take a
// consistent-enough HealthValues copy through sample() (surfaced by
// api::Engine::site_health() and written into checkpoints); individual
// loads may interleave with concurrent updates, which is fine for a
// diagnostic surface (no serving decision reads these counters).
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace iup::serve {

/// Where a site sits in the supervised update lifecycle.  Serving is
/// NEVER gated on this state: a degraded site keeps serving its last-good
/// published bundle; the state only describes the update pipeline.
///
///   healthy -> updating -> healthy            (commit landed)
///   updating -> backoff -> updating           (retry with exp. backoff)
///   backoff -> degraded                       (breaker: too many failures)
///   degraded -> updating -> healthy           (probe succeeded: recovered)
enum class SiteState : std::uint32_t {
  kHealthy = 0,   ///< last update attempt (if any) committed
  kUpdating = 1,  ///< an update attempt is in flight
  kBackoff = 2,   ///< waiting out the retry backoff after a failure
  kDegraded = 3,  ///< circuit breaker open: serving last-good, probing
};

constexpr std::string_view to_string(SiteState state) {
  switch (state) {
    case SiteState::kHealthy: return "HEALTHY";
    case SiteState::kUpdating: return "UPDATING";
    case SiteState::kBackoff: return "BACKOFF";
    case SiteState::kDegraded: return "DEGRADED";
  }
  return "UNKNOWN";
}

/// Plain-value copy of one site's SiteHealthCounters.  The uint64
/// counters are listed once, in for_each_counter() below, whose order is
/// also the checkpoint wire order (persist/checkpoint.cpp).
struct HealthValues {
  SiteState state = SiteState::kHealthy;
  std::uint64_t updates_ok = 0;
  std::uint64_t updates_failed = 0;
  std::uint64_t update_attempts = 0;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t drift_triggers = 0;
  std::uint64_t deadline_trips = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t observations_accepted = 0;
  std::uint64_t quarantine_non_finite = 0;
  std::uint64_t quarantine_out_of_range = 0;
  std::uint64_t quarantine_unknown_link = 0;
  std::uint64_t quarantine_unknown_cell = 0;
  std::uint64_t quarantine_unknown_source = 0;
  std::uint64_t quarantine_overflow = 0;
  /// Largest day label seen on the site's observation stream; together
  /// with the served snapshot's day this is the staleness a degraded site
  /// serves under.
  std::uint64_t last_observed_day = 0;
  /// Per-site SPD fallback attribution (see the concurrency caveat on
  /// SiteHealthCounters).
  std::uint64_t spd_cholesky_failures = 0;
  std::uint64_t spd_bump_recoveries = 0;
  std::uint64_t spd_lu_fallbacks = 0;

  std::uint64_t quarantined_total() const {
    return quarantine_non_finite + quarantine_out_of_range +
           quarantine_unknown_link + quarantine_unknown_cell +
           quarantine_unknown_source + quarantine_overflow;
  }
  bool operator==(const HealthValues&) const = default;
};

/// Call f(h.c...) for every uint64 counter c, in wire order, across any
/// mix of HealthValues and SiteHealthCounters (which share member names),
/// so copying, restoring and the checkpoint codec walk one list.
template <class F, class... H>
void for_each_counter(F&& f, H&... h) {
  f(h.updates_ok...);
  f(h.updates_failed...);
  f(h.update_attempts...);
  f(h.consecutive_failures...);
  f(h.drift_triggers...);
  f(h.deadline_trips...);
  f(h.breaker_trips...);
  f(h.recoveries...);
  f(h.observations_accepted...);
  f(h.quarantine_non_finite...);
  f(h.quarantine_out_of_range...);
  f(h.quarantine_unknown_link...);
  f(h.quarantine_unknown_cell...);
  f(h.quarantine_unknown_source...);
  f(h.quarantine_overflow...);
  f(h.last_observed_day...);
  f(h.spd_cholesky_failures...);
  f(h.spd_bump_recoveries...);
  f(h.spd_lu_fallbacks...);
}

struct SiteHealthCounters {
  /// SiteState word (last writer wins; the supervisor is the only writer
  /// once a site is watched).
  std::atomic<std::uint32_t> state{0};

  // --- update outcomes (Engine::update records these for every caller,
  // supervised or not) ------------------------------------------------
  std::atomic<std::uint64_t> updates_ok{0};
  std::atomic<std::uint64_t> updates_failed{0};

  // --- supervisor state machine ---------------------------------------
  std::atomic<std::uint64_t> update_attempts{0};
  std::atomic<std::uint64_t> consecutive_failures{0};
  std::atomic<std::uint64_t> drift_triggers{0};   ///< EWMA crossed threshold
  std::atomic<std::uint64_t> deadline_trips{0};   ///< kDeadlineExceeded
  std::atomic<std::uint64_t> breaker_trips{0};    ///< entered kDegraded
  std::atomic<std::uint64_t> recoveries{0};       ///< left kDegraded

  // --- ingest / quarantine (ObservationBuffer) ------------------------
  std::atomic<std::uint64_t> observations_accepted{0};
  std::atomic<std::uint64_t> quarantine_non_finite{0};
  std::atomic<std::uint64_t> quarantine_out_of_range{0};
  std::atomic<std::uint64_t> quarantine_unknown_link{0};
  std::atomic<std::uint64_t> quarantine_unknown_cell{0};
  /// Source id absent from / mismatching the site's registered source
  /// table (multi-radio model; zero for legacy source-less sites).
  std::atomic<std::uint64_t> quarantine_unknown_source{0};
  std::atomic<std::uint64_t> quarantine_overflow{0};  ///< buffer at capacity
  /// Largest observation day streamed for the site; together with the
  /// published snapshot's day this is the staleness metadata a degraded
  /// site serves under.
  std::atomic<std::uint64_t> last_observed_day{0};

  // --- SPD solve-path fallbacks attributed to this site ----------------
  // Deltas of the process-wide linalg::spd_stats() sampled around each
  // update's solve + refresh.  With updates of DIFFERENT sites running
  // concurrently the windows overlap and a fallback may be attributed to
  // the wrong site (or double-counted); the per-site split is a
  // diagnostic for "which deployment's normal equations are degrading",
  // not an exact ledger — the process-global spd_stats() remains the
  // authoritative total.
  std::atomic<std::uint64_t> spd_cholesky_failures{0};
  std::atomic<std::uint64_t> spd_bump_recoveries{0};
  std::atomic<std::uint64_t> spd_lu_fallbacks{0};

  /// Every field loaded relaxed (fields may be mutually skewed by
  /// concurrent writers).
  HealthValues sample() const {
    HealthValues out;
    out.state = static_cast<SiteState>(state.load(std::memory_order_relaxed));
    for_each_counter(
        [](std::uint64_t& value, const std::atomic<std::uint64_t>& counter) {
          value = counter.load(std::memory_order_relaxed);
        },
        out, *this);
    return out;
  }

  /// Store every field of `values` relaxed (crash recovery into a fresh
  /// shard).
  void restore(const HealthValues& values) {
    state.store(static_cast<std::uint32_t>(values.state),
                std::memory_order_relaxed);
    for_each_counter(
        [](std::atomic<std::uint64_t>& counter, const std::uint64_t& value) {
          counter.store(value, std::memory_order_relaxed);
        },
        *this, values);
  }

  /// Raise `last_observed_day` to `day` (monotonic max, relaxed).
  void note_observed_day(std::uint64_t day) {
    std::uint64_t seen = last_observed_day.load(std::memory_order_relaxed);
    while (day > seen && !last_observed_day.compare_exchange_weak(
                             seen, day, std::memory_order_relaxed)) {
    }
  }
};

}  // namespace iup::serve
