// RASS comparator (Zhang et al., "RASS: a real-time, accurate and scalable
// system for tracking transceiver-free objects", TPDS 2013) — the paper's
// state-of-the-art baseline in Figs. 23/24.
//
// RASS trains Support Vector Regression models on the fingerprint database
// to map an online RSS vector to continuous target coordinates; the paper
// evaluates it both with the stale original database ("RASS w/o rec.") and
// with iUpdater's reconstructed database ("RASS w/ rec.").  Our
// re-implementation follows that structure: one epsilon-SVR per coordinate
// axis, trained on fingerprint columns vs. grid-cell centres.
#pragma once

#include <memory>
#include <vector>

#include "baselines/svr.hpp"
#include "geom/geometry.hpp"
#include "loc/localizer.hpp"

namespace iup::baselines {

struct RassOptions {
  SvrOptions svr;
  /// Optional hyperparameter grid for the box constraint C: when
  /// non-empty, one SVR per (candidate, axis) is trained on a
  /// deterministic holdout split — the whole grid batched through one
  /// iup::parallel fan-out — the candidate with the lowest held-out mean
  /// squared error wins per axis (ties break to the earliest candidate,
  /// so the selection is deterministic for any thread count), and the
  /// winner is refit on the full grid.  Empty (default) trains svr.c
  /// directly, exactly the pre-grid behaviour.
  std::vector<double> c_grid;
  /// Worker threads for the grid and per-axis fan-outs (0 = all hardware
  /// threads).  Bit-identical results for any value: every fit has
  /// exactly one owner.
  std::size_t threads = 1;
};

class Rass final : public loc::Localizer {
 public:
  /// Train on a fingerprint database: column j of `database` is the RSS
  /// signature of a target at `deployment`'s cell j.
  Rass(const linalg::Matrix& database, const sim::Deployment& deployment,
       RassOptions options = {});

  /// Continuous coordinate estimate (the natural RASS output).
  geom::Point2 localize_position(std::span<const double> measurement) const;

  /// Localizer interface: continuous estimate snapped to the nearest cell.
  loc::LocalizationEstimate localize(
      std::span<const double> measurement) const override;

  std::string name() const override { return "RASS"; }

 private:
  const sim::Deployment* deployment_;
  Svr svr_x_;
  Svr svr_y_;
};

}  // namespace iup::baselines
