// Localizer interface and shared error metrics (Section V).
//
// A localizer matches one online measurement vector y (Eq. 25) against a
// fingerprint database and returns the estimated grid cell.  Concrete
// implementations: OmpLocalizer (the paper's nonlinear-optimization method,
// Eq. 26/27, and the one the Engine serves) and baselines::Rass (the SVR
// regression baseline of Figs. 23/24).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "sim/deployment.hpp"

namespace iup::loc {

struct LocalizationEstimate {
  std::size_t cell = 0;     ///< estimated grid index
  double score = 0.0;       ///< method-specific confidence (residual, ...)
};

class Localizer {
 public:
  virtual ~Localizer() = default;

  /// Estimate the target's grid cell from an online RSS vector
  /// (one entry per link).
  virtual LocalizationEstimate localize(
      std::span<const double> measurement) const = 0;

  /// Batched localization: one estimate per measurement, in order.  The
  /// base implementation loops over localize(); implementations with
  /// per-call setup cost may override it to amortize that work.
  virtual std::vector<LocalizationEstimate> localize_batch(
      const std::vector<std::vector<double>>& measurements) const;

  /// Human-readable method name for reports.
  virtual std::string name() const = 0;
};

/// Euclidean distance [m] between the centres of two grid cells.
double cell_distance_m(const sim::Deployment& deployment, std::size_t a,
                       std::size_t b);

}  // namespace iup::loc
