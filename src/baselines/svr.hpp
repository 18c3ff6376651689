// Epsilon-Support-Vector Regression with an RBF kernel, trained by
// Sequential Minimal Optimization (SMO).
//
// This is the learning substrate for the RASS comparator (Figs. 23/24):
// RASS [Zhang et al., TPDS'13] trains SVR models that map an RSS vector to
// target coordinates.  RASS itself is closed source, so we re-implement
// its regression stage from scratch on top of this solver.
//
// Formulation (dual, beta_i = alpha_i - alpha_i^*):
//   max  -1/2 beta^T K beta - eps ||beta||_1 + y^T beta
//   s.t. sum_i beta_i = 0,  -C <= beta_i <= C
// SMO optimises one (i, j) pair at a time, exactly solving the piecewise
// quadratic 1-D subproblem (the |beta| kinks make it piecewise).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace iup::baselines {

struct SvrOptions {
  double c = 10.0;          ///< box constraint
  double epsilon = 0.5;     ///< insensitive-tube half width (in target units)
  double gamma = 0.0;       ///< RBF width; 0 = 1 / (num_features * var)
  std::size_t max_epochs = 200;
  double tol = 1e-5;        ///< objective-improvement stopping tolerance
  std::uint64_t seed = 17;  ///< pair-visit shuffling
};

class Svr {
 public:
  explicit Svr(SvrOptions options = {});

  /// Fit on rows of `x` (samples x features) against `y`.
  /// Features are standardised internally (zero mean, unit variance).
  void fit(const linalg::Matrix& x, const std::vector<double>& y);

  /// Predict a single sample (length = feature count).
  double predict(std::span<const double> features) const;

  /// Number of support vectors (|beta| > 1e-9), for tests/diagnostics.
  std::size_t support_vector_count() const;

  bool trained() const { return trained_; }
  const SvrOptions& options() const { return options_; }

 private:
  double kernel(std::span<const double> a, std::span<const double> b) const;
  std::vector<double> standardize(std::span<const double> raw) const;

  SvrOptions options_;
  bool trained_ = false;
  double gamma_ = 0.0;
  double bias_ = 0.0;
  linalg::Matrix train_x_;          ///< standardised training samples
  std::vector<double> beta_;
  std::vector<double> feat_mean_;
  std::vector<double> feat_std_;
};

}  // namespace iup::baselines
