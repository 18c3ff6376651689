#include "baselines/rass.hpp"

#include <limits>

#include "parallel/thread_pool.hpp"

namespace iup::baselines {

namespace {

// Deterministic holdout split for the C-grid: every kHoldoutStride-th
// sample validates, the rest train.  Training-set error would favour the
// least-regularised (largest-C) candidate unconditionally; the holdout
// measures what the grid actually needs to rank — generalisation to
// cells the model did not fit.
constexpr std::size_t kHoldoutStride = 4;

double holdout_mse(const Svr& model, const linalg::Matrix& samples,
                   const std::vector<double>& targets) {
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < samples.rows(); i += kHoldoutStride) {
    const double d = model.predict(samples.row_span(i)) - targets[i];
    acc += d * d;
    ++count;
  }
  return acc / static_cast<double>(count);
}

}  // namespace

Rass::Rass(const linalg::Matrix& database, const sim::Deployment& deployment,
           RassOptions options)
    : deployment_(&deployment),
      svr_x_(options.svr),
      svr_y_(options.svr) {
  const std::size_t n = database.cols();
  // Training set: one sample per grid cell, features = the M link RSS.
  linalg::Matrix samples = database.transpose();
  std::vector<double> tx(n), ty(n);
  for (std::size_t j = 0; j < n; ++j) {
    const geom::Point2 c = deployment.cell_center(j);
    tx[j] = c.x;
    ty[j] = c.y;
  }

  const std::size_t threads = parallel::resolve_threads(options.threads);
  // Train the two per-axis models on the full grid, concurrently when the
  // budget allows (independent models — order cannot matter).
  const auto fit_axes = [&](const SvrOptions& x_options,
                            const SvrOptions& y_options) {
    svr_x_ = Svr(x_options);
    svr_y_ = Svr(y_options);
    parallel::parallel_for(
        std::min<std::size_t>(threads, 2), 2,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            if (k == 0) {
              svr_x_.fit(samples, tx);
            } else {
              svr_y_.fit(samples, ty);
            }
          }
        });
  };
  if (options.c_grid.empty()) {
    fit_axes(options.svr, options.svr);
    return;
  }

  // Grid search: every (C candidate, axis) pair is one independent fit on
  // the holdout-complement rows, all batched through a single fan-out.
  // Each slot of `fits` has exactly one owner, so the trained models are
  // bit-identical for any thread count; the winner per axis is picked
  // serially afterwards by strictly-lower holdout MSE (first candidate
  // wins ties), then refit on the full grid so the deployed models use
  // every surveyed cell.
  std::vector<std::size_t> train_rows;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kHoldoutStride != 0) train_rows.push_back(i);
  }
  const linalg::Matrix train_samples = samples.select_rows(train_rows);
  std::vector<double> train_tx(train_rows.size());
  std::vector<double> train_ty(train_rows.size());
  for (std::size_t r = 0; r < train_rows.size(); ++r) {
    train_tx[r] = tx[train_rows[r]];
    train_ty[r] = ty[train_rows[r]];
  }

  const std::size_t grid = options.c_grid.size();
  std::vector<Svr> fits(2 * grid, Svr(options.svr));
  parallel::parallel_for(
      threads, 2 * grid,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          SvrOptions candidate = options.svr;
          candidate.c = options.c_grid[k % grid];
          fits[k] = Svr(candidate);
          fits[k].fit(train_samples, k < grid ? train_tx : train_ty);
        }
      });
  std::size_t best_x = 0;
  std::size_t best_y = 0;
  double best_x_mse = std::numeric_limits<double>::infinity();
  double best_y_mse = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < grid; ++g) {
    const double mse_x = holdout_mse(fits[g], samples, tx);
    if (mse_x < best_x_mse) {
      best_x_mse = mse_x;
      best_x = g;
    }
    const double mse_y = holdout_mse(fits[grid + g], samples, ty);
    if (mse_y < best_y_mse) {
      best_y_mse = mse_y;
      best_y = g;
    }
  }

  // Final fits: the winning C per axis on the full training grid.
  SvrOptions final_x = options.svr;
  final_x.c = options.c_grid[best_x];
  SvrOptions final_y = options.svr;
  final_y.c = options.c_grid[best_y];
  fit_axes(final_x, final_y);
}

geom::Point2 Rass::localize_position(
    std::span<const double> measurement) const {
  return {svr_x_.predict(measurement), svr_y_.predict(measurement)};
}

loc::LocalizationEstimate Rass::localize(
    std::span<const double> measurement) const {
  const geom::Point2 p = localize_position(measurement);
  loc::LocalizationEstimate est;
  est.cell = deployment_->nearest_cell(p);
  est.score = 0.0;
  return est;
}

}  // namespace iup::baselines
