#include "loc/omp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"
#include "linalg/qr.hpp"
#include "linalg/vec.hpp"

namespace iup::loc {

namespace {

// Per-row median of the entries of `x`; a robust baseline estimate because
// most entries of a fingerprint row are no-decrease (unaffected) readings.
std::vector<double> row_medians(const linalg::Matrix& x) {
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto row = x.row(i);
    std::nth_element(row.begin(), row.begin() + row.size() / 2, row.end());
    out[i] = row[row.size() / 2];
  }
  return out;
}

}  // namespace

OmpLocalizer::OmpLocalizer(linalg::Matrix database,
                           std::vector<double> baselines, OmpOptions options)
    : database_(std::move(database)),
      baselines_(std::move(baselines)),
      options_(options) {
  if (database_.empty()) {
    throw std::invalid_argument("OmpLocalizer: empty database");
  }
  if (baselines_.empty()) {
    baselines_ = row_medians(database_);
  }
  if (baselines_.size() != database_.rows()) {
    throw std::invalid_argument("OmpLocalizer: baseline length mismatch");
  }

  // Matching-domain atoms: optionally baseline-subtracted columns.
  atoms_ = database_;
  if (options_.subtract_baseline) {
    for (std::size_t i = 0; i < atoms_.rows(); ++i) {
      for (std::size_t j = 0; j < atoms_.cols(); ++j) {
        atoms_(i, j) -= baselines_[i];
      }
    }
  }
  if (options_.remove_common_mode) {
    for (std::size_t j = 0; j < atoms_.cols(); ++j) {
      double mean = 0.0;
      for (std::size_t i = 0; i < atoms_.rows(); ++i) mean += atoms_(i, j);
      mean /= static_cast<double>(atoms_.rows());
      for (std::size_t i = 0; i < atoms_.rows(); ++i) atoms_(i, j) -= mean;
    }
  }
  // Unit-norm copy for the greedy correlation step.
  dictionary_ = atoms_;
  std::vector<double> col(dictionary_.rows());
  for (std::size_t j = 0; j < dictionary_.cols(); ++j) {
    dictionary_.copy_col_into(j, col);
    const double n = linalg::norm2(col);
    if (n > 0.0) {
      for (std::size_t i = 0; i < dictionary_.rows(); ++i) {
        dictionary_(i, j) /= n;
      }
    }
  }
}

OmpLocalizer::SparseSolution OmpLocalizer::solve(
    std::span<const double> measurement) const {
  const std::size_t m = database_.rows();
  const std::size_t n = database_.cols();
  if (measurement.size() != m) {
    throw std::invalid_argument("OmpLocalizer: measurement length mismatch");
  }
  std::vector<double> y(measurement.begin(), measurement.end());
  if (options_.subtract_baseline) {
    for (std::size_t i = 0; i < y.size(); ++i) y[i] -= baselines_[i];
  }
  if (options_.remove_common_mode) {
    const double mean = linalg::mean(y);
    for (double& v : y) v -= mean;
  }

  // Per-query scratch, sized once for the largest possible support: no
  // greedy atom allocates, so a query's allocation count is independent
  // of N and of how many atoms it runs.
  const std::size_t max_support = std::min(options_.max_atoms, n);
  SparseSolution sol;
  sol.support.reserve(max_support);
  sol.coefficients.reserve(max_support);
  std::vector<double> residual = y;
  std::vector<double> corr(n);
  std::vector<bool> used(n, false);
  linalg::Matrix selected(m, max_support);
  linalg::QrWorkspace qr_ws;
  qr_ws.reserve(m, max_support);
  const double y_norm_sq = std::max(linalg::dot(y, y), 1e-300);

  for (std::size_t k = 0; k < options_.max_atoms; ++k) {
    // Greedy step: atom with the largest |<residual, atom>|.  One panel
    // pass scores every column of the row-major dictionary; corr[j] is
    // bit-identical to dot() on a copy of column j (kernels.hpp).
    linalg::kernels::dot_panel(residual.data(), dictionary_.data().data(), n,
                               m, n, corr.data());
    std::size_t best = 0;
    double best_corr = -1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (used[j]) continue;
      const double c = std::abs(corr[j]);
      if (c > best_corr) {
        best_corr = c;
        best = j;
      }
    }
    if (best_corr <= 0.0) break;
    used[best] = true;
    sol.support.push_back(best);

    // Least-squares refit of y on the selected atoms.
    const std::size_t atoms = sol.support.size();
    selected.resize(m, atoms);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t t = 0; t < atoms; ++t) {
        selected(i, t) = atoms_(i, sol.support[t]);
      }
    }
    sol.coefficients.resize(atoms);
    linalg::least_squares_into(selected, y, qr_ws, sol.coefficients);

    // Updated residual: y - selected * coefficients.
    linalg::multiply_into(selected, sol.coefficients, residual);
    for (std::size_t i = 0; i < m; ++i) residual[i] = y[i] - residual[i];
    const double res_sq = linalg::dot(residual, residual);
    sol.residual_norm = std::sqrt(res_sq);
    if (res_sq < options_.residual_xi * y_norm_sq) break;
  }
  return sol;
}

LocalizationEstimate OmpLocalizer::localize(
    std::span<const double> measurement) const {
  const SparseSolution sol = solve(measurement);
  LocalizationEstimate est;
  if (sol.support.empty()) {
    est.cell = 0;
    est.score = std::numeric_limits<double>::infinity();
    return est;
  }
  // The first greedy atom is the single-target estimate.  (Do NOT pick the
  // largest refit coefficient: weak-attenuation atoms have small norms and
  // soak up large coefficients, which systematically drags estimates to
  // the link midpoint.)
  est.cell = sol.support.front();
  est.score = sol.residual_norm;
  return est;
}

}  // namespace iup::loc
