#include "baselines/svr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"
#include "linalg/vec.hpp"
#include "rng/rng.hpp"

namespace iup::baselines {

Svr::Svr(SvrOptions options) : options_(options) {
  if (options_.c <= 0.0) throw std::invalid_argument("Svr: C must be > 0");
  if (options_.epsilon < 0.0) {
    throw std::invalid_argument("Svr: epsilon must be >= 0");
  }
}

double Svr::kernel(std::span<const double> a, std::span<const double> b) const {
  return std::exp(
      -gamma_ * linalg::kernels::diff_norm_sq(a.data(), b.data(), a.size()));
}

std::vector<double> Svr::standardize(std::span<const double> raw) const {
  std::vector<double> out(raw.size());
  for (std::size_t k = 0; k < raw.size(); ++k) {
    out[k] = (raw[k] - feat_mean_[k]) / feat_std_[k];
  }
  return out;
}

void Svr::fit(const linalg::Matrix& x, const std::vector<double>& y) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  if (n != y.size() || n < 2) {
    throw std::invalid_argument("Svr::fit: bad training-set shape");
  }

  // Standardise features.
  feat_mean_.assign(d, 0.0);
  feat_std_.assign(d, 0.0);
  for (std::size_t k = 0; k < d; ++k) {
    const auto col = x.col(k);
    feat_mean_[k] = linalg::mean(col);
    feat_std_[k] = std::max(linalg::stdev(col), 1e-9);
  }
  train_x_ = linalg::Matrix(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    train_x_.set_row(i, standardize(x.row_span(i)));
  }

  gamma_ = options_.gamma > 0.0
               ? options_.gamma
               : 1.0 / static_cast<double>(d);  // features are unit variance

  // Kernel matrix (training sets here are <= a few hundred samples):
  // upper triangle, then the mirror.
  linalg::Matrix kmat(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      kmat(i, j) = kernel(train_x_.row_span(i), train_x_.row_span(j));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) kmat(j, i) = kmat(i, j);
  }

  beta_.assign(n, 0.0);
  std::vector<double> f(n, 0.0);  // f_k = sum_i beta_i K(i, k)
  const double c_box = options_.c;
  const double eps = options_.epsilon;

  // One pair update: exactly maximise the dual restricted to (i, j) with
  // beta_i + beta_j fixed.  Returns the objective improvement.
  const auto pair_update = [&](std::size_t i, std::size_t j) -> double {
    const double s = beta_[i] + beta_[j];
    const double eta = kmat(i, i) + kmat(j, j) - 2.0 * kmat(i, j);
    if (eta <= 1e-12) return 0.0;
    const double lo = std::max(-c_box, s - c_box);
    const double hi = std::min(c_box, s + c_box);
    if (lo >= hi) return 0.0;

    // Cross terms excluding i and j themselves.
    const double vi = f[i] - beta_[i] * kmat(i, i) - beta_[j] * kmat(i, j);
    const double vj = f[j] - beta_[i] * kmat(i, j) - beta_[j] * kmat(j, j);
    const double base = s * (kmat(j, j) - kmat(i, j)) + (vj - vi) +
                        (y[i] - y[j]);

    // Dual objective restricted to beta_i = t (up to a constant).
    const auto obj = [&](double t) {
      const double bj = s - t;
      return -0.5 * (kmat(i, i) * t * t + kmat(j, j) * bj * bj +
                     2.0 * kmat(i, j) * t * bj) -
             t * vi - bj * vj - eps * (std::abs(t) + std::abs(bj)) +
             y[i] * t + y[j] * bj;
    };

    // Candidate stationary points for each sign combination of
    // (beta_i, beta_j), plus the kink locations and the box edges.
    std::vector<double> candidates = {lo, hi};
    if (0.0 > lo && 0.0 < hi) candidates.push_back(0.0);
    if (s > lo && s < hi) candidates.push_back(s);
    for (const double si : {-1.0, 1.0}) {
      for (const double sj : {-1.0, 1.0}) {
        candidates.push_back(
            std::clamp((base - eps * (si - sj)) / eta, lo, hi));
      }
    }
    double best_t = beta_[i];
    double best_obj = obj(beta_[i]);
    for (const double t : candidates) {
      const double o = obj(t);
      if (o > best_obj + 1e-15) {
        best_obj = o;
        best_t = t;
      }
    }
    const double improvement = best_obj - obj(beta_[i]);
    if (improvement <= 0.0) return 0.0;

    const double new_i = best_t;
    const double new_j = s - best_t;
    const double di = new_i - beta_[i];
    const double dj = new_j - beta_[j];
    beta_[i] = new_i;
    beta_[j] = new_j;
    // Fused prediction refresh over two contiguous kernel rows.
    linalg::kernels::axpy2(di, kmat.row_span(i).data(), dj,
                           kmat.row_span(j).data(), f.data(), n);
    return improvement;
  };

  rng::Rng rng(options_.seed);
  std::vector<double> gap(n);
  for (std::size_t epoch = 0; epoch < options_.max_epochs; ++epoch) {
    double epoch_improvement = 0.0;
    const auto order = rng.permutation(n);
    for (std::size_t a = 0; a < n; ++a) {
      // Pair the shuffled index with the sample whose prediction error is
      // most violating relative to it (cheap working-set heuristic).  Gap
      // evaluation is split out of the argmax scan so it vectorises; the
      // serial scan keeps the exact first-strict-maximum tie-breaking of
      // the fused loop.
      const std::size_t i = order[a];
      const double err_i = y[i] - f[i];
      for (std::size_t k = 0; k < n; ++k) {
        gap[k] = std::abs(err_i - (y[k] - f[k]));
      }
      std::size_t j = i == 0 ? 1 : 0;
      double best_gap = -1.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == i) continue;
        if (gap[k] > best_gap) {
          best_gap = gap[k];
          j = k;
        }
      }
      epoch_improvement += pair_update(i, j);
      // A random second pair keeps the sweep from stalling in cycles.
      const std::size_t rj = rng.uniform_index(n);
      if (rj != i) epoch_improvement += pair_update(i, rj);
    }
    if (epoch_improvement < options_.tol) break;
  }

  // Bias from the free support vectors' KKT conditions:
  // y_i - f_i - b = +eps for 0 < beta_i < C, -eps for -C < beta_i < 0.
  double b_acc = 0.0;
  std::size_t b_cnt = 0;
  const double margin = 1e-8 * c_box;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(beta_[i]) > margin && std::abs(beta_[i]) < c_box - margin) {
      const double sign = beta_[i] > 0.0 ? 1.0 : -1.0;
      b_acc += y[i] - f[i] - sign * eps;
      ++b_cnt;
    }
  }
  if (b_cnt > 0) {
    bias_ = b_acc / static_cast<double>(b_cnt);
  } else {
    // Fall back to the mean residual.
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += y[i] - f[i];
    bias_ = acc / static_cast<double>(n);
  }
  trained_ = true;
}

double Svr::predict(std::span<const double> features) const {
  if (!trained_) throw std::logic_error("Svr::predict before fit");
  if (features.size() != feat_mean_.size()) {
    throw std::invalid_argument("Svr::predict: feature length mismatch");
  }
  const std::vector<double> z = standardize(features);
  double acc = bias_;
  for (std::size_t i = 0; i < beta_.size(); ++i) {
    if (beta_[i] == 0.0) continue;
    acc += beta_[i] * kernel(train_x_.row_span(i), z);
  }
  return acc;
}

std::size_t Svr::support_vector_count() const {
  std::size_t cnt = 0;
  for (double b : beta_) {
    if (std::abs(b) > 1e-9) ++cnt;
  }
  return cnt;
}

}  // namespace iup::baselines
