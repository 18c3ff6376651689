#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "linalg/vec.hpp"

namespace iup::linalg {

namespace {

// Apply the Householder reflector defined by v (with v[0..j-1] == 0 implied
// by construction) to column c of m, rows j..rows-1.
void apply_reflector(Matrix& m, std::size_t col, std::size_t j,
                     std::span<const double> v, double beta) {
  double dot_vc = 0.0;
  for (std::size_t i = j; i < m.rows(); ++i) dot_vc += v[i] * m(i, col);
  const double f = beta * dot_vc;
  for (std::size_t i = j; i < m.rows(); ++i) m(i, col) -= f * v[i];
}

}  // namespace

void QrWorkspace::reserve(std::size_t m, std::size_t n) {
  const std::size_t k = std::min(m, n);
  r.resize(m, n);
  q.resize(m, k);
  reflectors.resize(k, m);
  betas.reserve(k);
  qtb.reserve(n);
}

void qr_into(const Matrix& a, QrWorkspace& ws) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t k = std::min(m, n);
  Matrix& r = ws.r;
  r = a;
  // Q is accumulated by applying the reflectors to the identity
  // afterwards, so they are kept explicitly (one zero row for a zero
  // column, applied as an exact no-op like any other).
  ws.reflectors.resize(k, m, 0.0);
  ws.betas.assign(k, 0.0);

  for (std::size_t j = 0; j < k; ++j) {
    // Build the reflector that annihilates r(j+1.., j).
    double norm_x = 0.0;
    for (std::size_t i = j; i < m; ++i) norm_x += r(i, j) * r(i, j);
    norm_x = std::sqrt(norm_x);
    if (norm_x > 0.0) {
      const std::span<double> v = ws.reflectors.row_span(j);
      const double alpha = r(j, j) >= 0.0 ? -norm_x : norm_x;
      for (std::size_t i = j; i < m; ++i) v[i] = r(i, j);
      v[j] -= alpha;
      const double vnorm2 = dot(v, v);
      if (vnorm2 > 0.0) ws.betas[j] = 2.0 / vnorm2;
      for (std::size_t c = j; c < n; ++c) {
        apply_reflector(r, c, j, v, ws.betas[j]);
      }
    }
  }

  // Q = H_0 H_1 ... H_{k-1} * I_thin.
  Matrix& q = ws.q;
  q.resize(m, k, 0.0);
  for (std::size_t j = 0; j < k; ++j) q(j, j) = 1.0;
  for (std::size_t j = k; j-- > 0;) {
    for (std::size_t c = 0; c < k; ++c) {
      apply_reflector(q, c, j, ws.reflectors.row_span(j), ws.betas[j]);
    }
  }
}

QrResult qr(const Matrix& a) {
  QrWorkspace ws;
  qr_into(a, ws);
  // Zero the strictly-lower part explicitly (numerical dust).
  const std::size_t k = ws.q.cols();
  Matrix r_thin(k, a.cols());
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < a.cols(); ++j) r_thin(i, j) = ws.r(i, j);
  }
  return {std::move(ws.q), std::move(r_thin)};
}

QrcpResult qr_column_pivoted(const Matrix& a, double rel_tol) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t k = std::min(m, n);
  Matrix work = a;
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});

  // Remaining squared column norms, updated as we go.
  std::vector<double> col_norm2(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) col_norm2[j] += work(i, j) * work(i, j);
  }
  const double max_norm =
      std::sqrt(*std::max_element(col_norm2.begin(), col_norm2.end()));
  const double cutoff = rel_tol * (max_norm > 0.0 ? max_norm : 1.0);

  std::vector<std::vector<double>> vs;
  std::vector<double> betas;
  std::size_t rank = 0;

  for (std::size_t j = 0; j < k; ++j) {
    // Pivot: bring the column with the largest remaining norm to position j.
    std::size_t pivot = j;
    for (std::size_t c = j + 1; c < n; ++c) {
      if (col_norm2[c] > col_norm2[pivot]) pivot = c;
    }
    if (std::sqrt(std::max(0.0, col_norm2[pivot])) <= cutoff) break;
    if (pivot != j) {
      for (std::size_t i = 0; i < m; ++i) {
        std::swap(work(i, j), work(i, pivot));
      }
      std::swap(col_norm2[j], col_norm2[pivot]);
      std::swap(perm[j], perm[pivot]);
    }

    double norm_x = 0.0;
    for (std::size_t i = j; i < m; ++i) norm_x += work(i, j) * work(i, j);
    norm_x = std::sqrt(norm_x);
    std::vector<double> v(m, 0.0);
    double beta = 0.0;
    if (norm_x > 0.0) {
      const double alpha = work(j, j) >= 0.0 ? -norm_x : norm_x;
      for (std::size_t i = j; i < m; ++i) v[i] = work(i, j);
      v[j] -= alpha;
      const double vnorm2 = dot(v, v);
      if (vnorm2 > 0.0) beta = 2.0 / vnorm2;
    }

    // Score the trailing columns: apply the reflector, then recompute the
    // residual column norm exactly.  The classic downdate (subtracting
    // work(j,c)^2) drifts once columns become nearly dependent, which
    // corrupts both the pivot order and the rank cutoff; our matrices are
    // small, so the exact O(mn) refresh is cheap.
    const bool have_reflector = norm_x > 0.0;
    for (std::size_t c = j; c < n; ++c) {
      if (have_reflector) apply_reflector(work, c, j, v, beta);
      if (c > j) {
        double acc = 0.0;
        for (std::size_t i = j + 1; i < m; ++i) {
          acc += work(i, c) * work(i, c);
        }
        col_norm2[c] = acc;
      }
    }
    vs.push_back(std::move(v));
    betas.push_back(beta);
    ++rank;
  }

  Matrix r_thin(k, n);
  for (std::size_t i = 0; i < std::min(rank, k); ++i) {
    for (std::size_t j = i; j < n; ++j) r_thin(i, j) = work(i, j);
  }

  Matrix q(m, k);
  for (std::size_t j = 0; j < k; ++j) q(j, j) = 1.0;
  for (std::size_t j = vs.size(); j-- > 0;) {
    for (std::size_t c = 0; c < k; ++c) {
      apply_reflector(q, c, j, vs[j], betas[j]);
    }
  }
  return {std::move(q), std::move(r_thin), std::move(perm), rank};
}

std::vector<double> least_squares(const Matrix& a, std::span<const double> b) {
  QrWorkspace ws;
  std::vector<double> x(a.cols());
  least_squares_into(a, b, ws, x);
  return x;
}

void least_squares_into(const Matrix& a, std::span<const double> b,
                        QrWorkspace& ws, std::span<double> x) {
  if (a.rows() != b.size()) {
    throw std::invalid_argument("least_squares: dimension mismatch");
  }
  if (a.rows() < a.cols()) {
    throw std::invalid_argument("least_squares: system is underdetermined");
  }
  if (x.size() != a.cols()) {
    throw std::invalid_argument("least_squares: solution length mismatch");
  }
  qr_into(a, ws);
  // x = R^{-1} Q^T b  (back substitution).
  const std::size_t n = a.cols();
  ws.qtb.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) acc += ws.q(i, j) * b[i];
    ws.qtb[j] = acc;
  }
  for (std::size_t i = n; i-- > 0;) {
    double acc = ws.qtb[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= ws.r(i, j) * x[j];
    const double d = ws.r(i, i);
    if (std::abs(d) < 1e-300) {
      throw std::runtime_error("least_squares: rank-deficient system");
    }
    x[i] = acc / d;
  }
}

}  // namespace iup::linalg
