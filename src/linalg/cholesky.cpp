#include "linalg/cholesky.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"
#include "linalg/lu.hpp"

namespace iup::linalg {

namespace {

std::atomic<std::uint64_t> g_cholesky_failures{0};
std::atomic<std::uint64_t> g_bump_recoveries{0};
std::atomic<std::uint64_t> g_lu_fallbacks{0};

// Restore the upper triangle and diagonal of a partially-factored matrix
// from the untouched strict lower triangle and the saved diagonal, then
// add `bump` to every diagonal entry.
void restore_symmetric(Matrix& a, std::span<const double> diag, double bump) {
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) a(i, j) = a(j, i);
    a(i, i) = diag[i] + bump;
  }
}

// Right-looking upper-triangular factorisation a = R^T R: reads and
// writes only the diagonal and the strict UPPER triangle (the strict
// lower stays untouched for the retry restore).  On row-major storage the
// pivot-row scale, every trailing rank-1 update and both substitution
// passes of solve_factored_spd run over contiguous row suffixes, so the
// whole SPD solve path vectorises through the kernel layer — the
// motivation for preferring R^T R over the classic lower L L^T here.
bool cholesky_upper_in_place(Matrix& a) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double* row_j = a.row_span(j).data();
    const double diag = row_j[j];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double rjj = std::sqrt(diag);
    row_j[j] = rjj;
    for (std::size_t k = j + 1; k < n; ++k) row_j[k] /= rjj;
    for (std::size_t i = j + 1; i < n; ++i) {
      kernels::axpy(-row_j[i], row_j + i, a.row_span(i).data() + i, n - i);
    }
  }
  return true;
}

// Factor `a` in place with the deterministic diagonal-bump retry policy
// (see solve_spd_into's contract).  `diag_scratch` receives the original
// diagonal.  Returns true when `a` holds a usable upper factor (counting
// failures/recoveries); on false, `a` is restored to the symmetrised
// unbumped input and the caller pays for LU.
bool factor_spd_with_retry(Matrix& a, std::span<double> diag_scratch) {
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) diag_scratch[i] = a(i, i);
  if (cholesky_upper_in_place(a)) return true;
  g_cholesky_failures.fetch_add(1, std::memory_order_relaxed);

  double mean_diag = 0.0;
  for (const double d : diag_scratch) mean_diag += std::abs(d);
  mean_diag = n > 0 ? mean_diag / static_cast<double>(n) : 0.0;
  // The bump stays relative to the matrix scale; the fallback to 1.0 only
  // applies when the diagonal is entirely zero (where a relative bump
  // would be a no-op and LU is the answer anyway).
  const double scale = mean_diag > 0.0 ? mean_diag : 1.0;
  for (const double rel_bump : {1e-10, 1e-6}) {
    restore_symmetric(a, diag_scratch, rel_bump * scale);
    if (cholesky_upper_in_place(a)) {
      g_bump_recoveries.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  restore_symmetric(a, diag_scratch, 0.0);
  return false;
}

}  // namespace

bool factor_spd(Matrix& a, std::span<double> diag_scratch) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("factor_spd: matrix must be square");
  }
  if (diag_scratch.size() != a.rows()) {
    throw std::invalid_argument("factor_spd: diag scratch size mismatch");
  }
  return factor_spd_with_retry(a, diag_scratch);
}

void solve_factored_spd(const Matrix& r, std::span<double> bx) {
  const std::size_t n = r.rows();
  if (bx.size() != n) {
    throw std::invalid_argument("solve_factored_spd: size mismatch");
  }
  // R^T y = b: column-oriented forward elimination — once y_j is known,
  // its contribution streams into the remaining entries through the
  // contiguous suffix of row j.
  for (std::size_t j = 0; j < n; ++j) {
    const double* row_j = r.row_span(j).data();
    const double yj = bx[j] / row_j[j];
    bx[j] = yj;
    if (j + 1 < n) {
      kernels::axpy(-yj, row_j + j + 1, bx.data() + j + 1, n - j - 1);
    }
  }
  // R x = y: row-suffix dot back substitution.
  for (std::size_t i = n; i-- > 0;) {
    const double* row_i = r.row_span(i).data();
    const double acc =
        bx[i] - kernels::dot(row_i + i + 1, bx.data() + i + 1, n - i - 1);
    bx[i] = acc / row_i[i];
  }
}

void solve_spd_into(Matrix& a, std::span<double> bx,
                    std::span<double> diag_scratch) {
  const std::size_t n = a.rows();
  if (a.cols() != n) {
    throw std::invalid_argument("solve_spd_into: matrix must be square");
  }
  if (bx.size() != n || diag_scratch.size() != n) {
    throw std::invalid_argument("solve_spd_into: size mismatch");
  }
  if (factor_spd_with_retry(a, diag_scratch)) {
    solve_factored_spd(a, bx);
    return;
  }

  // Genuinely indefinite (or wildly ill-conditioned): pay for LU with
  // partial pivoting on the restored matrix.  This path allocates, but it
  // is rare by construction and now visible in the stats.
  g_lu_fallbacks.fetch_add(1, std::memory_order_relaxed);
  const std::vector<double> x = solve(a, bx);
  std::copy(x.begin(), x.end(), bx.begin());
}

std::vector<double> solve_spd(const Matrix& a, std::span<const double> b) {
  Matrix work = a;
  std::vector<double> bx(b.begin(), b.end());
  std::vector<double> diag(a.rows());
  solve_spd_into(work, bx, diag);
  return bx;
}

SpdStats spd_stats() {
  SpdStats s;
  s.cholesky_failures = g_cholesky_failures.load(std::memory_order_relaxed);
  s.bump_recoveries = g_bump_recoveries.load(std::memory_order_relaxed);
  s.lu_fallbacks = g_lu_fallbacks.load(std::memory_order_relaxed);
  return s;
}

void reset_spd_stats() {
  g_cholesky_failures.store(0, std::memory_order_relaxed);
  g_bump_recoveries.store(0, std::memory_order_relaxed);
  g_lu_fallbacks.store(0, std::memory_order_relaxed);
}

}  // namespace iup::linalg
