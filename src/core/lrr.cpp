#include "core/lrr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/norms.hpp"
#include "linalg/svd.hpp"

namespace iup::core {

namespace {

// Per-call scratch of solve_lrr.  The ADMM state is stored TRANSPOSED:
// a grid column of X / Z / E / Y1 / Y2 is a contiguous row here, so the
// E shrinkage and the multiplier pass run on contiguous memory.  The
// Z-update runs in lane tiles of kSpdLanes consecutive grid columns,
// staged through the lane-interleaved panels below.  Everything is
// allocated once below; the iterations themselves never touch the heap.
struct LrrWorkspace {
  linalg::Matrix xt;    ///< N x M : X^T
  linalg::Matrix at;    ///< n x M : A^T (rows contiguous for the rhs dots)
  linalg::Matrix lfac;  ///< n x n : Cholesky factor of I + A^T A
  linalg::Matrix zt;    ///< N x n : Z^T
  linalg::Matrix jt;    ///< N x n : J^T
  linalg::Matrix y2t;   ///< N x n : Y2^T
  linalg::Matrix et;    ///< N x M : E^T
  linalg::Matrix y1t;   ///< N x M : Y1^T
  linalg::Matrix azt;   ///< N x M : (A Z)^T, shared by E-update and residual
  linalg::Matrix jin;   ///< N x n : (Z + Y2/mu)^T, the SVT input
  linalg::Matrix gmat;  ///< n x n : jin^T jin, eigendecomposed in place
  linalg::Matrix evec;  ///< n x n : eigenvectors of gmat
  linalg::Matrix smat;  ///< n x n : V diag(f(sigma)/sigma) V^T
  std::vector<double> scale;  ///< n : per-mode SVT shrink factors
  std::vector<double> diag;   ///< n : factor_spd retry scratch
  // One lane tile of grid columns (element k of lane l at [k * W + l]).
  std::vector<double> tile;    ///< n x n x W : lfac in every lane
  std::vector<double> dpanel;  ///< M x W : X - E
  std::vector<double> ypanel;  ///< M x W : Y1
  std::vector<double> rhs;     ///< n x W : A^T (X - E) dots, then rhs, then Z
  std::vector<double> yrhs;    ///< n x W : A^T Y1 dots
  std::vector<double> azpanel; ///< M x W : A Z
};

// Jt = SVT(Jin) at level tau, computed through the small side: with
// G = Jin^T Jin = V Sigma^2 V^T (n x n, n = MIC rank), the thresholded
// iterate is Jin * V diag(max(sigma - tau, 0)/sigma) V^T — no SVD of the
// tall N x n iterate needed.  Modes with sigma <= tau (including exact
// null directions) are zeroed, exactly like the dense SVT.
void svt_via_gram(LrrWorkspace& ws, double tau) {
  linalg::gram_into(ws.jin, ws.gmat);
  linalg::eigh_sym_in_place(ws.gmat, ws.evec);
  const std::size_t n = ws.gmat.rows();
  ws.scale.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double lambda = ws.gmat(k, k);
    const double sigma = lambda > 0.0 ? std::sqrt(lambda) : 0.0;
    ws.scale[k] = sigma > tau ? (sigma - tau) / sigma : 0.0;
  }
  ws.smat.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (ws.scale[k] == 0.0) continue;
        acc += ws.scale[k] * ws.evec(i, k) * ws.evec(j, k);
      }
      ws.smat(i, j) = acc;
    }
  }
  linalg::multiply_into(ws.jin, ws.smat, ws.jt);
}

}  // namespace

LrrResult solve_lrr(const linalg::Matrix& a, const linalg::Matrix& x,
                    const LrrOptions& options, const LrrWarmStart* warm) {
  if (a.rows() != x.rows()) {
    throw std::invalid_argument("solve_lrr: dictionary/data row mismatch");
  }
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t big_n = x.cols();

  LrrWorkspace ws;
  linalg::transpose_into(x, ws.xt);
  linalg::transpose_into(a, ws.at);

  // Warm restart: accept the previous correlation only when its shape
  // matches this problem exactly (a reference-set change resets to cold —
  // the convergence-preserving reset).  Multipliers and the resumed
  // penalty ride along only with an accepted Z.
  const bool warm_z =
      warm != nullptr && warm->z.rows() == n && warm->z.cols() == big_n;
  const bool warm_y = warm_z && warm->y1.rows() == m &&
                      warm->y1.cols() == big_n && warm->y2.rows() == n &&
                      warm->y2.cols() == big_n;

  // The Z-update normal matrix I + A^T A is fixed for the whole ADMM run:
  // factor it exactly once (with the deterministic diagonal-bump retry of
  // the SPD pipeline) and back-substitute per iteration.
  linalg::gram_into(a, ws.lfac);
  for (std::size_t i = 0; i < n; ++i) ws.lfac(i, i) += 1.0;
  ws.diag.resize(n);
  if (!linalg::factor_spd(ws.lfac, ws.diag)) {
    throw std::runtime_error("solve_lrr: (I + A^T A) not SPD (numerical)");
  }

  if (warm_z) {
    linalg::transpose_into(warm->z, ws.zt);
  } else {
    ws.zt.resize(big_n, n);
  }
  ws.jt.resize(big_n, n);
  if (warm_y) {
    linalg::transpose_into(warm->y2, ws.y2t);
    linalg::transpose_into(warm->y1, ws.y1t);
  } else {
    ws.y2t.resize(big_n, n);
    ws.y1t.resize(big_n, m);
  }
  ws.et.resize(big_n, m);
  ws.azt.resize(big_n, m);
  ws.jin.resize(big_n, n);

  // Every lane of the Z-update tile solves against the same factor.
  constexpr std::size_t w = linalg::kernels::kSpdLanes;
  ws.tile.resize(n * n * w);
  linalg::kernels::tile_seed(ws.tile.data(), n, ws.lfac.data().data(),
                             (1u << w) - 1u);
  ws.dpanel.resize(m * w);
  ws.ypanel.resize(m * w);
  ws.rhs.resize(n * w);
  ws.yrhs.resize(n * w);
  ws.azpanel.resize(m * w);

  const double x_norm = std::max(linalg::frobenius_norm(x), 1e-12);
  double mu = options.mu;
  if (warm_z && warm->mu > 0.0) {
    // Resume the penalty two growth steps below where the previous solve
    // stopped: near-final mu keeps the SVT threshold small immediately
    // (no warm-up phase), while the rho^2 headroom leaves the first few
    // iterations enough step size to absorb the drift in X.
    mu = std::clamp(warm->mu / (options.rho * options.rho), options.mu,
                    options.mu_max);
  }
  const bool adaptive = warm_z && warm->mu > 0.0;
  double prev_r_max = -1.0;
  LrrResult out;

  for (std::size_t it = 0; it < options.max_iters; ++it) {
    const double inv_mu = 1.0 / mu;

    // J-update: singular-value thresholding of Z + Y2/mu at level 1/mu.
    {
      const auto z = ws.zt.data();
      const auto y2 = ws.y2t.data();
      const auto jin = ws.jin.data();
      for (std::size_t k = 0; k < jin.size(); ++k) {
        jin[k] = z[k] + y2[k] * inv_mu;
      }
    }
    svt_via_gram(ws, inv_mu);

    // Z-update, (A Z)^T product and E-update, one lane tile of W grid
    // columns (rows of the transposed state) at a time.  Every dot is a
    // dot_panel column and every solve a lane of spd_solve_lanes, so each
    // column gets exactly the bits of the one-column dot / back-substitution
    // loop.  Lanes past the last column of a partial tile compute garbage
    // that is never scattered back.
    const double tau = options.epsilon * inv_mu;
    for (std::size_t r0 = 0; r0 < big_n; r0 += w) {
      const std::size_t cols = std::min(w, big_n - r0);
      for (std::size_t c = 0; c < cols; ++c) {
        const auto xrow = ws.xt.row_span(r0 + c);
        const auto erow = ws.et.row_span(r0 + c);
        const auto y1row = ws.y1t.row_span(r0 + c);
        for (std::size_t i = 0; i < m; ++i) {
          ws.dpanel[i * w + c] = xrow[i] - erow[i];
          ws.ypanel[i * w + c] = y1row[i];
        }
      }

      // (I + A^T A) z = A^T (X - E) + J + (A^T Y1 - Y2)/mu per lane.
      for (std::size_t jj = 0; jj < n; ++jj) {
        const double* arow = ws.at.row_span(jj).data();
        linalg::kernels::dot_panel(arow, ws.dpanel.data(), w, m, w,
                                   ws.rhs.data() + jj * w);
        linalg::kernels::dot_panel(arow, ws.ypanel.data(), w, m, w,
                                   ws.yrhs.data() + jj * w);
      }
      for (std::size_t c = 0; c < cols; ++c) {
        const auto jrow = ws.jt.row_span(r0 + c);
        const auto y2row = ws.y2t.row_span(r0 + c);
        for (std::size_t jj = 0; jj < n; ++jj) {
          double& b = ws.rhs[jj * w + c];
          b = b + jrow[jj] + (ws.yrhs[jj * w + c] - y2row[jj]) * inv_mu;
        }
      }
      linalg::kernels::spd_solve_lanes(ws.tile.data(), ws.rhs.data(), n);
      for (std::size_t i = 0; i < m; ++i) {
        linalg::kernels::dot_panel(a.row_span(i).data(), ws.rhs.data(), w, n,
                                   w, ws.azpanel.data() + i * w);
      }

      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t r = r0 + c;
        const auto zrow = ws.zt.row_span(r);
        for (std::size_t jj = 0; jj < n; ++jj) zrow[jj] = ws.rhs[jj * w + c];
        const auto azrow = ws.azt.row_span(r);
        for (std::size_t i = 0; i < m; ++i) azrow[i] = ws.azpanel[i * w + c];

        // E-update: l2,1 shrinkage of q = X - A Z + Y1/mu, column-wise.
        const auto xrow = ws.xt.row_span(r);
        const auto y1row = ws.y1t.row_span(r);
        const auto erow = ws.et.row_span(r);
        double col_norm = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          const double q = xrow[i] - azrow[i] + y1row[i] * inv_mu;
          col_norm += q * q;
        }
        col_norm = std::sqrt(col_norm);
        const double shrink =
            col_norm > tau ? (col_norm - tau) / col_norm : 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          erow[i] = shrink * (xrow[i] - azrow[i] + y1row[i] * inv_mu);
        }
      }
    }

    // Multiplier updates and residual norms, fused.
    double r1_sq = 0.0;
    double r2_sq = 0.0;
    for (std::size_t r = 0; r < big_n; ++r) {
      const auto xrow = ws.xt.row_span(r);
      const auto azrow = ws.azt.row_span(r);
      const auto erow = ws.et.row_span(r);
      const auto y1row = ws.y1t.row_span(r);
      for (std::size_t i = 0; i < m; ++i) {
        const double res = xrow[i] - azrow[i] - erow[i];
        y1row[i] += mu * res;
        r1_sq += res * res;
      }
      const auto zrow = ws.zt.row_span(r);
      const auto jrow = ws.jt.row_span(r);
      const auto y2row = ws.y2t.row_span(r);
      for (std::size_t jj = 0; jj < n; ++jj) {
        const double res = zrow[jj] - jrow[jj];
        y2row[jj] += mu * res;
        r2_sq += res * res;
      }
    }
    out.iterations = it + 1;
    const double r1 = std::sqrt(r1_sq) / x_norm;
    const double r2 = std::sqrt(r2_sq) / x_norm;
    out.residual = r1;
    const double r_max = std::max(r1, r2);
    // Adaptive mu: while the combined residual stagnates the penalty is
    // too small to make progress — grow it by rho^2; once the residual
    // contracts geometrically, fall back to the plain rho schedule.
    double rho_eff = options.rho;
    if (adaptive && prev_r_max >= 0.0 && r_max > 0.9 * prev_r_max) {
      rho_eff = options.rho * options.rho;
    }
    prev_r_max = r_max;
    mu = std::min(rho_eff * mu, options.mu_max);
    if (r1 < options.tol && r2 < options.tol) {
      out.converged = true;
      break;
    }
  }

  out.mu_final = mu;
  linalg::transpose_into(ws.zt, out.z);
  linalg::transpose_into(ws.et, out.e);
  linalg::transpose_into(ws.y1t, out.y1);
  linalg::transpose_into(ws.y2t, out.y2);
  return out;
}

}  // namespace iup::core
