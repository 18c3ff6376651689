#include "core/self_augmented.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/constraints.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/norms.hpp"
#include "linalg/svd.hpp"
#include "linalg/vec.hpp"
#include "rng/rng.hpp"

// Two index repairs relative to the published Algorithm 1 (this comment is
// their reference; the README's "Repairs to the published Algorithm 1"
// summarises them):
//
//  (1) The similarity curvature term indexes H by the *link* (band) index
//      ii, not by the within-link slot jj: H is M x M, and jj ranges over
//      [1, N/M], which is out of bounds whenever N/M != M.
//  (2) The first row of H = Toeplitz(-1,1,0) differences link 1 against
//      nothing, which in the raw objective would shrink link 1's
//      largely-decrease RSS toward 0 dBm.  In kGaussSeidel mode the
//      absolute term on the first link is dropped (only genuine
//      adjacent-link differences are penalised); kPaperLiteral keeps the
//      published curvature including the first-row term.
//
// Tiles and bits: every column j of the R-update / row i of the L-update
// writes only its own output row, its Q and right-hand side are rebuilt
// from scratch with one fixed op sequence, and every lane of the batched
// factor/solve is bit-identical to the per-system solve.
namespace iup::core {

/// Index sets in one flat array: set k is idx[start[k] .. start[k + 1]),
/// ascending.
struct IndexSets {
  std::vector<std::size_t> start;  ///< sets + 1 offsets into idx
  std::vector<std::size_t> idx;
  std::size_t size() const { return start.size() - 1; }
  std::span<const std::size_t> operator[](std::size_t k) const {
    return {idx.data() + start[k], start[k + 1] - start[k]};
  }
};

/// Per R-update tile of kSpdLanes consecutive columns: the union of its
/// lanes' unobserved row sets, ascending, and per row the mask of lanes
/// whose set holds it — the downdate operands of
/// kernels::tile_build_union.  Fixed for the solve: it depends only on B.
struct TileUnions {
  std::vector<std::size_t> idx;
  std::vector<unsigned> lanes;
  std::vector<std::size_t> start;  ///< tiles + 1 offsets into idx / lanes
};

/// Sweep scratch, sized once per solve.  Everything is overwritten from
/// scratch for every tile, so reuse across tiles (and across sweeps)
/// cannot leak state.
struct Workspace {
  // One lane tile of systems (kernels::spd_factor_lanes layout): the Q
  // tile, its pristine copy taken before factoring (the failure-replay
  // source) and the interleaved right-hand sides.
  std::vector<double> tile;      ///< rr x rr x kSpdLanes
  std::vector<double> pristine;  ///< rr x rr x kSpdLanes
  std::vector<double> rhs_tile;  ///< rr x kSpdLanes
  std::vector<const double*> x;  ///< term rows of an axpy_panel pass
  std::vector<double> q_coef;    ///< rr x n: one L-update Q's downdates
  // Failure replay: the per-system path of a lane whose factor failed.
  linalg::Matrix q;          ///< rr x rr: pristine Q (also the L build's)
  std::vector<double> diag;  ///< rr, retry-ladder scratch
  // Constraint-2 lane scratch of one tile (kernels/lane_tile.hpp layouts;
  // idle lanes hold zeros).  R-update: each lane's band row of L.
  // L-update: each lane's Theta_i stored transposed (row u = the factor of
  // band cell (i, u)), the products built from it, and the lane weights.
  std::vector<double> band;     ///< rr lane vector
  std::vector<double> coef_a;   ///< lane weights: w2, or a slot's w2 |G|^2
  std::vector<double> coef_b;   ///< lane weights: the w3 curvature scale
  std::vector<double> theta;    ///< slots x rr lane panel
  std::vector<double> tg;       ///< slots x rr lane panel: G^T Theta^T
  std::vector<double> gbuf;     ///< rr x rr tile: (Theta G)(Theta G)^T
  std::vector<double> ttt;      ///< rr x rr tile: Theta Theta^T
  std::vector<double> nsum;     ///< slots lane vector: neighbour sums
  std::vector<double> contrib;  ///< rr lane vector: Theta * nsum
  std::vector<double> row;      ///< rr, one lane's contrib
};

struct SweepContext {
  // Shared read-only sweep products.
  linalg::Matrix ltl;     ///< L^T L
  linalg::Matrix rtr;     ///< R^T R
  linalg::Matrix lql;     ///< lambda*I + L^T L (per-column Q seed)
  linalg::Matrix rql;     ///< lambda*I + R^T R (per-row Q seed)
  linalg::Matrix xd_cur;  ///< current largely-decrease estimate
  linalg::Matrix xdg;     ///< X_D * G
  // Complement-form data term: the mask B is fixed for the whole solve,
  // so the unobserved index sets per column (R-update) and per row
  // (L-update) are scanned exactly once.  With the realistic dense masks
  // of the no-decrease matrix (~80% observed) seeding Q with
  // lambda*I + L^T L and SUBTRACTING the few unobserved outer products
  // replaces ~dense-many rank-1 updates by ~(1-density)-many.
  IndexSets unobs_rows;  ///< per column j
  IndexSets unobs_cols;  ///< per row i
  TileUnions col_unions;
  // R-update Constraint 2, per tile: the lanes' curvature weights w2c then
  // w3c (two lane vectors, idle lanes zero), fixed for the solve.
  std::vector<double> col_curvature;
  // Right-hand-side coefficient panels, fixed for the solve: R-update row
  // j holds [B o X_B](:, j) then w1 P(:, j); L-update row i holds
  // [B o X_B](i, :) then w1 P(i, :).  An unobserved entry is an exact
  // zero coefficient (the zero-skip contract in kernels.hpp).
  std::vector<double> rhs_r;  ///< n x rhs_r_terms
  std::vector<double> rhs_l;  ///< m x rhs_l_terms
  std::size_t rhs_r_terms = 0;
  std::size_t rhs_l_terms = 0;
  // Sweep outputs (double-buffered against l_hat / r_hat in solve()).
  linalg::Matrix r_next;
  linalg::Matrix l_next;
  // Objective scratch.
  linalg::Matrix rt;  ///< R^T, the dot_panel operand of X_hat = L R^T
  linalg::Matrix x_hat;
  /// The previous sweep's x_hat (swapped in), zero before the first: also
  /// the R-update's X_D source.
  linalg::Matrix x_hat_prev;
  linalg::Matrix xd_obj;
  linalg::Matrix xdg_obj;
  linalg::Matrix hxd_obj;
  Workspace ws;
};

namespace {

double row_norm_sq(const linalg::Matrix& m, std::size_t row) {
  const auto r = m.row_span(row);
  return linalg::kernels::norm_sq(r.data(), r.size());
}

/// Mirror the upper triangle of a row-major n x n matrix into the lower.
void symmetrize_lower(double* q, std::size_t n) {
  for (std::size_t a = 1; a < n; ++a) {
    for (std::size_t b = 0; b < a; ++b) q[a * n + b] = q[b * n + a];
  }
}

/// True when every entry of `a` is within `tol` of the same entry of `b`.
/// Written as "every |a - b| <= tol", so a NaN is never within.
bool within(const linalg::Matrix& a, const linalg::Matrix& b, double tol) {
  const auto x = a.data();
  const auto y = b.data();
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (!(std::abs(x[k] - y[k]) <= tol)) return false;
  }
  return true;
}

/// Lanes [0, lanes) of a tile as a kernels::tile_* `active` mask.
unsigned active_lanes(std::size_t lanes) {
  return static_cast<unsigned>((std::uint64_t{1} << lanes) - 1u);
}

/// The unobserved (mask == 0) index sets of b, per column and per row: one
/// counting pass and one fill pass.
void unobserved_sets(const linalg::Matrix& b, IndexSets& per_col,
                     IndexSets& per_row) {
  const std::size_t m = b.rows();
  const std::size_t n = b.cols();
  per_col.start.assign(n + 1, 0);
  per_row.start.assign(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (b(i, j) == 0.0) ++per_col.start[j + 1];
    }
  }
  for (std::size_t j = 0; j < n; ++j) per_col.start[j + 1] += per_col.start[j];
  per_col.idx.resize(per_col.start[n]);
  per_row.idx.resize(per_col.start[n]);
  std::size_t next = 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (b(i, j) != 0.0) continue;
      per_col.idx[per_col.start[j]++] = i;
      per_row.idx[next++] = j;
    }
    per_row.start[i + 1] = next;
  }
  // The fill advanced each column's start to its end: shift them back.
  std::copy_backward(per_col.start.begin(), per_col.start.end() - 1,
                     per_col.start.end());
  per_col.start[0] = 0;
}

/// The TileUnions of the index sets `unobs` (drawn from [0, universe)),
/// kSpdLanes consecutive sets per tile.
TileUnions tile_unions(const IndexSets& unobs, std::size_t universe) {
  constexpr std::size_t w = linalg::kernels::kSpdLanes;
  TileUnions out;
  out.idx.reserve(unobs.idx.size());
  out.lanes.reserve(unobs.idx.size());
  out.start.reserve(unobs.size() / w + 2);
  std::vector<unsigned> bits(universe);
  for (std::size_t j0 = 0; j0 < unobs.size(); j0 += w) {
    out.start.push_back(out.idx.size());
    std::fill(bits.begin(), bits.end(), 0u);
    const std::size_t lanes = std::min(w, unobs.size() - j0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (const std::size_t i : unobs[j0 + lane]) bits[i] |= 1u << lane;
    }
    for (std::size_t i = 0; i < universe; ++i) {
      if (bits[i] == 0) continue;
      out.idx.push_back(i);
      out.lanes.push_back(bits[i]);
    }
  }
  out.start.push_back(out.idx.size());
  return out;
}

/// The batched half-sweep: build -> factor -> solve, kSpdLanes consecutive
/// systems at a time.  On entry row k of `out` (k < count) holds system
/// k's right-hand side; on return its solution.  `build(tile, k0, lanes)`
/// writes the Q of systems [k0, k0 + lanes) straight into ws.tile
/// (diagonal and upper triangle, idle lanes the identity) and may append
/// terms to their right-hand sides.  The tile is copied to ws.pristine,
/// factored and solved lane-parallel, and a lane whose unbumped
/// factorisation failed replays through linalg::solve_spd_into (bump
/// ladder, LU fallback) from its pristine Q mirrored to the full symmetric
/// matrix.  The failed lane attempt itself is not counted, so the bits
/// and SpdStats are those of the one-system-at-a-time solve.
template <typename Build>
void solve_batched(std::size_t count, std::size_t rr, Workspace& ws,
                   linalg::Matrix& out, const Build& build) {
  constexpr std::size_t w = linalg::kernels::kSpdLanes;
  for (std::size_t k0 = 0, tile = 0; k0 < count; k0 += w, ++tile) {
    const std::size_t lanes = std::min(w, count - k0);
    build(tile, k0, lanes);
    std::copy(ws.tile.begin(), ws.tile.end(), ws.pristine.begin());
    const unsigned failed =
        linalg::kernels::spd_factor_lanes(ws.tile.data(), rr);
    const auto solved = [&](std::size_t lane) {
      return lane < lanes && ((failed >> lane) & 1u) == 0;
    };
    for (std::size_t lane = 0; lane < w; ++lane) {
      const double* b = solved(lane) ? out.row_span(k0 + lane).data() : nullptr;
      for (std::size_t a = 0; a < rr; ++a) {
        ws.rhs_tile[a * w + lane] = b != nullptr ? b[a] : 0.0;
      }
    }
    linalg::kernels::spd_solve_lanes(ws.tile.data(), ws.rhs_tile.data(), rr);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const auto x = out.row_span(k0 + lane);
      if (solved(lane)) {
        for (std::size_t a = 0; a < rr; ++a) x[a] = ws.rhs_tile[a * w + lane];
        continue;
      }
      for (std::size_t a = 0; a < rr; ++a) {
        for (std::size_t b = a; b < rr; ++b) {
          ws.q(a, b) = ws.pristine[(a * rr + b) * w + lane];
        }
      }
      symmetrize_lower(ws.q.data().data(), rr);
      linalg::solve_spd_into(ws.q, x, ws.diag);
    }
  }
}

}  // namespace

SelfAugmentedRsvd::SelfAugmentedRsvd(BandLayout layout, RsvdOptions options)
    : layout_(layout), options_(options) {
  if (options_.use_constraint2) {
    if (layout_.links == 0 || layout_.slots == 0) {
      throw std::invalid_argument(
          "SelfAugmentedRsvd: Constraint 2 requires a band layout");
    }
    g_ = continuity_matrix(layout_.slots);
    h_ = similarity_matrix(layout_.links);
    if (options_.c2_mode == Constraint2Mode::kGaussSeidel) {
      h_(0, 0) = 0.0;  // repair (2): no absolute term on the first link
    }
    g_t_ = g_.transpose();
  }
}

linalg::Matrix SelfAugmentedRsvd::warm_matrix(
    const RsvdProblem& problem) const {
  // Complete the observed entries with the Constraint-1 prediction, or the
  // observed row mean when Constraint 1 is unavailable.
  linalg::Matrix warm = problem.x_b;
  const bool have_p = !problem.p.empty();
  for (std::size_t i = 0; i < warm.rows(); ++i) {
    double row_sum = 0.0;
    double row_cnt = 0.0;
    for (std::size_t j = 0; j < warm.cols(); ++j) {
      if (problem.b(i, j) != 0.0) {
        row_sum += problem.x_b(i, j);
        row_cnt += 1.0;
      }
    }
    const double row_mean = row_cnt > 0.0 ? row_sum / row_cnt : 0.0;
    for (std::size_t j = 0; j < warm.cols(); ++j) {
      if (problem.b(i, j) == 0.0) {
        warm(i, j) = have_p ? problem.p(i, j) : row_mean;
      }
    }
  }
  return warm;
}

linalg::Matrix SelfAugmentedRsvd::initial_factor(
    const RsvdProblem& problem) const {
  const std::size_t m = problem.b.rows();
  const std::size_t r =
      options_.rank == 0 ? m : std::min(options_.rank, problem.b.cols());

  // Explicit warm start: reuse a previously converged factor (the engine's
  // versioned cache) instead of paying for a fresh SVD.  kRandom ignores it
  // so the paper's random-init ablation stays reproducible.
  if (!problem.l0.empty() && options_.init == FactorInit::kWarmStart) {
    if (problem.l0.rows() != m || problem.l0.cols() != r) {
      throw std::invalid_argument(
          "SelfAugmentedRsvd: warm-start factor shape mismatch");
    }
    return problem.l0;
  }

  if (options_.init == FactorInit::kRandom) {
    rng::Rng rng(options_.init_seed);
    linalg::Matrix l0(m, r);
    for (double& v : l0.data()) v = rng.normal();
    return l0;
  }

  // Warm start: SVD factor U * sqrt(Sigma) of the completed matrix,
  // truncated at rank r.
  const linalg::SvdResult d = linalg::svd(warm_matrix(problem));
  linalg::Matrix l0(m, r);
  for (std::size_t k = 0; k < r && k < d.sigma.size(); ++k) {
    const double s = std::sqrt(d.sigma[k]);
    for (std::size_t i = 0; i < m; ++i) l0(i, k) = d.u(i, k) * s;
  }
  return l0;
}

std::pair<double, double> SelfAugmentedRsvd::c2_curvature(
    const Weights& w, std::size_t j) const {
  double w2c = 0.0;
  double w3c = 0.0;
  const std::size_t ii = layout_.band_of(j);
  if (w.w2 > 0.0) w2c = w.w2 * row_norm_sq(g_, layout_.slot_of(j));
  if (w.w3 > 0.0) {
    if (options_.c2_mode == Constraint2Mode::kGaussSeidel) {
      double count = 0.0;
      if (ii > 0) count += 1.0;
      if (ii + 1 < layout_.links) count += 1.0;
      w3c = w.w3 * count;
    } else {
      // Published curvature: ||H(:, ii)||^2, repair (1) applied.
      w3c = w.w3 * (ii + 1 < layout_.links ? 2.0 : 1.0);
    }
  }
  return {w2c, w3c};
}

SelfAugmentedRsvd::Weights SelfAugmentedRsvd::effective_weights(
    const RsvdProblem& problem) const {
  Weights w;
  const bool c1 = options_.use_constraint1 && !problem.p.empty();
  const bool c2 = options_.use_constraint2;
  w.w1 = c1 ? options_.w_constraint1 : 0.0;
  w.w2 = c2 ? options_.w_continuity : 0.0;
  w.w3 = c2 ? options_.w_similarity : 0.0;
  if (!options_.auto_scale) return w;

  // "Scale the terms to the same order of magnitude" (Sec. IV-E): measure
  // each term's natural magnitude at the warm-start completion and rescale
  // the base weights by data_scale / term_scale, clamped to [1e-3, 1e3].
  const double data_scale =
      std::max(linalg::frobenius_norm_sq(problem.x_b), 1e-9);
  const auto clamp_scale = [](double s) {
    return std::clamp(s, 1e-3, 1e3);
  };
  if (w.w1 > 0.0) {
    const double c1_scale =
        std::max(linalg::frobenius_norm_sq(problem.p), 1e-9);
    w.w1 *= clamp_scale(data_scale / c1_scale);
  }
  if (c2 && (w.w2 > 0.0 || w.w3 > 0.0)) {
    const linalg::Matrix xd0 =
        extract_largely_decrease(warm_matrix(problem), layout_);
    if (w.w2 > 0.0) {
      const double g_scale =
          std::max(linalg::frobenius_norm_sq(xd0 * g_), 1e-9);
      w.w2 *= clamp_scale(data_scale / g_scale);
    }
    if (w.w3 > 0.0) {
      const double h_scale =
          std::max(linalg::frobenius_norm_sq(h_ * xd0), 1e-9);
      w.w3 *= clamp_scale(data_scale / h_scale);
    }
  }
  return w;
}

double SelfAugmentedRsvd::objective(const RsvdProblem& problem,
                                    const Weights& w, const linalg::Matrix& l,
                                    const linalg::Matrix& r,
                                    SweepContext& ctx) const {
  // X_hat = L R^T, one dot_panel per row of L over the columns of R^T:
  // per element bit-identical to dot(l_i, r_j) (dot_panel's contract).
  linalg::transpose_into(r, ctx.rt);
  ctx.x_hat.resize(l.rows(), r.rows());
  for (std::size_t i = 0; i < l.rows(); ++i) {
    linalg::kernels::dot_panel(l.row_span(i).data(), ctx.rt.data().data(),
                               r.rows(), l.cols(), r.rows(),
                               ctx.x_hat.row_span(i).data());
  }
  double v = options_.lambda * (linalg::frobenius_norm_sq(l) +
                                linalg::frobenius_norm_sq(r));
  v += linalg::masked_diff_norm_sq(problem.b, ctx.x_hat, problem.x_b);
  if (w.w1 > 0.0) {
    v += w.w1 * linalg::diff_norm_sq(ctx.x_hat, problem.p);
  }
  if (options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0)) {
    ctx.xd_obj.resize(layout_.links, layout_.slots);
    for (std::size_t i = 0; i < layout_.links; ++i) {
      for (std::size_t u = 0; u < layout_.slots; ++u) {
        ctx.xd_obj(i, u) = ctx.x_hat(i, layout_.cell(i, u));
      }
    }
    if (w.w2 > 0.0) {
      linalg::multiply_into(ctx.xd_obj, g_, ctx.xdg_obj);
      v += w.w2 * linalg::frobenius_norm_sq(ctx.xdg_obj);
    }
    if (w.w3 > 0.0) {
      linalg::multiply_into(h_, ctx.xd_obj, ctx.hxd_obj);
      v += w.w3 * linalg::frobenius_norm_sq(ctx.hxd_obj);
    }
  }
  return v;
}

void SelfAugmentedRsvd::update_r(const RsvdProblem& problem, const Weights& w,
                                 const linalg::Matrix& l,
                                 SweepContext& ctx) const {
  constexpr std::size_t lw = linalg::kernels::kSpdLanes;
  const std::size_t m = l.rows();
  const std::size_t rr = l.cols();
  const std::size_t n = problem.b.cols();
  const bool c2 = options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0);
  const bool gauss_seidel =
      options_.c2_mode == Constraint2Mode::kGaussSeidel;
  Workspace& ws = ctx.ws;

  linalg::gram_into(l, ctx.ltl);
  ctx.lql = ctx.ltl;
  for (std::size_t a = 0; a < rr; ++a) ctx.lql(a, a) += options_.lambda;

  // Current largely-decrease estimate (from the previous R) for the
  // Gauss-Seidel cross terms of Constraint 2: dot(l_i, r_prev of cell
  // (i, u)), which the previous sweep's objective already built, bit for
  // bit, as x_hat(i, cell(i, u)) (dot_panel's contract).  In the first
  // sweep R starts at zero, so every such dot is +0, as is the zero-filled
  // x_hat_prev.
  if (c2) {
    ctx.xd_cur.resize(layout_.links, layout_.slots);
    for (std::size_t i = 0; i < layout_.links; ++i) {
      for (std::size_t u = 0; u < layout_.slots; ++u) {
        ctx.xd_cur(i, u) = ctx.x_hat_prev(i, layout_.cell(i, u));
      }
    }
    if (gauss_seidel && w.w2 > 0.0) {
      linalg::multiply_into(ctx.xd_cur, g_, ctx.xdg);
    }
  }

  // Every column's right-hand side in one panel pass: the data terms then
  // the Constraint-1 terms over the rows of L, then, per column, the
  // Constraint-2 Gauss-Seidel cross terms.
  ctx.r_next.resize(n, rr);
  for (std::size_t i = 0; i < m; ++i) ws.x[i] = l.row_span(i).data();
  for (std::size_t t = m; t < ctx.rhs_r_terms; ++t) ws.x[t] = ws.x[t - m];
  linalg::kernels::axpy_panel(ctx.rhs_r.data(), ctx.rhs_r_terms, n,
                              ws.x.data(), ctx.rhs_r_terms,
                              ctx.r_next.data().data(), rr, rr);
  if (c2 && gauss_seidel) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t ii = layout_.band_of(j);
      const std::size_t jj = layout_.slot_of(j);
      const double* l_band = l.row_span(ii).data();
      double* c = ctx.r_next.row_span(j).data();
      if (w.w2 > 0.0) {
        // Cross term with the neighbouring slots of the current
        // estimate: sum_q (XD*G)(ii,q) G(jj,q) with the self
        // contribution removed.
        double cross = 0.0;
        for (std::size_t qq = 0; qq < layout_.slots; ++qq) {
          const double others =
              ctx.xdg(ii, qq) - ctx.xd_cur(ii, jj) * g_(jj, qq);
          cross += others * g_(jj, qq);
        }
        linalg::kernels::axpy(-w.w2 * cross, l_band, c, rr);
      }
      if (w.w3 > 0.0) {
        double neighbor_sum = 0.0;
        if (ii > 0) neighbor_sum += ctx.xd_cur(ii - 1, jj);
        if (ii + 1 < layout_.links) neighbor_sum += ctx.xd_cur(ii + 1, jj);
        linalg::kernels::axpy(w.w3 * neighbor_sum, l_band, c, rr);
      }
    }
  }

  // One tile of columns' Q in one pass, element by element across the
  // lanes: (lambda*I + L^T L) minus the unobserved rows' outer products,
  // then the Constraint-1 curvature, then the Constraint-2 rank-1s of each
  // lane's band row (w2 then w3, the adjacent lane vectors of the tile's
  // curvature) — per element the per-system op sequence.
  const auto build = [&](std::size_t tile, std::size_t j0, std::size_t lanes) {
    const double* curvature = nullptr;
    std::size_t rank1s = 0;
    if (c2) {
      for (std::size_t lane = 0; lane < lw; ++lane) {
        const double* l_band =
            lane < lanes ? l.row_span(layout_.band_of(j0 + lane)).data()
                         : nullptr;
        for (std::size_t k = 0; k < rr; ++k) {
          ws.band[k * lw + lane] = l_band != nullptr ? l_band[k] : 0.0;
        }
      }
      curvature = ctx.col_curvature.data() + tile * 2 * lw;
      if (w.w2 > 0.0) ++rank1s;
      if (w.w3 > 0.0) ++rank1s;
      if (w.w2 == 0.0) curvature += lw;
    }
    const TileUnions& u = ctx.col_unions;
    const std::size_t first = u.start[tile];
    linalg::kernels::tile_build_union(
        ws.tile.data(), rr, ctx.lql.data().data(), active_lanes(lanes),
        l.data().data(), rr, u.idx.data() + first, u.lanes.data() + first,
        u.start[tile + 1] - first, w.w1,
        w.w1 > 0.0 ? ctx.ltl.data().data() : nullptr, curvature, rank1s,
        ws.band.data());
  };
  solve_batched(n, rr, ws, ctx.r_next, build);
}

void SelfAugmentedRsvd::update_l(const RsvdProblem& problem, const Weights& w,
                                 const linalg::Matrix& l_prev,
                                 const linalg::Matrix& r,
                                 SweepContext& ctx) const {
  constexpr std::size_t lw = linalg::kernels::kSpdLanes;
  const std::size_t m = problem.b.rows();
  const std::size_t rr = r.cols();
  const std::size_t n = r.rows();
  const std::size_t slots = layout_.slots;
  const bool c2 = options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0);
  const bool gauss_seidel =
      options_.c2_mode == Constraint2Mode::kGaussSeidel;
  Workspace& ws = ctx.ws;

  linalg::gram_into(r, ctx.rtr);
  ctx.rql = ctx.rtr;
  for (std::size_t a = 0; a < rr; ++a) ctx.rql(a, a) += options_.lambda;

  // Current X_D (from l_prev and the fresh r) for the similarity cross
  // terms; the continuity term is exactly quadratic per row and needs no
  // cross terms.
  if (c2) {
    ctx.xd_cur.resize(layout_.links, slots);
    for (std::size_t i = 0; i < layout_.links; ++i) {
      for (std::size_t u = 0; u < slots; ++u) {
        ctx.xd_cur(i, u) = linalg::dot(l_prev.row_span(i),
                                       r.row_span(layout_.cell(i, u)));
      }
    }
  }

  // Every row's right-hand side in one panel pass: the data terms then the
  // Constraint-1 terms over the rows of R.  The similarity cross term of a
  // row is appended by its tile's build below.
  ctx.l_next.resize(m, rr);
  for (std::size_t j = 0; j < n; ++j) ws.x[j] = r.row_span(j).data();
  for (std::size_t t = n; t < ctx.rhs_l_terms; ++t) ws.x[t] = ws.x[t - n];
  linalg::kernels::axpy_panel(ctx.rhs_l.data(), ctx.rhs_l_terms, m,
                              ws.x.data(), ctx.rhs_l_terms,
                              ctx.l_next.data().data(), rr, rr);

  // Constraint 2, per lane and row i: Theta_i transposed (row u = the
  // factor of band cell (i, u)), its curvature products (Theta G)(Theta
  // G)^T and Theta Theta^T, and the similarity cross term w3 * Theta *
  // neighbour_sum appended to row i's right-hand side.
  const auto theta_products = [&](std::size_t i0, std::size_t lanes) {
    for (std::size_t lane = 0; lane < lw; ++lane) {
      const bool live = lane < lanes;
      const std::size_t i = live ? i0 + lane : 0;
      for (std::size_t u = 0; u < slots; ++u) {
        const double* ru = r.row_span(layout_.cell(i, u)).data();
        for (std::size_t k = 0; k < rr; ++k) {
          ws.theta[(u * rr + k) * lw + lane] = live ? ru[k] : 0.0;
        }
      }
      for (std::size_t u = 0; u < slots; ++u) {
        double sum = 0.0;
        if (live && i > 0) sum += ctx.xd_cur(i - 1, u);
        if (live && i + 1 < layout_.links) sum += ctx.xd_cur(i + 1, u);
        ws.nsum[u * lw + lane] = sum;
      }
      double count = 0.0;
      if (live && i > 0) count += 1.0;
      if (live && i + 1 < layout_.links) count += 1.0;
      const double h_col_sq = i + 1 < layout_.links ? 2.0 : 1.0;
      ws.coef_a[lane] = live ? w.w2 : 0.0;
      ws.coef_b[lane] =
          live ? w.w3 * (gauss_seidel ? count : h_col_sq) : 0.0;
    }
    if (w.w2 > 0.0 && gauss_seidel) {
      // Row i of X_D*G is (l_i Theta_i) G: exactly quadratic in l_i with
      // curvature (Theta G)(Theta G)^T = gram(G^T Theta^T).
      linalg::kernels::lanes_matmul_shared(g_t_.data().data(), slots, slots,
                                           ws.theta.data(), rr, ws.tg.data());
      linalg::kernels::lanes_gram_upper(ws.tg.data(), slots, rr,
                                        ws.gbuf.data());
    }
    if (w.w3 > 0.0) {
      linalg::kernels::lanes_gram_upper(ws.theta.data(), slots, rr,
                                        ws.ttt.data());
      if (gauss_seidel) {
        linalg::kernels::lanes_gemv(ws.nsum.data(), ws.theta.data(), slots,
                                    rr, ws.contrib.data());
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          for (std::size_t k = 0; k < rr; ++k) {
            ws.row[k] = ws.contrib[k * lw + lane];
          }
          linalg::kernels::axpy(w.w3, ws.row.data(),
                                ctx.l_next.row_span(i0 + lane).data(), rr);
        }
      }
    }
  };

  // One tile of rows' Q, mirroring update_r: (lambda*I + R^T R) minus
  // the unobserved columns' outer products, then the Constraint-1
  // curvature, then (Constraint 2 active) each row's Theta curvature.
  // The downdates run per system, all Q rows of a lane in one axpy_panel
  // pass over its own unobserved columns (coefficient -r_j[a] for row a,
  // an exact zero where the per-row build skipped), written straight into
  // the lane: a tile's union of unobserved columns is several times one
  // row's own set, so the masked union the R-update uses measured slower
  // here.
  const auto build = [&](std::size_t, std::size_t i0, std::size_t lanes) {
    if (c2) theta_products(i0, lanes);
    const unsigned live = active_lanes(lanes);
    // The identity in idle lanes; live lanes are overwritten below.
    linalg::kernels::tile_seed(ws.tile.data(), rr, ctx.rql.data().data(),
                               live);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const auto unobs = ctx.unobs_cols[i0 + lane];
      const std::size_t count = unobs.size();
      for (std::size_t t = 0; t < count; ++t) {
        const double* rj = r.row_span(unobs[t]).data();
        ws.x[t] = rj;
        for (std::size_t a = 0; a < rr; ++a) {
          ws.q_coef[a * count + t] = -1.0 * rj[a];
        }
      }
      std::copy(ctx.rql.data().begin(), ctx.rql.data().end(),
                ws.q.data().begin());
      linalg::kernels::axpy_panel(ws.q_coef.data(), count, rr, ws.x.data(),
                                  count, ws.q.data().data(), rr, rr);
      linalg::kernels::tile_set_lane(ws.tile.data(), rr, lane,
                                     ws.q.data().data());
    }
    if (w.w1 > 0.0) {
      linalg::kernels::tile_axpy_shared(ws.tile.data(), rr, w.w1,
                                        ctx.rtr.data().data(), live);
    }
    if (c2 && w.w2 > 0.0) {
      if (gauss_seidel) {
        linalg::kernels::tile_axpy_lanes(ws.tile.data(), rr, ws.coef_a.data(),
                                         ws.gbuf.data(), live);
      } else {
        for (std::size_t u = 0; u < slots; ++u) {
          const double c = w.w2 * row_norm_sq(g_, u);
          std::fill(ws.coef_a.begin(), ws.coef_a.end(), c);
          linalg::kernels::tile_rank1_lanes(ws.tile.data(), rr,
                                            ws.coef_a.data(),
                                            ws.theta.data() + u * rr * lw);
        }
      }
    }
    if (c2 && w.w3 > 0.0) {
      linalg::kernels::tile_axpy_lanes(ws.tile.data(), rr, ws.coef_b.data(),
                                       ws.ttt.data(), live);
    }
  };
  solve_batched(m, rr, ws, ctx.l_next, build);
}

RsvdResult SelfAugmentedRsvd::solve(const RsvdProblem& problem) const {
  if (problem.x_b.rows() != problem.b.rows() ||
      problem.x_b.cols() != problem.b.cols()) {
    throw std::invalid_argument("SelfAugmentedRsvd: X_B / B shape mismatch");
  }
  if (options_.use_constraint1 && !problem.p.empty() &&
      (problem.p.rows() != problem.b.rows() ||
       problem.p.cols() != problem.b.cols())) {
    throw std::invalid_argument("SelfAugmentedRsvd: P shape mismatch");
  }
  if (options_.use_constraint2 &&
      (problem.b.rows() != layout_.links ||
       problem.b.cols() != layout_.num_cells())) {
    throw std::invalid_argument("SelfAugmentedRsvd: band layout mismatch");
  }

  linalg::Matrix l_hat = initial_factor(problem);
  // First R solve pairs with the initial L (Algorithm 1 line 3).
  linalg::Matrix r_hat(problem.b.cols(), l_hat.cols());
  const Weights w = effective_weights(problem);

  SweepContext ctx;

  // B is fixed across the whole solve: scan the observed/unobserved index
  // sets once, instead of re-testing every mask entry in every sweep.  The
  // per-tile unobserved unions, the Constraint-2 curvature lanes and the
  // right-hand-side coefficient panels likewise depend only on B, X_B, P
  // and the weights.
  {
    const std::size_t m = problem.b.rows();
    const std::size_t n = problem.b.cols();
    unobserved_sets(problem.b, ctx.unobs_rows, ctx.unobs_cols);
    ctx.col_unions = tile_unions(ctx.unobs_rows, m);
    if (options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0)) {
      constexpr std::size_t lw = linalg::kernels::kSpdLanes;
      ctx.col_curvature.assign((n + lw - 1) / lw * 2 * lw, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        const auto [w2c, w3c] = c2_curvature(w, j);
        double* tile = ctx.col_curvature.data() + (j / lw) * 2 * lw;
        tile[j % lw] = w2c;
        tile[lw + j % lw] = w3c;
      }
    }
    const bool c1 = w.w1 > 0.0;
    ctx.rhs_r_terms = c1 ? 2 * m : m;
    ctx.rhs_l_terms = c1 ? 2 * n : n;
    ctx.rhs_r.assign(n * ctx.rhs_r_terms, 0.0);
    ctx.rhs_l.assign(m * ctx.rhs_l_terms, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double xb = problem.b(i, j) != 0.0 ? problem.x_b(i, j) : 0.0;
        ctx.rhs_r[j * ctx.rhs_r_terms + i] = xb;
        ctx.rhs_l[i * ctx.rhs_l_terms + j] = xb;
        if (c1) {
          const double wp = w.w1 * problem.p(i, j);
          ctx.rhs_r[j * ctx.rhs_r_terms + m + i] = wp;
          ctx.rhs_l[i * ctx.rhs_l_terms + n + j] = wp;
        }
      }
    }
  }

  // Size the sweep scratch once; steady-state sweeps then allocate
  // nothing.
  {
    const std::size_t rr = l_hat.cols();
    constexpr std::size_t lanes = linalg::kernels::kSpdLanes;
    ctx.x_hat.resize(l_hat.rows(), problem.b.cols());
    Workspace& ws = ctx.ws;
    ws.tile.resize(rr * rr * lanes);
    ws.pristine.resize(rr * rr * lanes);
    ws.rhs_tile.resize(rr * lanes);
    ws.x.resize(std::max(ctx.rhs_r_terms, ctx.rhs_l_terms));
    ws.q_coef.resize(rr * problem.b.cols());
    ws.q.resize(rr, rr);
    ws.diag.resize(rr);
    if (options_.use_constraint2) {
      const std::size_t slots = layout_.slots;
      ws.band.resize(rr * lanes);
      ws.coef_a.resize(lanes);
      ws.coef_b.resize(lanes);
      ws.theta.resize(slots * rr * lanes);
      ws.tg.resize(slots * rr * lanes);
      ws.gbuf.resize(rr * rr * lanes);
      ws.ttt.resize(rr * rr * lanes);
      ws.nsum.resize(slots * lanes);
      ws.contrib.resize(rr * lanes);
      ws.row.resize(rr);
    }
  }

  RsvdResult out;
  out.objective_history.reserve(options_.max_iters);
  double best_v = std::numeric_limits<double>::infinity();
  const double data_scale =
      std::max(linalg::frobenius_norm_sq(problem.x_b), 1.0);

  bool last_best = false;
  for (std::size_t it = 0; it < options_.max_iters; ++it) {
    // x_hat_prev = the previous sweep's x_hat (zero before the first).
    std::swap(ctx.x_hat, ctx.x_hat_prev);
    update_r(problem, w, l_hat, ctx);
    update_l(problem, w, l_hat, ctx.r_next, ctx);
    // Rebalance the factors: scaling L by s and R by 1/s leaves the
    // product unchanged and, at s = (||R||/||L||)^(1/2), minimises the
    // lambda regulariser — a strict objective improvement that also keeps
    // the per-column systems well conditioned.
    {
      const double ln = linalg::frobenius_norm(ctx.l_next);
      const double rn = linalg::frobenius_norm(ctx.r_next);
      if (ln > 1e-12 && rn > 1e-12) {
        const double s = std::sqrt(rn / ln);
        ctx.l_next *= s;
        ctx.r_next /= s;
      }
    }
    const double v = objective(problem, w, ctx.l_next, ctx.r_next, ctx);
    out.objective_history.push_back(v);
    out.iterations = it + 1;

    last_best = v <= best_v;
    if (last_best) {
      best_v = v;
      out.l = ctx.l_next;
      out.r = ctx.r_next;
    }
    // Capacity-reusing copies: after the first iteration these assignments
    // never touch the heap.
    l_hat = ctx.l_next;
    r_hat = ctx.r_next;

    // Algorithm 1 lines 6-8: stop refreshing once v falls below v_th,
    // interpreted relative to the data scale ||X_B||_F^2.
    if (v < options_.v_threshold * data_scale) {
      out.reached_threshold = true;
      break;
    }
    // Extra guard: stop on stagnation.
    const std::size_t hist = out.objective_history.size();
    if (hist >= 2) {
      const double prev = out.objective_history[hist - 2];
      if (std::abs(prev - v) <= 1e-10 * std::max(prev, 1.0)) break;
    }
    // Convergence stop (RsvdOptions::converge_db): the X_hat objective()
    // just built from this sweep's factors moved by at most the tolerance
    // at every entry, and this sweep holds the best objective.
    if (options_.converge_db > 0.0 && out.iterations >= 2 && last_best &&
        within(ctx.x_hat, ctx.x_hat_prev, options_.converge_db)) {
      out.converged = true;
      break;
    }
  }

  if (out.l.empty()) {  // max_iters == 0 edge case
    out.l = l_hat;
    out.r = r_hat;
  }
  // When the last sweep holds the best objective (every convergence stop
  // does), its x_hat is already out.l out.r^T: each element is
  // dot(l_i, r_j), bit for bit the multiply_transposed_into element.
  if (last_best) {
    out.x_hat = std::move(ctx.x_hat);
  } else {
    linalg::multiply_transposed_into(out.l, out.r, out.x_hat);
  }
  return out;
}

}  // namespace iup::core
