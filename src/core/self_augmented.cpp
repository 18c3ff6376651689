#include "core/self_augmented.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

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
// Grouped == ungrouped: every column j of the R-update / row i of the
// L-update writes only its own output row, its Q and right-hand side are
// rebuilt from scratch with one fixed op sequence, and every lane of the
// batched factor/solve is bit-identical to the per-system solve.
namespace iup::core {

/// One batch of sweep indices whose normal matrix Q is identical (the
/// mask-grouping invariant, self_augmented.hpp): Q is built and factored
/// once from members.front() and solved once per member.  Without
/// grouping, every index is a group of one.
struct MaskGroup {
  std::vector<std::size_t> members;  ///< ascending column / row indices
};

/// Per R-update tile of kSpdLanes groups: the union of its lanes'
/// unobserved row sets (the front member's), ascending, and per row the
/// mask of lanes whose set holds it — the operands of
/// kernels::tile_rank1_union.  Fixed for the solve: it depends only on B
/// and the groups.
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
  linalg::Matrix panel;      ///< rr x k RHS panel of one failed group
  std::vector<double> dots;  ///< k, solve_factored_spd_multi scratch
  linalg::Matrix q_retry;    ///< per-member LU-fallback replay copy
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
  std::vector<std::vector<std::size_t>> unobs_rows;  ///< per column j
  std::vector<std::vector<std::size_t>> unobs_cols;  ///< per row i
  // The systems of each half-sweep, built once per solve (the grouping
  // depends only on B, the layout and the constraint weights — all fixed
  // across sweeps), largest group first.  Mask groups when
  // RsvdOptions::group_masks, singletons otherwise; the L-update's rows
  // are always singletons under Constraint 2 (per-row Theta curvature).
  std::vector<MaskGroup> col_groups;  ///< R-update (grid columns)
  std::vector<MaskGroup> row_groups;  ///< L-update (links)
  TileUnions col_unions;
  // R-update Constraint 2, per tile: the lanes' curvature weights w2c then
  // w3c (two lane vectors, idle lanes zero), fixed with the groups.
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
  linalg::Matrix x_hat_prev;  ///< the previous sweep's x_hat (swapped in)
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

/// The TileUnions of `groups`, tile by tile, over index sets drawn from
/// [0, universe).
TileUnions tile_unions(const std::vector<MaskGroup>& groups,
                       const std::vector<std::vector<std::size_t>>& unobs,
                       std::size_t universe) {
  constexpr std::size_t w = linalg::kernels::kSpdLanes;
  TileUnions out;
  std::vector<unsigned> bits(universe);
  for (std::size_t g0 = 0; g0 < groups.size(); g0 += w) {
    out.start.push_back(out.idx.size());
    std::fill(bits.begin(), bits.end(), 0u);
    const std::size_t lanes = std::min(w, groups.size() - g0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (const std::size_t i : unobs[groups[g0 + lane].members.front()]) {
        bits[i] |= 1u << lane;
      }
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

/// Replay one group whose lane factorisation failed through the
/// per-system path, from its pristine Q (lane `lane` of ws.pristine)
/// mirrored to the full symmetric matrix: a singleton through
/// solve_spd_into; a group through factor_spd plus one multi-RHS panel
/// solve, or — if even the bump ladder fails — solve_spd_into per member
/// on the restored Q (LU fallback).  The failed lane attempt itself is not
/// counted, so the bits and SpdStats are those of the per-system path.
/// SpdStats granularity: a shared factorisation counts its failure and
/// bump recovery once per group instead of once per member, and the LU
/// replay adds one group-level failure on top of the per-member ladders
/// (k members report k+1 failures where the same columns solved one by
/// one report k).
void replay_failed(const MaskGroup& grp, std::size_t lane, Workspace& ws,
                   linalg::Matrix& out) {
  constexpr std::size_t w = linalg::kernels::kSpdLanes;
  const std::size_t n = ws.q.rows();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      ws.q(a, b) = ws.pristine[(a * n + b) * w + lane];
    }
  }
  symmetrize_lower(ws.q.data().data(), n);
  if (grp.members.size() == 1) {
    linalg::solve_spd_into(ws.q, out.row_span(grp.members.front()), ws.diag);
    return;
  }
  if (!linalg::factor_spd(ws.q, ws.diag)) {
    for (const std::size_t j : grp.members) {
      ws.q_retry = ws.q;
      linalg::solve_spd_into(ws.q_retry, out.row_span(j), ws.diag);
    }
    return;
  }
  const std::size_t k = grp.members.size();
  ws.panel.resize(n, k);
  ws.dots.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    const auto row = out.row_span(grp.members[c]);
    for (std::size_t i = 0; i < n; ++i) ws.panel(i, c) = row[i];
  }
  linalg::solve_factored_spd_multi(ws.q, ws.panel, ws.dots);
  for (std::size_t c = 0; c < k; ++c) {
    const auto row = out.row_span(grp.members[c]);
    for (std::size_t i = 0; i < n; ++i) row[i] = ws.panel(i, c);
  }
}

/// The batched half-sweep: build -> factor -> solve, kSpdLanes groups at a
/// time.  On entry each member's row of `out` holds its right-hand side;
/// on return it holds the solution.  `build(tile, g0, lanes)` writes the
/// Q of groups [g0, g0 + lanes) straight into ws.tile (diagonal and upper
/// triangle, idle lanes the identity) and may append terms to those
/// members' right-hand sides.  The tile is copied to ws.pristine, factored
/// in one spd_factor_lanes call, failed lanes replay through
/// replay_failed, and the rest solve in member rounds: round t solves
/// member t of every lane that has one (groups come largest first, so the
/// lanes of a tile carry similar member counts).
template <typename Build>
void solve_batched(const std::vector<MaskGroup>& groups, std::size_t rr,
                   Workspace& ws, linalg::Matrix& out, const Build& build) {
  constexpr std::size_t w = linalg::kernels::kSpdLanes;
  for (std::size_t g0 = 0, tile = 0; g0 < groups.size(); g0 += w, ++tile) {
    const std::size_t lanes = std::min(w, groups.size() - g0);
    build(tile, g0, lanes);
    std::copy(ws.tile.begin(), ws.tile.end(), ws.pristine.begin());
    const unsigned failed =
        linalg::kernels::spd_factor_lanes(ws.tile.data(), rr);
    std::size_t rounds = 0;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const MaskGroup& grp = groups[g0 + lane];
      if ((failed >> lane) & 1u) {
        replay_failed(grp, lane, ws, out);
      } else {
        rounds = std::max(rounds, grp.members.size());
      }
    }
    // Member index t of `lane`'s group in this round, or nullptr.
    const auto member_row = [&](std::size_t lane, std::size_t t) -> double* {
      if (lane >= lanes || ((failed >> lane) & 1u)) return nullptr;
      const MaskGroup& grp = groups[g0 + lane];
      return t < grp.members.size() ? out.row_span(grp.members[t]).data()
                                    : nullptr;
    };
    for (std::size_t t = 0; t < rounds; ++t) {
      for (std::size_t lane = 0; lane < w; ++lane) {
        const double* b = member_row(lane, t);
        for (std::size_t a = 0; a < rr; ++a) {
          ws.rhs_tile[a * w + lane] = b != nullptr ? b[a] : 0.0;
        }
      }
      linalg::kernels::spd_solve_lanes(ws.tile.data(), ws.rhs_tile.data(), rr);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        double* x = member_row(lane, t);
        if (x == nullptr) continue;
        for (std::size_t a = 0; a < rr; ++a) x[a] = ws.rhs_tile[a * w + lane];
      }
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
                                 const linalg::Matrix& r_prev,
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
  // Gauss-Seidel cross terms of Constraint 2.
  if (c2) {
    ctx.xd_cur.resize(layout_.links, layout_.slots);
    for (std::size_t i = 0; i < layout_.links; ++i) {
      for (std::size_t u = 0; u < layout_.slots; ++u) {
        ctx.xd_cur(i, u) =
            linalg::dot(l.row_span(i), r_prev.row_span(layout_.cell(i, u)));
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
  for (std::size_t t = 0; t < ctx.rhs_r_terms; ++t) {
    ws.x[t] = l.row_span(t % m).data();
  }
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

  // One tile of groups' Q, element by element across the lanes: (lambda*I
  // + L^T L) minus the unobserved rows' outer products, then the
  // Constraint-1 curvature, then the two Constraint-2 rank-1s of each
  // lane's band row — per element one fixed op sequence (the mask-grouping
  // invariant relies on identical inputs plus an identical sequence
  // producing identical bits).
  const auto build = [&](std::size_t tile, std::size_t g0, std::size_t lanes) {
    linalg::kernels::tile_seed(ws.tile.data(), rr, ctx.lql.data().data(),
                               active_lanes(lanes));
    const TileUnions& u = ctx.col_unions;
    const std::size_t first = u.start[tile];
    linalg::kernels::tile_rank1_union(
        ws.tile.data(), rr, l.data().data(), rr, u.idx.data() + first,
        u.lanes.data() + first, u.start[tile + 1] - first);
    if (w.w1 > 0.0) {
      linalg::kernels::tile_axpy_shared(ws.tile.data(), rr, w.w1,
                                        ctx.ltl.data().data(),
                                        active_lanes(lanes));
    }
    if (!c2) return;
    for (std::size_t lane = 0; lane < lw; ++lane) {
      const double* l_band =
          lane < lanes
              ? l.row_span(layout_.band_of(
                               ctx.col_groups[g0 + lane].members.front()))
                    .data()
              : nullptr;
      for (std::size_t k = 0; k < rr; ++k) {
        ws.band[k * lw + lane] = l_band != nullptr ? l_band[k] : 0.0;
      }
    }
    const double* curvature = ctx.col_curvature.data() + tile * 2 * lw;
    if (w.w2 > 0.0) {
      linalg::kernels::tile_rank1_lanes(ws.tile.data(), rr, curvature,
                                        ws.band.data());
    }
    if (w.w3 > 0.0) {
      linalg::kernels::tile_rank1_lanes(ws.tile.data(), rr, curvature + lw,
                                        ws.band.data());
    }
  };
  solve_batched(ctx.col_groups, rr, ws, ctx.r_next, build);
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
  for (std::size_t t = 0; t < ctx.rhs_l_terms; ++t) {
    ws.x[t] = r.row_span(t % n).data();
  }
  linalg::kernels::axpy_panel(ctx.rhs_l.data(), ctx.rhs_l_terms, m,
                              ws.x.data(), ctx.rhs_l_terms,
                              ctx.l_next.data().data(), rr, rr);

  // Constraint 2, every group a single row i: per lane, Theta_i transposed
  // (row u = the factor of band cell (i, u)), its curvature products
  // (Theta G)(Theta G)^T and Theta Theta^T, and the similarity cross term
  // w3 * Theta * neighbour_sum appended to row i's right-hand side.
  const auto theta_products = [&](std::size_t g0, std::size_t lanes) {
    for (std::size_t lane = 0; lane < lw; ++lane) {
      const bool live = lane < lanes;
      const std::size_t i = live ? ctx.row_groups[g0 + lane].members.front()
                                 : 0;
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
          const std::size_t i = ctx.row_groups[g0 + lane].members.front();
          linalg::kernels::axpy(w.w3, ws.row.data(),
                                ctx.l_next.row_span(i).data(), rr);
        }
      }
    }
  };

  // One tile of groups' Q, mirroring update_r: (lambda*I + R^T R) minus
  // the unobserved columns' outer products, then the Constraint-1
  // curvature, then (Constraint 2 active) each row's Theta curvature.
  // Without Constraint 2, Q is mask-only and rows sharing an unobserved
  // set share it.  The downdates run per system, all Q rows of a lane in
  // one axpy_panel pass over its own unobserved columns (coefficient
  // -r_j[a] for row a, an exact zero where the per-row build skipped),
  // written straight into the lane: a tile's union of unobserved columns
  // is several times one row's own set, so the masked union the R-update
  // uses measured slower here.
  const auto build = [&](std::size_t, std::size_t g0, std::size_t lanes) {
    if (c2) theta_products(g0, lanes);
    const unsigned live = active_lanes(lanes);
    // The identity in idle lanes; live lanes are overwritten below.
    linalg::kernels::tile_seed(ws.tile.data(), rr, ctx.rql.data().data(),
                               live);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const auto& unobs =
          ctx.unobs_cols[ctx.row_groups[g0 + lane].members.front()];
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
  solve_batched(ctx.row_groups, rr, ws, ctx.l_next, build);
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
  // sets once, instead of re-testing every mask entry in every sweep.
  {
    const std::size_t m = problem.b.rows();
    const std::size_t n = problem.b.cols();
    ctx.unobs_rows.assign(n, {});
    ctx.unobs_cols.assign(m, {});
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (problem.b(i, j) == 0.0) {
          ctx.unobs_rows[j].push_back(i);
          ctx.unobs_cols[i].push_back(j);
        }
      }
    }
  }

  // Mask grouping (the invariant is documented in the header): a column's
  // Q depends on the mask/layout structure and the current factor only —
  // never on the column's observed values — so columns whose Q-defining
  // inputs coincide share Q bit for bit in every sweep.  Encode those
  // inputs (unobserved row set; under Constraint 2 also the band row and
  // the scalar curvature weights) as a byte-string signature and group by
  // it, keeping first-occurrence order so the grouped fan-out is
  // deterministic.  Built once: B and the weights are fixed per solve.
  if (options_.group_masks) {
    const std::size_t m = problem.b.rows();
    const std::size_t n = problem.b.cols();
    const bool c2 = options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0);
    const auto append_word = [](std::string& key, std::uint64_t word) {
      for (int b = 0; b < 64; b += 8) {
        key.push_back(static_cast<char>((word >> b) & 0xff));
      }
    };
    const auto group_by_signature =
        [&](std::size_t count,
            const std::vector<std::vector<std::size_t>>& unobs,
            const auto& extra_words, std::vector<MaskGroup>& groups) {
          std::unordered_map<std::string, std::size_t> index;
          std::string key;
          for (std::size_t j = 0; j < count; ++j) {
            key.clear();
            extra_words(key, j);
            for (const std::size_t i : unobs[j]) {
              append_word(key, static_cast<std::uint64_t>(i));
            }
            const auto [it, inserted] =
                index.try_emplace(key, groups.size());
            if (inserted) groups.emplace_back();
            groups[it->second].members.push_back(j);
          }
        };
    group_by_signature(
        n, ctx.unobs_rows,
        [&](std::string& key, std::size_t j) {
          if (!c2) return;
          append_word(key, static_cast<std::uint64_t>(layout_.band_of(j)));
          const auto [w2c, w3c] = c2_curvature(w, j);
          append_word(key, std::bit_cast<std::uint64_t>(w2c));
          append_word(key, std::bit_cast<std::uint64_t>(w3c));
        },
        ctx.col_groups);
    // The L-update's Q gains per-row Theta curvature under Constraint 2,
    // which makes every row unique; group rows only when Q is mask-only.
    if (!c2) {
      group_by_signature(
          m, ctx.unobs_cols, [](std::string&, std::size_t) {},
          ctx.row_groups);
    }
  }
  // Ungrouped indices — every index without group_masks, and the
  // L-update's rows under Constraint 2 — are groups of one on the same
  // batched path.
  const auto fill_singletons = [](std::size_t count,
                                  std::vector<MaskGroup>& groups) {
    if (!groups.empty()) return;
    groups.resize(count);
    for (std::size_t j = 0; j < count; ++j) groups[j].members = {j};
  };
  fill_singletons(problem.b.cols(), ctx.col_groups);
  fill_singletons(problem.b.rows(), ctx.row_groups);
  // Largest groups first, so the lanes of one tile carry similar member
  // counts and few sit idle in the member rounds.  Every system writes
  // only its own output rows, so the order cannot change any bit.
  const auto by_size = [](const MaskGroup& a, const MaskGroup& b) {
    return a.members.size() > b.members.size();
  };
  std::stable_sort(ctx.col_groups.begin(), ctx.col_groups.end(), by_size);
  std::stable_sort(ctx.row_groups.begin(), ctx.row_groups.end(), by_size);

  // The per-tile unobserved unions and the right-hand-side coefficient
  // panels depend only on B, X_B, P, the weights and the groups.
  {
    const std::size_t m = problem.b.rows();
    const std::size_t n = problem.b.cols();
    ctx.col_unions = tile_unions(ctx.col_groups, ctx.unobs_rows, m);
    if (options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0)) {
      // The curvature scalars come from c2_curvature — the same helper the
      // mask-group signature encodes.
      constexpr std::size_t lw = linalg::kernels::kSpdLanes;
      const std::size_t tiles = (ctx.col_groups.size() + lw - 1) / lw;
      ctx.col_curvature.assign(tiles * 2 * lw, 0.0);
      for (std::size_t g = 0; g < ctx.col_groups.size(); ++g) {
        const auto [w2c, w3c] =
            c2_curvature(w, ctx.col_groups[g].members.front());
        double* tile = ctx.col_curvature.data() + (g / lw) * 2 * lw;
        tile[g % lw] = w2c;
        tile[lw + g % lw] = w3c;
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
    ctx.x_hat_prev.resize(l_hat.rows(), problem.b.cols());
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
  for (const MaskGroup& grp : ctx.col_groups) {
    if (grp.members.size() >= 2) {
      ++out.mask_groups;
      out.grouped_columns += grp.members.size();
    }
  }
  out.objective_history.reserve(options_.max_iters);
  double best_v = std::numeric_limits<double>::infinity();
  const double data_scale =
      std::max(linalg::frobenius_norm_sq(problem.x_b), 1.0);

  for (std::size_t it = 0; it < options_.max_iters; ++it) {
    update_r(problem, w, l_hat, r_hat, ctx);
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

    if (v <= best_v) {
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
    if (options_.converge_db > 0.0 && out.iterations >= 2 && v <= best_v &&
        within(ctx.x_hat, ctx.x_hat_prev, options_.converge_db)) {
      out.converged = true;
      break;
    }
    std::swap(ctx.x_hat, ctx.x_hat_prev);
  }

  if (out.l.empty()) {  // max_iters == 0 edge case
    out.l = l_hat;
    out.r = r_hat;
  }
  linalg::multiply_transposed_into(out.l, out.r, out.x_hat);
  return out;
}

}  // namespace iup::core
