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

// Two index repairs relative to the published Algorithm 1 (documented in
// DESIGN.md Sec. 5):
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
// L-update writes only its own output row, the workspace is overwritten
// from scratch per index, and each mask-group member's solve is
// bit-identical to its per-column solve.
namespace iup::core {

namespace {

// theta_j columns are stored as rows of R; these helpers keep the algebra
// readable.
//
// The normal matrices Q are symmetric, so the outer-product accumulation
// only fills the upper triangle (half the flops of the dense update);
// symmetrize_lower() mirrors it once per solve.  The mirrored Q is exactly
// symmetric and fully deterministic; it may differ from a dense
// two-triangle accumulation at ulp level, because a weighted lower entry
// would round as (w*v[b])*v[a] rather than the mirrored (w*v[a])*v[b].
// The suffix axpys run through the SIMD kernel layer (linalg/kernels/).
void add_outer(linalg::Matrix& q, std::span<const double> v, double weight) {
  linalg::kernels::add_outer_upper(weight, v.data(), v.size(),
                                   q.data().data(), q.cols());
}

void symmetrize_lower(linalg::Matrix& q) {
  const std::size_t n = q.rows();
  for (std::size_t a = 1; a < n; ++a) {
    for (std::size_t b = 0; b < a; ++b) q(a, b) = q(b, a);
  }
}

double row_norm_sq(const linalg::Matrix& m, std::size_t row) {
  const auto r = m.row_span(row);
  return linalg::kernels::norm_sq(r.data(), r.size());
}

}  // namespace

/// One batch of sweep indices whose normal matrix Q is identical (the
/// mask-grouping invariant, self_augmented.hpp): Q is built and factored
/// once from members.front() and every member solves as one RHS column of
/// a shared panel.
struct MaskGroup {
  std::vector<std::size_t> members;  ///< ascending column / row indices
};

/// Sweep scratch.  Everything is overwritten from scratch for every index,
/// so reuse across indices (and across sweeps) cannot leak state.
struct Workspace {
  linalg::Matrix q;         ///< rr x rr normal-equation matrix
  std::vector<double> diag;  ///< rr, solve_spd_into retry scratch
  // Mask-group scratch: the rr x k multi-RHS block of one group, the
  // dot_panel reduction scratch of its back substitution, and a Q copy
  // for the (rare) per-column LU-fallback replay.
  linalg::Matrix panel;      ///< rr x k RHS panel of one mask group
  std::vector<double> dots;  ///< k, solve_factored_spd_multi scratch
  linalg::Matrix q_retry;    ///< group fallback: per-column solve replay
  // L-update Constraint-2 scratch (Theta_i stored transposed: row u of
  // theta_t is the factor of band cell (i, u) — a contiguous copy of a row
  // of R instead of a strided column write).
  linalg::Matrix theta_t;  ///< slots x rr
  linalg::Matrix tg;       ///< slots x rr: G^T Theta^T
  linalg::Matrix gbuf;     ///< rr x rr: (Theta G)(Theta G)^T
  linalg::Matrix ttt;      ///< rr x rr: Theta Theta^T
  std::vector<double> neighbor_sum;  ///< slots
  std::vector<double> contrib;       ///< rr
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
  // so the observed/unobserved index sets per column (R-update) and per
  // row (L-update) are scanned exactly once.  With the realistic dense
  // masks of the no-decrease matrix (~80% observed) seeding Q with
  // lambda*I + L^T L and SUBTRACTING the few unobserved outer products
  // replaces ~dense-many rank-1 updates by ~(1-density)-many.
  std::vector<std::vector<std::size_t>> obs_rows;    ///< per column j
  std::vector<std::vector<std::size_t>> unobs_rows;  ///< per column j
  std::vector<std::vector<std::size_t>> obs_cols;    ///< per row i
  std::vector<std::vector<std::size_t>> unobs_cols;  ///< per row i
  // Mask groups, built once per solve when RsvdOptions::group_masks (the
  // grouping depends only on B, the layout and the constraint weights —
  // all fixed across sweeps).  Empty vectors select the ungrouped sweep.
  std::vector<MaskGroup> col_groups;  ///< R-update (grid columns)
  std::vector<MaskGroup> row_groups;  ///< L-update; only when Q is
                                      ///< mask-only (Constraint 2 inactive)
  // Sweep outputs (double-buffered against l_hat / r_hat in solve()).
  linalg::Matrix r_next;
  linalg::Matrix l_next;
  // Objective scratch.
  linalg::Matrix x_hat;
  linalg::Matrix xd_obj;
  linalg::Matrix xdg_obj;
  linalg::Matrix hxd_obj;
  Workspace ws;
};

namespace {

/// Solve one mask group against `out`'s member rows (which already hold
/// the right-hand sides): Q is built once from the representative member,
/// factored once, and every member solves as one column of a shared RHS
/// panel.  Size-1 groups and failed factorisations take the exact
/// per-column solve_spd_into path, so grouped results are bit-identical
/// to the ungrouped sweep in every case.  (SpdStats granularity is the
/// one observable difference: a shared factorisation counts its bump
/// recovery once per group instead of once per member, and the
/// LU-fallback replay below adds one group-level failure on top of the
/// per-member ladders.)
template <typename BuildQ>
void solve_mask_group(const MaskGroup& grp, Workspace& ws,
                      linalg::Matrix& out, const BuildQ& build_q) {
  build_q(ws.q, grp.members.front());
  if (grp.members.size() == 1) {
    linalg::solve_spd_into(ws.q, out.row_span(grp.members.front()), ws.diag);
    return;
  }
  if (!linalg::factor_spd(ws.q, ws.diag)) {
    // Rare indefinite Q: factor_spd restored ws.q to the symmetrised
    // unbumped input, so replaying solve_spd_into per member (on a copy —
    // it destroys its matrix) reproduces the ungrouped retry ladder and
    // LU fallback bit for bit.  (SpdStats on this path: the group-level
    // attempt above counted one extra failure, then every member replay
    // counts its own ladder — k members report k+1 failures vs the
    // ungrouped sweep's k.)
    for (const std::size_t j : grp.members) {
      ws.q_retry = ws.q;
      linalg::solve_spd_into(ws.q_retry, out.row_span(j), ws.diag);
    }
    return;
  }
  const std::size_t n = ws.q.rows();
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
  linalg::multiply_transposed_into(l, r, ctx.x_hat);  // X_hat = L R^T
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
  const std::size_t m = l.rows();
  const std::size_t rr = l.cols();
  const std::size_t n = problem.b.cols();
  const bool c2 = options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0);
  const bool gauss_seidel =
      options_.c2_mode == Constraint2Mode::kGaussSeidel;

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

  ctx.r_next.resize(n, rr);

  // Q for column j — the exact op sequence of the historical per-column
  // loop (the mask-grouping invariant relies on identical inputs plus an
  // identical sequence producing identical bits).  Data term in
  // complement form: Q = (lambda*I + L^T L) minus the unobserved rows'
  // outer products, instead of lambda*I plus the observed ones — far
  // fewer rank-1 updates on realistic dense masks, identical curvature
  // up to rounding.
  const auto build_q = [&](linalg::Matrix& q, std::size_t j) {
    std::copy(ctx.lql.data().begin(), ctx.lql.data().end(),
              q.data().begin());
    for (const std::size_t i : ctx.unobs_rows[j]) {
      add_outer(q, l.row_span(i), -1.0);
    }
    // Constraint 1: w1 ||L theta - p_j||^2 over all links.
    if (w.w1 > 0.0) linalg::add_scaled(q, w.w1, ctx.ltl);
    // Constraint 2: only the band entry (ii, jj) of column j is a
    // largely-decrease element.  The curvature scalars come from
    // c2_curvature — the same helper the mask-group signature encodes.
    if (c2) {
      const auto l_band = l.row_span(layout_.band_of(j));
      const auto [w2c, w3c] = c2_curvature(w, j);
      if (w.w2 > 0.0) add_outer(q, l_band, w2c);
      if (w.w3 > 0.0) add_outer(q, l_band, w3c);
    }
    symmetrize_lower(q);
  };

  // Constraint-2 Gauss-Seidel cross terms of column j, appended AFTER the
  // data / Constraint-1 axpys by both RHS builders below (the fused panel
  // builder and the per-column one), so the per-column accumulation order
  // can never differ between them.
  const auto append_rhs_c2 = [&](std::size_t j) {
    const auto c = ctx.r_next.row_span(j);
    const std::size_t ii = layout_.band_of(j);
    const std::size_t jj = layout_.slot_of(j);
    const auto l_band = l.row_span(ii);
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
      linalg::axpy(-w.w2 * cross, l_band, c);
    }
    if (w.w3 > 0.0) {
      double neighbor_sum = 0.0;
      if (ii > 0) neighbor_sum += ctx.xd_cur(ii - 1, jj);
      if (ii + 1 < layout_.links) neighbor_sum += ctx.xd_cur(ii + 1, jj);
      linalg::axpy(w.w3 * neighbor_sum, l_band, c);
    }
  };

  // Right-hand side of column j, built directly in the output row so the
  // in-place solve lands the solution there without a copy.
  const auto build_rhs = [&](std::size_t j) {
    const auto c = ctx.r_next.row_span(j);
    std::fill(c.begin(), c.end(), 0.0);
    for (const std::size_t i : ctx.obs_rows[j]) {
      linalg::axpy(problem.x_b(i, j), l.row_span(i), c);
    }
    if (w.w1 > 0.0) {
      for (std::size_t i = 0; i < m; ++i) {
        linalg::axpy(w.w1 * problem.p(i, j), l.row_span(i), c);
      }
    }
    if (c2 && gauss_seidel) append_rhs_c2(j);
  };

  // Fused RHS construction of one mask group (ROADMAP 4a): the group
  // signature fixes the unobserved row set, hence its complement — every
  // member walks the SAME observed index list.  Walk it once, loading each
  // L row once per group instead of once per member, and feed all member
  // columns from it.  Per member the accumulation order is unchanged
  // (data axpys in ascending i, then the Constraint-1 axpys in ascending
  // i, then the Constraint-2 cross terms), so every member's RHS is
  // bit-identical to build_rhs above.
  const auto build_rhs_group = [&](const MaskGroup& grp) {
    for (const std::size_t j : grp.members) {
      const auto c = ctx.r_next.row_span(j);
      std::fill(c.begin(), c.end(), 0.0);
    }
    for (const std::size_t i : ctx.obs_rows[grp.members.front()]) {
      const auto li = l.row_span(i);
      for (const std::size_t j : grp.members) {
        linalg::axpy(problem.x_b(i, j), li, ctx.r_next.row_span(j));
      }
    }
    if (w.w1 > 0.0) {
      for (std::size_t i = 0; i < m; ++i) {
        const auto li = l.row_span(i);
        for (const std::size_t j : grp.members) {
          linalg::axpy(w.w1 * problem.p(i, j), li, ctx.r_next.row_span(j));
        }
      }
    }
    if (c2 && gauss_seidel) {
      for (const std::size_t j : grp.members) append_rhs_c2(j);
    }
  };

  Workspace& ws = ctx.ws;
  ws.q.resize(rr, rr);
  ws.diag.resize(rr);
  if (ctx.col_groups.empty()) {
    // Ungrouped sweep: one Q + one solve per column.
    for (std::size_t j = 0; j < n; ++j) {
      build_q(ws.q, j);
      build_rhs(j);
      linalg::solve_spd_into(ws.q, ctx.r_next.row_span(j), ws.diag);
    }
    return;
  }

  // Mask-grouped sweep: a group's members share one factored Q.
  for (const MaskGroup& grp : ctx.col_groups) {
    build_rhs_group(grp);
    solve_mask_group(grp, ws, ctx.r_next, build_q);
  }
}

void SelfAugmentedRsvd::update_l(const RsvdProblem& problem, const Weights& w,
                                 const linalg::Matrix& l_prev,
                                 const linalg::Matrix& r,
                                 SweepContext& ctx) const {
  const std::size_t m = problem.b.rows();
  const std::size_t rr = r.cols();
  const std::size_t n = r.rows();
  const bool c2 = options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0);
  const bool gauss_seidel =
      options_.c2_mode == Constraint2Mode::kGaussSeidel;

  linalg::gram_into(r, ctx.rtr);
  ctx.rql = ctx.rtr;
  for (std::size_t a = 0; a < rr; ++a) ctx.rql(a, a) += options_.lambda;

  // Current X_D (from l_prev and the fresh r) for the similarity cross
  // terms; the continuity term is exactly quadratic per row and needs no
  // cross terms.
  if (c2) {
    ctx.xd_cur.resize(layout_.links, layout_.slots);
    for (std::size_t i = 0; i < layout_.links; ++i) {
      for (std::size_t u = 0; u < layout_.slots; ++u) {
        ctx.xd_cur(i, u) = linalg::dot(l_prev.row_span(i),
                                       r.row_span(layout_.cell(i, u)));
      }
    }
  }

  ctx.l_next.resize(m, rr);

  // Q and RHS for row i, data + Constraint-1 terms only (complement-form
  // data term, mirroring update_r) — shared verbatim by the grouped and
  // ungrouped paths below so they cannot drift apart.  The Q stream stops
  // before the Constraint-2 curvature: the ungrouped loop appends it, the
  // grouped path (mask-only Q by construction) symmetrizes directly.
  const auto build_q_base = [&](linalg::Matrix& q, std::size_t i) {
    std::copy(ctx.rql.data().begin(), ctx.rql.data().end(),
              q.data().begin());
    for (const std::size_t j : ctx.unobs_cols[i]) {
      add_outer(q, r.row_span(j), -1.0);
    }
    if (w.w1 > 0.0) linalg::add_scaled(q, w.w1, ctx.rtr);
  };
  const auto build_rhs_base = [&](std::size_t i) {
    const auto c = ctx.l_next.row_span(i);
    std::fill(c.begin(), c.end(), 0.0);
    for (const std::size_t j : ctx.obs_cols[i]) {
      linalg::axpy(problem.x_b(i, j), r.row_span(j), c);
    }
    if (w.w1 > 0.0) {
      for (std::size_t j = 0; j < n; ++j) {
        linalg::axpy(w.w1 * problem.p(i, j), r.row_span(j), c);
      }
    }
  };

  // Fused RHS construction of one row group, mirroring the R-update's
  // build_rhs_group: all member rows share the observed column set, so one
  // walk over it (and over the Constraint-1 columns) feeds every member,
  // loading each R row once per group.  Per-member accumulation order is
  // identical to build_rhs_base, so the fused panel is bit-identical.
  const auto build_rhs_group = [&](const MaskGroup& grp) {
    for (const std::size_t i : grp.members) {
      const auto c = ctx.l_next.row_span(i);
      std::fill(c.begin(), c.end(), 0.0);
    }
    for (const std::size_t j : ctx.obs_cols[grp.members.front()]) {
      const auto rj = r.row_span(j);
      for (const std::size_t i : grp.members) {
        linalg::axpy(problem.x_b(i, j), rj, ctx.l_next.row_span(i));
      }
    }
    if (w.w1 > 0.0) {
      for (std::size_t j = 0; j < n; ++j) {
        const auto rj = r.row_span(j);
        for (const std::size_t i : grp.members) {
          linalg::axpy(w.w1 * problem.p(i, j), rj, ctx.l_next.row_span(i));
        }
      }
    }
  };

  Workspace& ws = ctx.ws;
  ws.q.resize(rr, rr);
  ws.diag.resize(rr);
  if (!ctx.row_groups.empty()) {
    // Mask-grouped L-update.  Only reached when Constraint 2 is inactive
    // (solve() builds row_groups for mask-only Q), so Q is exactly
    // (lambda*I + R^T R) minus the unobserved columns' outer products
    // plus the optional Constraint-1 curvature — identical for rows
    // sharing an unobserved set.
    const auto build_q = [&](linalg::Matrix& q, std::size_t i) {
      build_q_base(q, i);
      symmetrize_lower(q);
    };
    for (const MaskGroup& grp : ctx.row_groups) {
      build_rhs_group(grp);
      solve_mask_group(grp, ws, ctx.l_next, build_q);
    }
    return;
  }

  if (c2) {
    ws.theta_t.resize(layout_.slots, rr);
    ws.neighbor_sum.resize(layout_.slots);
    ws.contrib.resize(rr);
  }
  for (std::size_t i = 0; i < m; ++i) {
    linalg::Matrix& q = ws.q;
    build_q_base(q, i);
    build_rhs_base(i);
    const auto c = ctx.l_next.row_span(i);

    if (c2) {
      // Theta_i stored transposed: row u of theta_t is the factor of
      // band cell (i, u) — one contiguous copy per slot.
      for (std::size_t u = 0; u < layout_.slots; ++u) {
        r.copy_row_into(layout_.cell(i, u), ws.theta_t.row_span(u));
      }
      if (w.w2 > 0.0) {
        if (gauss_seidel) {
          // Row i of X_D*G is (l_i Theta_i) G: exactly quadratic in l_i
          // with curvature (Theta G)(Theta G)^T = gram(G^T Theta^T).
          linalg::multiply_into(g_t_, ws.theta_t, ws.tg);
          linalg::gram_into(ws.tg, ws.gbuf);
          linalg::add_scaled(q, w.w2, ws.gbuf);
        } else {
          for (std::size_t u = 0; u < layout_.slots; ++u) {
            add_outer(q, ws.theta_t.row_span(u),
                      w.w2 * row_norm_sq(g_, u));
          }
        }
      }
      if (w.w3 > 0.0) {
        linalg::gram_into(ws.theta_t, ws.ttt);  // Theta Theta^T
        if (gauss_seidel) {
          double count = 0.0;
          std::fill(ws.neighbor_sum.begin(), ws.neighbor_sum.end(), 0.0);
          if (i > 0) {
            count += 1.0;
            for (std::size_t u = 0; u < layout_.slots; ++u) {
              ws.neighbor_sum[u] += ctx.xd_cur(i - 1, u);
            }
          }
          if (i + 1 < layout_.links) {
            count += 1.0;
            for (std::size_t u = 0; u < layout_.slots; ++u) {
              ws.neighbor_sum[u] += ctx.xd_cur(i + 1, u);
            }
          }
          linalg::add_scaled(q, w.w3 * count, ws.ttt);
          // contrib = Theta * neighbor_sum, accumulated row by row of
          // theta_t (same ascending-u order as the dense product).
          std::fill(ws.contrib.begin(), ws.contrib.end(), 0.0);
          for (std::size_t u = 0; u < layout_.slots; ++u) {
            linalg::axpy(ws.neighbor_sum[u], ws.theta_t.row_span(u),
                         ws.contrib);
          }
          linalg::axpy(w.w3, ws.contrib, c);
        } else {
          const double h_col_sq = i + 1 < layout_.links ? 2.0 : 1.0;
          linalg::add_scaled(q, w.w3 * h_col_sq, ws.ttt);
        }
      }
    }

    symmetrize_lower(q);
    linalg::solve_spd_into(q, c, ws.diag);
  }
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
    ctx.obs_rows.assign(n, {});
    ctx.unobs_rows.assign(n, {});
    ctx.obs_cols.assign(m, {});
    ctx.unobs_cols.assign(m, {});
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (problem.b(i, j) != 0.0) {
          ctx.obs_rows[j].push_back(i);
          ctx.obs_cols[i].push_back(j);
        } else {
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

  RsvdResult out;
  for (const MaskGroup& grp : ctx.col_groups) {
    if (grp.members.size() >= 2) {
      ++out.mask_groups;
      out.grouped_columns += grp.members.size();
    }
  }
  double best_v = std::numeric_limits<double>::infinity();
  double v_initial = -1.0;
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
    if (v_initial < 0.0) v_initial = std::max(v, 1e-12);

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
      // Opt-in early stop (RsvdOptions::stagnation_tol): end the solve
      // once a sweep still improves the objective but by less than the
      // tolerance.  A transient increase (possible under kPaperLiteral's
      // cross-term-free curvature) is NOT stagnation — keep sweeping and
      // let the best_v tracking hold the best iterate.  Off by default —
      // the full max_iters trajectory is the paper's.
      if (options_.stagnation_tol > 0.0 && prev >= v &&
          prev - v <=
              options_.stagnation_tol * std::max(std::abs(prev), 1.0)) {
        out.stagnated = true;
        break;
      }
    }
  }

  if (out.l.empty()) {  // max_iters == 0 edge case
    out.l = l_hat;
    out.r = r_hat;
  }
  linalg::multiply_transposed_into(out.l, out.r, out.x_hat);
  return out;
}

}  // namespace iup::core
