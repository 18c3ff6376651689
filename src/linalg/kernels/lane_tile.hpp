// Lane-tile kernels: build and combine kSpdLanes small systems at once in
// the interleaved layout of spd_factor_lanes.
//
// Layouts (W = L::kWidth lanes, one system per lane):
//  * a tile holds W n x n systems, element (a, b) of lane l at
//    tile[(a * n + b) * W + l]; the kernels that write a tile touch its
//    diagonal and strict upper triangle only (b >= a);
//  * a lane vector of length n holds element k of lane l at v[k * W + l],
//    and a lane panel of r x k holds element (i, c) at
//    p[(i * k + c) * W + l].
//
// Every kernel is written once over the level's lane-vector ops `L`
// (scalar::Lanes, avx2::Lanes, avx512::Lanes) and defaults to the active
// level.  L::fma is that level's axpy element op, so each lane's element
// receives exactly the op chain a per-system build through axpy_sequence
// applies to it: the same terms, in the same order, with the same
// zero-skips.  `active` masks (bit l = lane l) leave the other lanes'
// elements untouched.
#pragma once

#include <algorithm>
#include <cstddef>

namespace iup::linalg::kernels {

/// tile(a, b) = seed[a * n + b] in the lanes of `active`, the identity in
/// the others (b >= a).
template <class L = active::Lanes>
void tile_seed(double* tile, std::size_t n, const double* seed,
               unsigned active) {
  constexpr std::size_t w = L::kWidth;
  const bool full = active == (1u << w) - 1u;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      double* e = tile + (a * n + b) * w;
      if (full) {
        L::store(e, L::set1(seed[a * n + b]));
        continue;
      }
      const double idle = a == b ? 1.0 : 0.0;
      for (std::size_t l = 0; l < w; ++l) {
        e[l] = (active >> l) & 1u ? seed[a * n + b] : idle;
      }
    }
  }
}

/// One tile of downdated systems, built in one pass.  Per element (a, b),
/// b >= a, and per lane, in this order:
///  1. the seed: seed[a * n + b] in the lanes of `active`, the identity in
///     the others (tile_seed);
///  2. rank-1 downdates over a union of rows: for t ascending, in the
///     lanes of lanes[t], += (-x_t[a]) * x_t[b] with x_t the row idx[t] of
///     the row-major `x` (leading dimension ldx), skipped where x_t[a] is
///     zero.  A lane whose own row set is ascending sees its rows in
///     order, so it gets the per-system chain of those downdates;
///  3. when `shared` is not null, += alpha * shared[a * n + b] in the
///     lanes of `active` (tile_axpy_shared);
///  4. for k in [0, rank1s), += coef_k * v[a] * v[b] with coef_k the lane
///     vector coef + k * W and v one of length n, in the lanes where
///     coef_k * v[a] is nonzero (tile_rank1_lanes).
/// Each tile row is built in blocks of up to eight elements held in
/// registers through all four steps, and every element is stored once.
template <class L = active::Lanes>
void tile_build_union(double* tile, std::size_t n, const double* seed,
                      unsigned active, const double* x, std::size_t ldx,
                      const std::size_t* idx, const unsigned* lanes,
                      std::size_t count, double alpha, const double* shared,
                      const double* coef, std::size_t rank1s,
                      const double* v) {
  constexpr std::size_t w = L::kWidth;
  constexpr std::size_t kBlock = 8;
  using Vec = typename L::Vec;
  // A partial tile seeds through memory (its idle lanes differ); a full
  // one broadcasts the seed straight into the registers.
  const bool full = active == (1u << w) - 1u;
  if (!full) tile_seed<L>(tile, n, seed, active);
  const auto live = L::mask(active);
  const auto va = L::set1(alpha);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b0 = a; b0 < n; b0 += kBlock) {
      const std::size_t len = std::min(kBlock, n - b0);
      double* e = tile + (a * n + b0) * w;
      Vec acc[kBlock] = {};
#pragma GCC unroll 8
      for (std::size_t k = 0; k < kBlock; ++k) {
        if (k < len) {
          acc[k] = full ? L::set1(seed[a * n + b0 + k]) : L::load(e + k * w);
        }
      }
      for (std::size_t t = 0; t < count; ++t) {
        const double* xt = x + idx[t] * ldx;
        if (xt[a] == 0.0) continue;
        const auto m = L::mask(lanes[t]);
        const Vec neg = L::set1(-xt[a]);
#pragma GCC unroll 8
        for (std::size_t k = 0; k < kBlock; ++k) {
          if (k < len) acc[k] = L::fma_if(m, neg, L::set1(xt[b0 + k]), acc[k]);
        }
      }
      if (shared != nullptr) {
        const double* sh = shared + a * n + b0;
#pragma GCC unroll 8
        for (std::size_t k = 0; k < kBlock; ++k) {
          if (k < len) acc[k] = L::fma_if(live, va, L::set1(sh[k]), acc[k]);
        }
      }
      for (std::size_t r = 0; r < rank1s; ++r) {
        const auto ra = L::mul(L::load(coef + r * w), L::load(v + a * w));
        const auto m = L::mask(L::nonzero(ra));
#pragma GCC unroll 8
        for (std::size_t k = 0; k < kBlock; ++k) {
          if (k < len) {
            acc[k] = L::fma_if(m, ra, L::load(v + (b0 + k) * w), acc[k]);
          }
        }
      }
#pragma GCC unroll 8
      for (std::size_t k = 0; k < kBlock; ++k) {
        if (k < len) L::store(e + k * w, acc[k]);
      }
    }
  }
}

/// Lane `lane` of a tile = the diagonal and upper triangle of the
/// row-major n x n matrix q.
template <class L = active::Lanes>
void tile_set_lane(double* tile, std::size_t n, std::size_t lane,
                   const double* q) {
  constexpr std::size_t w = L::kWidth;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      tile[(a * n + b) * w + lane] = q[a * n + b];
    }
  }
}

/// tile(a, b) += alpha * m[a * n + b] in the lanes of `active`: one
/// matrix term shared by every lane.
template <class L = active::Lanes>
void tile_axpy_shared(double* tile, std::size_t n, double alpha,
                      const double* m, unsigned active) {
  constexpr std::size_t w = L::kWidth;
  const auto mask = L::mask(active);
  const auto va = L::set1(alpha);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      double* e = tile + (a * n + b) * w;
      L::store(e, L::fma_if(mask, va, L::set1(m[a * n + b]), L::load(e)));
    }
  }
}

/// tile(a, b) += coef * mt(a, b) in the lanes of `active`, coef a lane
/// vector of length 1 and mt a tile: one matrix term per lane.
template <class L = active::Lanes>
void tile_axpy_lanes(double* tile, std::size_t n, const double* coef,
                     const double* mt, unsigned active) {
  constexpr std::size_t w = L::kWidth;
  const auto mask = L::mask(active);
  const auto vc = L::load(coef);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a; b < n; ++b) {
      const std::size_t e = (a * n + b) * w;
      L::store(tile + e,
               L::fma_if(mask, vc, L::load(mt + e), L::load(tile + e)));
    }
  }
}

/// One rank-1 term per lane: alpha = coef * v[a] (coef a lane vector of
/// length 1, v one of length n), and tile(a, b) += alpha * v[b] in the
/// lanes where alpha is nonzero.  Lanes whose v is zero are untouched.
template <class L = active::Lanes>
void tile_rank1_lanes(double* tile, std::size_t n, const double* coef,
                      const double* v) {
  constexpr std::size_t w = L::kWidth;
  const auto vc = L::load(coef);
  for (std::size_t a = 0; a < n; ++a) {
    const auto alpha = L::mul(vc, L::load(v + a * w));
    const auto mask = L::mask(L::nonzero(alpha));
    for (std::size_t b = a; b < n; ++b) {
      double* e = tile + (a * n + b) * w;
      L::store(e, L::fma_if(mask, alpha, L::load(v + b * w), L::load(e)));
    }
  }
}

/// out = A * B per lane, A a rows x inner row-major matrix shared by
/// every lane and B an inner x k lane panel: out(i, c) accumulates
/// A(i, u) * B(u, c) from zero over u ascending, skipping A(i, u) == 0 —
/// per lane the chain of linalg::multiply_into.  Each run of up to eight
/// elements of an output row stays in registers across the whole sum.
template <class L = active::Lanes>
void lanes_matmul_shared(const double* a, std::size_t rows, std::size_t inner,
                         const double* b, std::size_t k, double* out) {
  constexpr std::size_t w = L::kWidth;
  constexpr std::size_t kBlock = 8;
  using Vec = typename L::Vec;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c0 = 0; c0 < k; c0 += kBlock) {
      const std::size_t len = std::min(kBlock, k - c0);
      Vec acc[kBlock];
#pragma GCC unroll 8
      for (std::size_t c = 0; c < kBlock; ++c) acc[c] = L::set1(0.0);
      for (std::size_t u = 0; u < inner; ++u) {
        const double aiu = a[i * inner + u];
        if (aiu == 0.0) continue;
        const auto va = L::set1(aiu);
        const double* bu = b + (u * k + c0) * w;
#pragma GCC unroll 8
        for (std::size_t c = 0; c < kBlock; ++c) {
          if (c < len) acc[c] = L::fma(va, L::load(bu + c * w), acc[c]);
        }
      }
      double* e = out + (i * k + c0) * w;
#pragma GCC unroll 8
      for (std::size_t c = 0; c < kBlock; ++c) {
        if (c < len) L::store(e + c * w, acc[c]);
      }
    }
  }
}

/// Upper triangle of the Gram matrix of each lane's rows x k panel:
/// out(p, q), q >= p, accumulates A(i, p) * A(i, q) from zero over i
/// ascending, skipping the lanes where A(i, p) == 0 — per lane the chain
/// of linalg::gram_into.  `out` is a k x k tile.  Each run of up to eight
/// elements of an output row stays in registers across all rows of A.
template <class L = active::Lanes>
void lanes_gram_upper(const double* a, std::size_t rows, std::size_t k,
                      double* out) {
  constexpr std::size_t w = L::kWidth;
  constexpr std::size_t kBlock = 8;
  using Vec = typename L::Vec;
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t q0 = p; q0 < k; q0 += kBlock) {
      const std::size_t len = std::min(kBlock, k - q0);
      Vec acc[kBlock];
#pragma GCC unroll 8
      for (std::size_t c = 0; c < kBlock; ++c) acc[c] = L::set1(0.0);
      for (std::size_t i = 0; i < rows; ++i) {
        const double* ai = a + i * k * w;
        const auto aip = L::load(ai + p * w);
        const auto mask = L::mask(L::nonzero(aip));
#pragma GCC unroll 8
        for (std::size_t c = 0; c < kBlock; ++c) {
          if (c < len) {
            acc[c] = L::fma_if(mask, aip, L::load(ai + (q0 + c) * w), acc[c]);
          }
        }
      }
      double* e = out + (p * k + q0) * w;
#pragma GCC unroll 8
      for (std::size_t c = 0; c < kBlock; ++c) {
        if (c < len) L::store(e + c * w, acc[c]);
      }
    }
  }
}

/// out[c] = sum over u ascending of coef[u] * A(u, c), from zero, per
/// lane (coef a lane vector of length rows, A a rows x k lane panel, out a
/// lane vector of length k) — per lane the chain of an axpy_sequence into
/// a zeroed row.
template <class L = active::Lanes>
void lanes_gemv(const double* coef, const double* a, std::size_t rows,
                std::size_t k, double* out) {
  constexpr std::size_t w = L::kWidth;
  constexpr std::size_t kBlock = 8;
  using Vec = typename L::Vec;
  for (std::size_t c0 = 0; c0 < k; c0 += kBlock) {
    const std::size_t len = std::min(kBlock, k - c0);
    Vec acc[kBlock];
#pragma GCC unroll 8
    for (std::size_t c = 0; c < kBlock; ++c) acc[c] = L::set1(0.0);
    for (std::size_t u = 0; u < rows; ++u) {
      const auto vc = L::load(coef + u * w);
      const double* au = a + (u * k + c0) * w;
#pragma GCC unroll 8
      for (std::size_t c = 0; c < kBlock; ++c) {
        if (c < len) acc[c] = L::fma(vc, L::load(au + c * w), acc[c]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t c = 0; c < kBlock; ++c) {
      if (c < len) L::store(out + (c0 + c) * w, acc[c]);
    }
  }
}

}  // namespace iup::linalg::kernels
