// LU factorisation with partial pivoting, linear solves and inverses.
//
// Algorithm 1's per-column systems (Eq. 24) and the LRR Z-update's
// (I + A^T A) are SPD and solve through linalg/cholesky.hpp; LU is the
// fallback solve_spd_into pays for when a system turns out indefinite
// even after the diagonal-bump retries, and the general-purpose solver
// for everything else.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace iup::linalg {

struct LuResult {
  Matrix lu;                      ///< packed L (unit lower) and U factors
  std::vector<std::size_t> perm;  ///< row permutation applied to the input
  int sign = 1;                   ///< permutation parity (for determinants)
  bool singular = false;          ///< true when a zero pivot was hit
};

/// Factor a square matrix: P a = L U.
LuResult lu_decompose(const Matrix& a);

/// Solve a x = b using a precomputed factorisation.
std::vector<double> lu_solve(const LuResult& f, std::span<const double> b);

/// Solve a x = b (square, non-singular; throws on singular input).
std::vector<double> solve(const Matrix& a, std::span<const double> b);

/// Solve a X = B column-by-column.
Matrix solve(const Matrix& a, const Matrix& b);

/// Matrix inverse (throws on singular input).
Matrix inverse(const Matrix& a);

/// Determinant via LU.
double determinant(const Matrix& a);

}  // namespace iup::linalg
