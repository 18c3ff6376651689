// Householder QR factorisations.
//
// Two flavours are provided:
//  * plain QR, used by the OMP localizer's least-squares refits;
//  * column-pivoted (rank-revealing) QR, whose pivot order is the MIC
//    extraction's maximal independent column set (core/mic.hpp).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace iup::linalg {

struct QrResult {
  Matrix q;  ///< m x k with orthonormal columns (k = min(m, n))
  Matrix r;  ///< k x n upper triangular
};

/// Thin Householder QR: a = q * r.
QrResult qr(const Matrix& a);

struct QrcpResult {
  Matrix q;                       ///< m x k orthonormal
  Matrix r;                       ///< k x n upper triangular
  std::vector<std::size_t> perm;  ///< column permutation: a(:,perm) = q*r
  std::size_t rank = 0;           ///< numerical rank at the given tolerance
};

/// Column-pivoted QR; `rel_tol` is relative to the largest initial column
/// norm and controls the reported numerical rank.
QrcpResult qr_column_pivoted(const Matrix& a, double rel_tol = 1e-9);

/// Least squares: minimise ||a x - b||_2 for a tall full-column-rank a.
std::vector<double> least_squares(const Matrix& a, std::span<const double> b);

}  // namespace iup::linalg
