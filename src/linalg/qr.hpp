// Householder QR factorisations.
//
// Two flavours are provided:
//  * plain QR, used by the OMP localizer's least-squares refits;
//  * column-pivoted (rank-revealing) QR, whose pivot order is the MIC
//    extraction's maximal independent column set (core/mic.hpp).
//
// Plain QR has one implementation, qr_into, which factors into a
// caller-owned QrWorkspace.  qr() and least_squares() are allocating
// wrappers over it (and least_squares over least_squares_into), the way
// operator* wraps multiply_into, so every entry point runs the same op
// sequence and the pairs are bit-identical by construction.  The OMP
// localizer refits through least_squares_into with one workspace per
// query, so its refits stop allocating once the workspace has grown.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace iup::linalg {

struct QrResult {
  Matrix q;  ///< m x k with orthonormal columns (k = min(m, n))
  Matrix r;  ///< k x n upper triangular
};

/// Scratch of qr_into / least_squares_into.  Every buffer is resized
/// (capacity-reusing) per call, so a workspace reused for systems of the
/// same or a smaller shape never touches the heap again.
struct QrWorkspace {
  Matrix r;           ///< m x n; rows [0, k) hold R on and above the diagonal
  Matrix q;           ///< m x k thin Q
  Matrix reflectors;  ///< k x m; row j is Householder vector j (zero before j)
  std::vector<double> betas;  ///< k reflector scales 2 / ||v_j||^2
  std::vector<double> qtb;    ///< Q^T b (least_squares_into only)

  /// Grow every buffer for systems up to m x n up front.
  void reserve(std::size_t m, std::size_t n);
};

/// Thin Householder QR of a (m x n, k = min(m, n)) into ws.r and ws.q:
/// a = ws.q * R, where R is the upper triangle of ws.r's first k rows
/// (the entries below the diagonal are numerical dust, not zeros).
void qr_into(const Matrix& a, QrWorkspace& ws);

/// Thin Householder QR: a = q * r (qr_into, with R's lower part zeroed).
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
/// Throws std::invalid_argument when a is underdetermined or b's length
/// differs from a.rows(), std::runtime_error when R has a zero pivot.
std::vector<double> least_squares(const Matrix& a, std::span<const double> b);

/// least_squares writing x (length a.cols()) through the workspace: the
/// same checks, throws and bits, and no allocation once ws has grown.
void least_squares_into(const Matrix& a, std::span<const double> b,
                        QrWorkspace& ws, std::span<double> x);

}  // namespace iup::linalg
