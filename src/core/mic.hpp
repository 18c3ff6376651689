// Maximum-independent-column (MIC) extraction and reference-location
// selection (Section IV-B).
//
// The paper selects as reference locations the grid cells whose fingerprint
// columns form a maximum independent column set; the count equals the
// matrix rank (= M for the paper's testbeds), which is why only 8 of 94
// locations need a fresh labor-cost survey.
//
// The set is found by rank-revealing column-pivoted QR, which greedily
// picks the best-conditioned independent columns: the count is the
// numerical rank, and X_MIC stays well conditioned on noisy data.  The
// paper's literal procedure ("elementary column transformation; first
// nonzero element of each row") is Gauss-Jordan elimination, which finds
// an independent set of the same size with worse conditioning.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace iup::core {

struct MicResult {
  std::vector<std::size_t> reference_cells;  ///< selected column indices
  linalg::Matrix x_mic;                      ///< M x n matrix of MIC columns
  std::size_t rank = 0;                      ///< numerical rank found
};

/// Extract the MIC set of `x`, sorted by column index.  `rel_tol` is the
/// relative rank tolerance.
MicResult extract_mic(const linalg::Matrix& x, double rel_tol = 1e-8);

/// Build an X_MIC matrix for an explicit set of reference cells (used by
/// the Fig. 14 benchmark to evaluate 7 / 8+1 / 11-random reference sets).
MicResult mic_from_cells(const linalg::Matrix& x,
                         const std::vector<std::size_t>& cells);

}  // namespace iup::core
