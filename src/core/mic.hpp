// Maximum-independent-column (MIC) extraction and reference-location
// selection (Section IV-B).
//
// The paper selects as reference locations the grid cells whose fingerprint
// columns form a maximum independent column set; the count equals the
// matrix rank (= M for the paper's testbeds), which is why only 8 of 94
// locations need a fresh labor-cost survey.
//
// Two numerical realisations are provided:
//  * kRref  — Gauss-Jordan elimination, pivot columns of the reduced
//             echelon form.  Literal reading of the paper ("elementary
//             column transformation; first nonzero element of each row").
//  * kQrcp  — rank-revealing column-pivoted QR, which greedily picks the
//             best-conditioned independent set.  Same rank, same
//             independence guarantee, markedly better conditioning of
//             X_MIC on noisy data; this is the default.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace iup::core {

enum class MicStrategy { kRref, kQrcp };

struct MicResult {
  std::vector<std::size_t> reference_cells;  ///< selected column indices
  linalg::Matrix x_mic;                      ///< M x n matrix of MIC columns
  std::size_t rank = 0;                      ///< numerical rank found
};

/// Extract the MIC set of `x`.  `rel_tol` is the relative rank tolerance.
MicResult extract_mic(const linalg::Matrix& x,
                      MicStrategy strategy = MicStrategy::kQrcp,
                      double rel_tol = 1e-8);

/// Build an X_MIC matrix for an explicit set of reference cells (used by
/// the Fig. 14 benchmark to evaluate 7 / 8+1 / 11-random reference sets).
MicResult mic_from_cells(const linalg::Matrix& x,
                         const std::vector<std::size_t>& cells);

}  // namespace iup::core
