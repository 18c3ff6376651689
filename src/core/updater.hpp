// The iUpdater pipeline (Fig. 10): shared pieces of the four modules.
//
//  1. Inherent Correlation Acquisition — MIC extraction from the original
//     (or latest updated) fingerprint matrix (core/mic.hpp), then the LRR
//     solve for Z (core/lrr.hpp).
//  2. Reconstruction Data Collection — the caller supplies fresh X_B
//     (no-decrease matrix, no labor) and X_R (reference-location survey,
//     the only labor-cost measurements).
//  3. Fingerprint Matrix Reconstruction — self-augmented RSVD.
//  4. Target Localization — see loc/ (OMP) which consumes the result.
//
// The pipeline's service entry point is iup::api::Engine
// (src/api/engine.hpp): versioned snapshots, Status-based error handling,
// batched updates and warm-start caches.  What remains here is the
// update-input value type every layer shares.
#pragma once

#include <vector>

#include "base/ids.hpp"
#include "linalg/matrix.hpp"

namespace iup::core {

struct UpdateInputs {
  linalg::Matrix x_b;  ///< M x N no-decrease measurements (zeros elsewhere)
  linalg::Matrix x_r;  ///< M x n fresh reference-location survey (Eq. 13)
  /// Per-link source provenance of the measurement campaign (one entry
  /// per row of x_b / x_r), empty when unattributed.  The numeric core
  /// ignores it; api::Engine rejects inputs whose provenance disagrees
  /// with the site's registered source table.
  std::vector<SourceInfo> sources;
};

}  // namespace iup::core
