// Orthogonal Matching Pursuit localizer — Section V of the paper.
//
// The paper models localization as y = X_hat * W + noise with a 0/1 sparse
// location vector W (Eq. 26) and recovers W greedily by OMP (Eq. 27),
// stopping when the residual drops below xi.
//
// Practical detail: raw dBm fingerprint columns are dominated by the
// per-link baseline level and are therefore nearly collinear, which blunts
// the greedy correlation step.  Like compressive-sensing DFL systems
// built on the same formulation [18], we match in the *perturbation*
// domain by default: the measured (or estimated) no-target baseline is
// subtracted from y and from every column, turning fingerprints into
// sparse attenuation signatures.  Set `subtract_baseline = false` for the
// raw-domain variant; both are exercised in tests and benches.
#pragma once

#include <optional>

#include "loc/localizer.hpp"

namespace iup::loc {

struct OmpOptions {
  std::size_t max_atoms = 3;  ///< sparsity budget (1 target + slack atoms)
  double residual_xi = 1e-3;  ///< stop threshold on ||y - X w||_2^2 (Eq. 27),
                              ///< relative to ||y||_2^2
  bool subtract_baseline = true;
  /// Also remove the across-link mean from the matching domain.
  /// Differential signatures are immune to common-mode interference *and*
  /// to common-mode drift — which makes even a stale database usable and
  /// would mask the staleness effect the paper evaluates (Figs. 21/22).
  /// Off by default to stay faithful to the paper's raw-RSS matching
  /// (Eq. 26); turn on for deployments that prefer drift tolerance over
  /// absolute fidelity.
  bool remove_common_mode = false;
};

class OmpLocalizer final : public Localizer {
 public:
  /// `database` is the fingerprint matrix (M x N).  `baselines` holds the
  /// per-link no-target RSS used for perturbation-domain matching; pass an
  /// empty vector to derive it from the database's no-decrease entries
  /// (per-row median).
  OmpLocalizer(linalg::Matrix database, std::vector<double> baselines,
               OmpOptions options = {});

  LocalizationEstimate localize(
      std::span<const double> measurement) const override;

  std::string name() const override { return "OMP"; }

  /// Full OMP solve: the sparse weight vector (support + coefficients);
  /// exposed for the multi-target extension and for tests.
  ///
  /// Cost per greedy atom: one kernels::dot_panel pass over the row-major
  /// M x N dictionary scores every column (M * N multiply-adds, no column
  /// copies), then a Householder refit of the k selected atoms
  /// (O(M k^2)) in a linalg::QrWorkspace.  All scratch is allocated once
  /// per query for min(max_atoms, N) atoms, so a query makes a fixed
  /// number of heap allocations whatever N and the atom count.
  struct SparseSolution {
    std::vector<std::size_t> support;
    std::vector<double> coefficients;
    double residual_norm = 0.0;
  };
  SparseSolution solve(std::span<const double> measurement) const;

  const linalg::Matrix& database() const { return database_; }
  const std::vector<double>& baselines() const { return baselines_; }

 private:
  linalg::Matrix database_;         ///< raw fingerprints
  linalg::Matrix dictionary_;       ///< matching-domain columns (normalised)
  linalg::Matrix atoms_;            ///< matching-domain columns (raw scale)
  std::vector<double> baselines_;
  OmpOptions options_;
};

}  // namespace iup::loc
