// Shared experiment scaffolding for the benchmark harness.
//
// The paper's evaluation repeats one pattern: build the ground-truth
// matrices of a room at the six time stamps, run the iUpdater pipeline
// against fresh survey data at each update stamp, and score reconstruction
// and/or localization.  This module owns that loop so every bench binary is
// a thin driver around the same code paths the examples and tests use.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "core/updater.hpp"
#include "eval/metrics.hpp"
#include "sim/fingerprint_builder.hpp"
#include "sim/sampler.hpp"
#include "sim/testbeds.hpp"

namespace iup::eval {

/// One room, fully prepared: testbed + ground truth at the paper's six
/// stamps + the no-decrease mask.
struct EnvironmentRun {
  sim::Testbed testbed;
  sim::GroundTruthSet ground_truth;
  linalg::Matrix b_mask;

  explicit EnvironmentRun(sim::Testbed tb);
};

/// Fresh measurement inputs for one update at `day`: X_B from baseline
/// surveys and X_R from visiting `reference_cells`, both with
/// `samples_per_location` averaging (paper: 5).
core::UpdateInputs collect_update_inputs(
    const EnvironmentRun& run, const std::vector<std::size_t>& reference_cells,
    std::size_t day, std::size_t samples_per_location = 5,
    const std::string& stream_tag = "update");

/// API v2 flavour: typed CellIds straight from Engine::reference_cells().
core::UpdateInputs collect_update_inputs(
    const EnvironmentRun& run, const std::vector<CellId>& reference_cells,
    std::size_t day, std::size_t samples_per_location = 5,
    const std::string& stream_tag = "update");

/// Engine flavour of collect_update_inputs: the same fresh measurements
/// wrapped as a batched-API request for `site` at `day`.
api::UpdateRequest collect_update_request(
    const EnvironmentRun& run, const std::string& site,
    const std::vector<std::size_t>& reference_cells, std::size_t day,
    std::size_t samples_per_location = 5,
    const std::string& stream_tag = "update");

/// API v2 flavour of collect_update_request (typed CellIds).
api::UpdateRequest collect_update_request(
    const EnvironmentRun& run, const std::string& site,
    const std::vector<CellId>& reference_cells, std::size_t day,
    std::size_t samples_per_location = 5,
    const std::string& stream_tag = "update");

/// Register `run` on an engine as `site` (day-0 survey + no-decrease
/// mask).
api::Result<api::SnapshotPtr> register_run(api::Engine& engine,
                                           const EnvironmentRun& run,
                                           const std::string& site);

/// Result of scoring one reconstruction against the ground truth.
struct ReconstructionScore {
  std::size_t day = 0;
  std::vector<double> abs_errors_db;  ///< over reconstructed entries
  double median_db = 0.0;
  double mean_db = 0.0;
};

ReconstructionScore score_reconstruction(const EnvironmentRun& run,
                                         const linalg::Matrix& x_hat,
                                         std::size_t day);

/// Which localizer to evaluate (shared with the service facade).
using LocalizerKind = api::LocalizerKind;

/// Localization errors [m] over every grid cell at `day`, using `database`
/// as the fingerprint matrix.  `trials` online measurements are drawn per
/// cell with `samples` readings each.
std::vector<double> localization_errors(
    const EnvironmentRun& run, const linalg::Matrix& database,
    LocalizerKind kind, std::size_t day, std::size_t samples = 3,
    std::size_t trials = 1, const std::string& stream_tag = "online");

/// Human-readable stamp label ("3 days", "3 months", ...).
std::string stamp_label(std::size_t day);

}  // namespace iup::eval
