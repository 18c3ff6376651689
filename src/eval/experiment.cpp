#include "eval/experiment.hpp"

#include <stdexcept>

namespace iup::eval {

EnvironmentRun::EnvironmentRun(sim::Testbed tb)
    : testbed(std::move(tb)),
      ground_truth(sim::collect_ground_truth(testbed, sim::paper_time_stamps())),
      b_mask(sim::no_decrease_mask(testbed)) {}

core::UpdateInputs collect_update_inputs(
    const EnvironmentRun& run, const std::vector<std::size_t>& reference_cells,
    std::size_t day, std::size_t samples_per_location,
    const std::string& stream_tag) {
  // The stream tag keys the sampler's RNG so repeated collections at the
  // same day see independent noise (as repeated real surveys would).
  sim::Sampler sampler(run.testbed,
                       stream_tag + "-day" + std::to_string(day));
  core::UpdateInputs inputs;
  const auto& original = run.ground_truth.at_day(0);
  const auto& original_baselines = run.ground_truth.baselines_at_day(0);
  inputs.x_b = sim::measure_no_decrease_matrix(
      sampler, run.b_mask, day, samples_per_location, &original,
      &original_baselines);
  inputs.x_r = sim::measure_reference_matrix(sampler, reference_cells, day,
                                             samples_per_location);
  return inputs;
}

core::UpdateInputs collect_update_inputs(
    const EnvironmentRun& run, const std::vector<CellId>& reference_cells,
    std::size_t day, std::size_t samples_per_location,
    const std::string& stream_tag) {
  return collect_update_inputs(run, to_raw_cells(reference_cells), day,
                               samples_per_location, stream_tag);
}

ReconstructionScore score_reconstruction(const EnvironmentRun& run,
                                         const linalg::Matrix& x_hat,
                                         std::size_t day) {
  ReconstructionScore score;
  score.day = day;
  score.abs_errors_db = reconstruction_errors_db(
      x_hat, run.ground_truth.at_day(day), run.b_mask, /*mask_value=*/0.0);
  score.median_db = median_of(score.abs_errors_db);
  score.mean_db = mean_of(score.abs_errors_db);
  return score;
}

api::UpdateRequest collect_update_request(
    const EnvironmentRun& run, const std::string& site,
    const std::vector<std::size_t>& reference_cells, std::size_t day,
    std::size_t samples_per_location, const std::string& stream_tag) {
  api::UpdateRequest request;
  request.site = site;
  request.inputs = collect_update_inputs(run, reference_cells, day,
                                         samples_per_location, stream_tag);
  request.day = day;
  return request;
}

api::UpdateRequest collect_update_request(
    const EnvironmentRun& run, const std::string& site,
    const std::vector<CellId>& reference_cells, std::size_t day,
    std::size_t samples_per_location, const std::string& stream_tag) {
  return collect_update_request(run, site, to_raw_cells(reference_cells), day,
                                samples_per_location, stream_tag);
}

api::Result<api::SnapshotPtr> register_run(api::Engine& engine,
                                           const EnvironmentRun& run,
                                           const std::string& site) {
  return engine.register_site(site, run.ground_truth.at_day(0), run.b_mask);
}

std::vector<double> localization_errors(const EnvironmentRun& run,
                                        const linalg::Matrix& database,
                                        LocalizerKind kind, std::size_t day,
                                        std::size_t samples,
                                        std::size_t trials,
                                        const std::string& stream_tag) {
  const sim::Deployment& dep = run.testbed.deployment();
  const std::unique_ptr<loc::Localizer> localizer =
      api::make_localizer(kind, database, &dep);
  if (localizer == nullptr) {
    throw std::invalid_argument("localization_errors: unsupported localizer");
  }

  sim::Sampler sampler(run.testbed,
                       stream_tag + "-day" + std::to_string(day));
  std::vector<std::vector<double>> queries;
  std::vector<std::size_t> true_cells;
  queries.reserve(dep.num_cells() * trials);
  true_cells.reserve(dep.num_cells() * trials);
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t j = 0; j < dep.num_cells(); ++j) {
      queries.push_back(sampler.online_measurement(j, day, samples));
      true_cells.push_back(j);
    }
  }

  const auto estimates = localizer->localize_batch(queries);
  std::vector<double> errors;
  errors.reserve(estimates.size());
  for (std::size_t k = 0; k < estimates.size(); ++k) {
    errors.push_back(localization_error_m(dep, true_cells[k],
                                          estimates[k].cell));
  }
  return errors;
}

std::string stamp_label(std::size_t day) {
  switch (day) {
    case 0:
      return "original";
    case 90:
      return "3 months";
    default:
      return std::to_string(day) + " days";
  }
}

}  // namespace iup::eval
