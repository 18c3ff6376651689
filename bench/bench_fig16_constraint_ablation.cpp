// Fig. 16 — Claim 2: adding Constraint 1 (the MIC correlation) and then
// Constraint 2 (continuity + similarity) to the basic RSVD reduces the
// reconstruction error step by step.
//
// Extension ablations beyond the paper (see the repair comment at the top
// of core/self_augmented.cpp and the README's "Repairs to the published
// Algorithm 1"): the published per-column curvature ("literal") vs. our
// Gauss-Seidel repair, and the G-matrix midpoint redefinition
// (core/constraints.hpp) on/off.
#include "bench_common.hpp"

#include "core/constraints.hpp"
#include "core/lrr.hpp"
#include "core/mic.hpp"
#include "core/self_augmented.hpp"

namespace {

using namespace iup;

struct Setup {
  const eval::EnvironmentRun& run;
  core::MicResult mic;
  linalg::Matrix z;
  core::BandLayout layout;
};

double reconstruct_error(const Setup& s, std::size_t day,
                         const core::RsvdOptions& opt) {
  const auto inputs =
      eval::collect_update_inputs(s.run, s.mic.reference_cells, day);
  const core::SelfAugmentedRsvd solver(s.layout, opt);
  core::RsvdProblem p;
  p.x_b = inputs.x_b;
  p.b = s.run.b_mask;
  if (opt.use_constraint1) p.p = inputs.x_r * s.z;
  const auto result = solver.solve(p);
  return eval::score_reconstruction(s.run, result.x_hat, day).mean_db;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 16: constraint ablation (basic RSVD / +C1 / +C1+C2)",
      "errors drop significantly with Constraint 1 and further with "
      "Constraint 2, at all five stamps");

  eval::EnvironmentRun run(sim::make_office_testbed());
  const auto& x0 = run.ground_truth.at_day(0);
  Setup s{run, core::extract_mic(x0), {}, core::band_layout_of(x0)};
  s.z = core::solve_lrr(s.mic.x_mic, x0).z;

  core::RsvdOptions rsvd_only;
  rsvd_only.use_constraint1 = false;
  rsvd_only.use_constraint2 = false;
  core::RsvdOptions with_c1 = rsvd_only;
  with_c1.use_constraint1 = true;
  core::RsvdOptions with_c1c2 = with_c1;
  with_c1c2.use_constraint2 = true;

  eval::Table table({"method", "3 days", "5 days", "15 days", "45 days",
                     "3 months"});
  const auto sweep = [&](const std::string& label,
                         const core::RsvdOptions& opt) {
    std::vector<double> means;
    for (std::size_t day : sim::paper_update_stamps()) {
      means.push_back(reconstruct_error(s, day, opt));
    }
    table.add_row(label, means);
  };
  sweep("RSVD", rsvd_only);
  sweep("RSVD + Constraint 1", with_c1);
  sweep("RSVD + Constraint 1 + Constraint 2", with_c1c2);
  std::printf("mean reconstruction error [dB]:\n%s", table.render().c_str());
  std::printf("paper: the three curves are strictly ordered with "
              "+C1+C2 lowest at every stamp\n\n");

  // --- extension ablations ---------------------------------------------
  eval::Table ext({"variant", "45 days"});
  core::RsvdOptions literal = with_c1c2;
  literal.c2_mode = core::Constraint2Mode::kPaperLiteral;
  literal.w_continuity = 0.01;  // the literal curvature is pure shrinkage
  literal.w_similarity = 0.01;  // and only tolerates tiny weights
  ext.add_row("C2 Gauss-Seidel (default)",
              {reconstruct_error(s, 45, with_c1c2)});
  ext.add_row("C2 paper-literal (w=0.01)",
              {reconstruct_error(s, 45, literal)});
  core::RsvdOptions autos = with_c1c2;
  autos.auto_scale = true;
  ext.add_row("auto-scaled weights (paper Sec. IV-E)",
              {reconstruct_error(s, 45, autos)});
  std::printf("extension ablation (not in the paper):\n%s",
              ext.render().c_str());
  return 0;
}
