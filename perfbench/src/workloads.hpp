// The three perfbench workloads (README.md records why each exists).
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Each workload generates its inputs from the seed and runs its fixed
/// work once against fresh engines.  `traced == false` is the measured
/// run: it fills `report` with the end-to-end metrics.  `traced == true`
/// runs the same work with spans recorded around every layer call and
/// fills `report` with the per-layer metrics (plus the traced run's own
/// end-to-end figures, which run.py sets against an untraced process of
/// the same seed to report the tracing overhead).  Every operation and
/// invariant lands in `gate`.
void run_fleet_update(const Options& options, bool traced, Report& report,
                      Gate& gate);
void run_serve_under_update(const Options& options, bool traced,
                            Report& report, Gate& gate);
void run_stream_durable(const Options& options, bool traced, Report& report,
                        Gate& gate);

/// Write every tracer's spans as CSV to `<data_dir>/spans-<workload>.csv`.
void write_spans(const Options& options, const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
