// The machine-readable result document the experiment CLI emits
// (schema "plurality_run/1"):
//
// {
//   "schema": "plurality_run/1",
//   "scenario": "plurality/ordered",
//   "family": "plurality",
//   "params": { "n": ..., "k": ..., "workload": "...", ... },
//   "base_seed": 42,
//   "backend": "agent" | "census",
//   "trials": [
//     { "trial": 0, "seed": ..., "converged": true, "correct": true,
//       "parallel_time": ..., "interactions": ..., "metrics": { ... } },
//     ...
//   ],
//   "summary": {
//     "trials": ..., "converged": ..., "correct": ..., "success_rate": ...,
//     "parallel_time": { "mean": ..., "stddev": ..., "min": ..., "max": ...,
//                        "median": ... },
//     "total_interactions": ..., "mean_metrics": { ... }
//   },
//   "metrics": {               // backend instrumentation (src/obs/), merged
//     "counters": { ... },     // over all trials; count-valued samples only.
//     "gauges": { ... },       // Absent when no trial ran.
//     "histograms": { ... }
//   }
// }
//
// Deliberately excluded: thread count, wall-clock time, hostnames — the
// document is a function of (scenario, params, trials, base_seed, backend)
// only, so equal seeds produce byte-identical files at any --threads.  The
// backend IS recorded: it changes the random streams (and therefore the
// per-trial numbers), so two documents that differ only in backend must not
// look interchangeable.  Phase timers and wall-clock measurements live in
// the *metrics sidecar* (scenario/metrics_report.h, --metrics), never here.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace plurality::util {
class json_writer;
}

namespace plurality::scenario {

inline constexpr const char* json_report_schema = "plurality_run/1";

/// Writes the full result document for one CLI invocation.
void write_json_report(std::ostream& os, const any_scenario& s, const scenario_params& params,
                       std::uint64_t base_seed, const scenario_run_result& result,
                       backend_kind backend = backend_kind::agent);

/// Writes `"params": { ... }` into the writer's current object — shared
/// between the main document and the metrics sidecar so the two always spell
/// the parameter block identically.
void write_params_object(util::json_writer& w, const scenario_params& params);

}  // namespace plurality::scenario
