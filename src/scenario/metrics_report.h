// The metrics sidecar the experiment CLI emits next to its main document
// (schema "plurality_metrics/1", `plurality_run --metrics FILE`):
//
// {
//   "schema": "plurality_metrics/1",
//   "scenario": "plurality/ordered",
//   "family": "plurality",
//   "params": { ... },               // same block as the main document
//   "base_seed": 42,
//   "backend": "agent" | "census" | "leap",
//   "trials": 100,
//   "deterministic": {               // byte-identical across --threads:
//     "counters": { ... },           // pure function of (scenario, params,
//     "gauges": { ... },             // trials, base_seed, backend)
//     "histograms": { ... }
//   },
//   "timing": {                      // wall-clock: varies run to run
//     "phase_seconds": { ... },      // per-phase timers (leap)
//     "trial_wall_seconds_total": ...,
//     "wall_seconds": ...,           // whole-batch wall time
//     "threads": ...,
//     "thread_utilization": ...
//   }
// }
//
// The split is the point: consumers diff the "deterministic" object across
// machines and thread counts to validate reproductions, and read "timing"
// for performance work.  The main document (scenario/json_report.h) embeds
// only the deterministic half; everything wall-clock-valued lives here and
// nowhere else.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace plurality::scenario {

inline constexpr const char* metrics_report_schema = "plurality_metrics/1";

/// Writes the full metrics sidecar for one CLI invocation.
void write_metrics_report(std::ostream& os, const any_scenario& s, const scenario_params& params,
                          std::uint64_t base_seed, const scenario_run_result& result,
                          backend_kind backend);

/// Writes the same content as a Prometheus text exposition
/// (`plurality_run --metrics-prom FILE`), labelled with the scenario name
/// and backend.  Count-valued samples and timers alike — the determinism
/// split is a JSON-document concern; scrape targets want everything.
void write_prometheus_report(std::ostream& os, const any_scenario& s,
                             const scenario_run_result& result, backend_kind backend);

}  // namespace plurality::scenario
