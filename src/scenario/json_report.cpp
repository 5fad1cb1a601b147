#include "scenario/json_report.h"

#include <ostream>

#include "obs/sinks.h"
#include "sim/rng.h"
#include "util/json.h"

namespace plurality::scenario {

void write_params_object(util::json_writer& w, const scenario_params& p) {
    w.key("params").begin_object();
    w.key("n").value(p.n);
    w.key("k").value(p.k);
    w.key("workload").value(p.workload);
    w.key("bias").value(p.bias);
    w.key("dust").value(p.dust);
    w.key("fraction").value(p.fraction);
    w.key("zipf_s").value(p.zipf_s);
    w.key("sources").value(p.sources);
    w.key("time_budget").value(p.time_budget);
    w.end_object();
}

namespace {

void write_metrics(util::json_writer& w, const char* key, const std::vector<metric>& metrics) {
    w.key(key).begin_object();
    for (const auto& m : metrics) w.key(m.name).value(m.value);
    w.end_object();
}

}  // namespace

void write_json_report(std::ostream& os, const any_scenario& s, const scenario_params& params,
                       std::uint64_t base_seed, const scenario_run_result& result,
                       backend_kind backend) {
    util::json_writer w(os);
    w.begin_object();
    w.key("schema").value(json_report_schema);
    w.key("scenario").value(s.name());
    w.key("family").value(s.family());
    w.key("description").value(s.description());
    write_params_object(w, params);
    w.key("base_seed").value(base_seed);
    w.key("backend").value(backend_name(backend));

    w.key("trials").begin_array();
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        const auto& out = result.outcomes[i];
        w.begin_object();
        w.key("trial").value(static_cast<std::uint64_t>(i));
        w.key("seed").value(sim::derive_seed(base_seed, i));
        w.key("converged").value(out.converged);
        w.key("correct").value(out.correct);
        w.key("parallel_time").value(out.parallel_time);
        w.key("interactions").value(out.interactions);
        write_metrics(w, "metrics", out.metrics);
        w.end_object();
    }
    w.end_array();

    const auto& summary = result.summary;
    w.key("summary").begin_object();
    w.key("trials").value(static_cast<std::uint64_t>(summary.trials));
    w.key("converged").value(static_cast<std::uint64_t>(summary.converged));
    w.key("correct").value(static_cast<std::uint64_t>(summary.correct));
    w.key("success_rate").value(summary.success_rate());
    w.key("parallel_time").begin_object();
    w.key("mean").value(summary.time_stats.mean);
    w.key("stddev").value(summary.time_stats.stddev);
    w.key("min").value(summary.time_stats.min);
    w.key("max").value(summary.time_stats.max);
    w.key("median").value(summary.time_stats.median);
    w.end_object();
    w.key("total_interactions").value(summary.total_interactions);
    write_metrics(w, "mean_metrics", summary.mean_metrics);
    w.end_object();

    // Backend instrumentation, merged over all trials.  Count-valued
    // sections only: the timing half of the snapshot is quarantined in the
    // metrics sidecar (scenario/metrics_report.h) so this document stays a
    // pure function of (scenario, params, trials, base_seed, backend).
    // Omitted when the merged snapshot is empty (no trial ran).
    if (!summary.observed.empty()) {
        w.key("metrics").begin_object();
        obs::write_count_sections(w, summary.observed);
        w.end_object();
    }

    w.end_object();
}

}  // namespace plurality::scenario
