// perfbench_probe — the benchmark's traced run.
//
// Part 1 drives one workload's trials through the library's public calls,
// with a span around each call:
//
//   scenario_registry::find → trial_executor::map (one any_scenario::run
//   span per trial) → summarize_outcomes → write_json_report →
//   write_metrics_report
//
// and writes the same report and metrics sidecar the plurality_run CLI
// would, so run.py can check them byte for byte against an untraced CLI
// run.  Part 2 times each layer from outside through its public functions
// (the layer probes), on inputs taken from the benchmark's workloads: the
// ordered-plurality population at n = 10⁴, the ordered-plurality and 3-state
// majority censuses at n = 10⁹, and the ~80-state tournament census one
// ordered-leap trial ends in.
//
//   perfbench_probe --scenario NAME [scenario flags as for plurality_run]
//                   --backend B --trials T --threads J --seed S
//                   --out-dir DIR --run-id ID
//
// Writes DIR/report.json, DIR/metrics.json, DIR/spans.json and
// DIR/layers.json (per-layer metrics, one flat object).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/census_encoding.h"
#include "core/config.h"
#include "core/plurality_protocol.h"
#include "majority/three_state.h"
#include "obs/catalogue.h"
#include "scenario/json_report.h"
#include "scenario/metrics_report.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/convergence.h"
#include "sim/delta_outcomes.h"
#include "sim/leap_census_simulator.h"
#include "sim/random_dist.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"
#include "span_trace.h"
#include "util/json.h"

namespace {

using namespace plurality;
using perfbench::span_recorder;

/// Keeps a computed value alive so the timed loop producing it is not
/// optimized away.
template <class T>
void keep(const T& value) {
    asm volatile("" : : "g"(&value) : "memory");
}

/// Runs `fn` inside a span; returns the span's id.
template <class Fn>
std::int64_t timed(span_recorder& rec, std::string name, std::int64_t parent, Fn&& fn) {
    const auto id = rec.open(std::move(name), parent);
    fn();
    rec.close(id);
    return id;
}

/// Layer metrics in insertion order.
using layer_metrics = std::vector<std::pair<std::string, double>>;

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

[[noreturn]] void fail(const std::string& what) {
    std::fprintf(stderr, "perfbench_probe: %s\n", what.c_str());
    std::exit(2);
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
    if (!out) fail("cannot write " + path);
}

// -- part 1: the traced workload ---------------------------------------------

struct options {
    std::string scenario;
    scenario::scenario_params params;
    scenario::backend_kind backend = scenario::backend_kind::agent;
    std::size_t trials = 1;
    std::size_t threads = 1;
    std::uint64_t seed = 1;
    std::string out_dir = ".";
    std::string run_id = "run";
};

options parse(int argc, char** argv) {
    options opt;
    for (int i = 1; i < argc; ++i) {
        switch (scenario::parse_param_flag(opt.params, argc, argv, i)) {
            case scenario::flag_parse::consumed: continue;
            case scenario::flag_parse::missing_value: fail("missing flag value");
            case scenario::flag_parse::not_mine: break;
        }
        const std::string arg = argv[i];
        if (i + 1 >= argc) fail("missing value for " + arg);
        const char* value = argv[++i];
        if (arg == "--scenario") {
            opt.scenario = value;
        } else if (arg == "--backend") {
            const auto backend = scenario::parse_backend(value);
            if (!backend) fail(std::string("unknown backend ") + value);
            opt.backend = *backend;
        } else if (arg == "--trials") {
            opt.trials = std::strtoul(value, nullptr, 10);
        } else if (arg == "--threads") {
            opt.threads = std::strtoul(value, nullptr, 10);
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--out-dir") {
            opt.out_dir = value;
        } else if (arg == "--run-id") {
            opt.run_id = value;
        } else {
            fail("unknown argument " + arg);
        }
    }
    if (opt.scenario.empty()) fail("--scenario is required");
    return opt;
}

struct timed_outcome {
    scenario::scenario_outcome outcome;
    double start = 0.0;
    double end = 0.0;
};

/// Runs the workload with a span per library call, writes its report and
/// sidecar, and returns the metrics of the scenario, executor and
/// convergence layers.
layer_metrics traced_workload(const options& opt, span_recorder& rec) {
    const auto root = rec.open("workload");
    const scenario::any_scenario* s = nullptr;
    timed(rec, "scenario_registry::find", root,
          [&] { s = scenario::scenario_registry::instance().find(opt.scenario); });
    if (s == nullptr) fail("unknown scenario " + opt.scenario);

    const sim::trial_executor executor{opt.threads};
    std::vector<timed_outcome> trials;
    const auto map_span = timed(rec, "trial_executor::map", root, [&] {
        trials = executor.map(opt.trials, opt.seed, [&](std::uint64_t trial_seed) {
            timed_outcome t;
            t.start = rec.now();
            t.outcome = s->run(opt.params, trial_seed, opt.backend);
            t.end = rec.now();
            return t;
        });
    });

    scenario::scenario_run_result result;
    std::vector<double> trial_seconds;
    std::vector<std::pair<double, double>> trial_intervals;
    std::vector<double> parallel_times;
    double trial_total = 0.0;
    for (auto& t : trials) {
        rec.add("any_scenario::run", map_span, t.start, t.end);
        trial_seconds.push_back(t.end - t.start);
        trial_total += t.end - t.start;
        trial_intervals.emplace_back(t.start, t.end);
        parallel_times.push_back(t.outcome.parallel_time);
        result.outcomes.push_back(std::move(t.outcome));
    }
    timed(rec, "summarize_outcomes", root,
          [&] { result.summary = scenario::summarize_outcomes(result.outcomes); });
    // The execution-level fields run_scenario_trials fills in.
    const double map_seconds = rec.duration(map_span);
    result.wall_seconds = map_seconds;
    result.threads = std::max<std::size_t>(1, executor.threads());
    if (map_seconds > 0.0) {
        result.thread_utilization = result.summary.trial_wall_seconds_total /
                                    (map_seconds * static_cast<double>(result.threads));
    }

    std::ostringstream doc;
    const auto report_span = timed(rec, "write_json_report", root, [&] {
        scenario::write_json_report(doc, *s, opt.params, opt.seed, result, opt.backend);
    });
    std::ostringstream sidecar;
    timed(rec, "write_metrics_report", root, [&] {
        scenario::write_metrics_report(sidecar, *s, opt.params, opt.seed, result, opt.backend);
    });
    rec.close(root);
    write_file(opt.out_dir + "/report.json", doc.str());
    write_file(opt.out_dir + "/metrics.json", sidecar.str());

    const auto& root_span = rec.spans()[static_cast<std::size_t>(root)];
    const double trials_covered =
        span_recorder::covered(trial_intervals, root_span.start, root_span.end);
    return {
        {"trace.traced_wall_s", rec.duration(root)},
        {"scenario.trial_s", median(trial_seconds)},
        {"scenario.overhead_s", rec.duration(root) - trials_covered},
        {"scenario.json_report_s", rec.duration(report_span)},
        {"scenario.json_report_bytes", static_cast<double>(doc.str().size())},
        {"executor.thread_utilization",
         map_seconds > 0.0 ? trial_total / (map_seconds * static_cast<double>(result.threads))
                           : 0.0},
        {"convergence.parallel_time_p50", median(parallel_times)},
    };
}

// -- part 2: layer probes --------------------------------------------------------
//
// The workload parameters below mirror perfbench/run.py's WORKLOADS table.

constexpr std::uint32_t agent_n = 10'000;          // ordered-agent
constexpr std::uint32_t census_n = 1'000'000'000;  // ordered-leap, majority-leap
constexpr std::uint32_t plurality_k = 4;
constexpr double ordered_leap_budget = 0.5;  // ordered-leap's --time-budget
constexpr std::uint32_t majority_bias = 10'000'000;
/// Majority-leap converges after ~37-42 parallel-time units; 40 units cover
/// the bulk of it and, on most seeds, the absorbed-census fast path.
constexpr double majority_probe_time = 40.0;
/// Mid-run point of ordered-agent (convergence at ~6200 units).
constexpr std::uint64_t agent_probe_interactions = 3000ull * agent_n;

struct ordered_setup {
    core::plurality_protocol protocol;
    workload::opinion_distribution dist;
};

/// The ordered-plurality protocol and opinion instance a workload trial
/// builds from its setup stream.
ordered_setup make_ordered(std::uint32_t n, sim::rng& setup) {
    scenario::scenario_params p;
    p.n = n;
    p.k = plurality_k;
    p.workload = "bias1";
    p.bias = 1;
    auto dist = scenario::make_workload(p, setup);
    const auto cfg =
        core::protocol_config::make(core::algorithm_mode::ordered, dist.n(), dist.k());
    return {core::plurality_protocol{cfg}, std::move(dist)};
}

/// Census image of the ordered-plurality initial population: every agent a
/// collector holding one token of its opinion, as the registered scenario
/// builds it.
std::vector<sim::census_entry<core::core_agent>> ordered_census(
    const workload::opinion_distribution& dist) {
    std::vector<sim::census_entry<core::core_agent>> entries;
    for (std::uint32_t opinion = 1; opinion <= dist.k(); ++opinion) {
        core::core_agent a;
        a.opinion = opinion;
        a.tokens = 1;
        a.role = core::agent_role::collector;
        a.stage = core::lifecycle_stage::init;
        entries.push_back({a, dist.support_of(opinion)});
    }
    return entries;
}

/// Census of the 3-state majority workload: (n - bias)/2 minority agents,
/// bias more on the majority side, the parity leftover undecided.
std::vector<sim::census_entry<majority::three_state_agent>> majority_census() {
    using enum majority::binary_opinion;
    const std::uint64_t minus = (census_n - majority_bias) / 2;
    const std::uint64_t plus = minus + majority_bias;
    return {{{alpha}, plus}, {{beta}, minus}, {{undecided}, census_n - plus - minus}};
}

std::uint64_t counter(const obs::snapshot& snap, const char* name) {
    const auto* s = snap.find(name);
    return s == nullptr ? 0 : s->value;
}

double share(std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// The leap layer's metrics for one probe run that took `seconds`.
void leap_metrics(layer_metrics& out, const std::string& prefix, const obs::snapshot& snap,
                  double seconds) {
    const std::uint64_t interactions = counter(snap, obs::m_interactions);
    const std::uint64_t runs = counter(snap, obs::m_runs);
    const std::uint64_t hits = counter(snap, obs::m_table_hits);
    const auto* hist = snap.find(obs::m_run_length);
    out.emplace_back(prefix + "interactions_per_s", static_cast<double>(interactions) / seconds);
    out.emplace_back(prefix + "run_us", share(1, runs) * seconds * 1e6);
    out.emplace_back(prefix + "runs", static_cast<double>(runs));
    out.emplace_back(prefix + "run_length_mean",
                     hist == nullptr ? 0.0 : share(hist->sum, hist->count));
    out.emplace_back(prefix + "occupied_states_hwm",
                     static_cast<double>(counter(snap, obs::m_occupied_hwm)));
    out.emplace_back(prefix + "delta_grouped_share",
                     share(counter(snap, obs::m_delta_grouped), interactions));
    out.emplace_back(prefix + "delta_fallback_share",
                     share(counter(snap, obs::m_delta_fallback), interactions));
    out.emplace_back(prefix + "absorbed_share",
                     share(counter(snap, obs::m_absorbed_fastpath), interactions));
    out.emplace_back(prefix + "outcome_table_hit_ratio",
                     share(hits, hits + counter(snap, obs::m_table_misses)));
}

layer_metrics layer_probes(std::uint64_t seed, span_recorder& rec) {
    layer_metrics out;
    const auto root = rec.open("layer_probes");
    const std::uint64_t probe_seed = sim::derive_seed(seed, 0x9e7be);
    const std::uint64_t run_seed = sim::derive_seed(probe_seed, scenario::scenario_run_stream);
    const auto per_op = [&rec](std::int64_t span, double ops, double unit) {
        return rec.duration(span) * unit / ops;
    };

    // sim.trial_executor: map over no-op tasks at the many-small fan-out.
    {
        constexpr std::size_t tasks = 200'000;
        const sim::trial_executor executor{
            std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()))};
        const auto span = timed(rec, "trial_executor::map(no-op)", root, [&] {
            keep(executor.map(tasks, probe_seed, [](std::uint64_t x) { return x; }));
        });
        out.emplace_back("executor.dispatch_ns", per_op(span, tasks, 1e9));
    }

    // sim.agent: simulation::run_for on the ordered-agent population, to
    // mid-run.
    sim::rng agent_setup(sim::derive_seed(probe_seed, scenario::scenario_setup_stream));
    auto ordered = make_ordered(agent_n, agent_setup);
    sim::simulation<core::plurality_protocol> agent_sim{
        ordered.protocol,
        core::plurality_protocol::make_population(ordered.protocol.config(), ordered.dist,
                                                  agent_setup),
        run_seed};
    {
        const auto span = timed(rec, "simulation::run_for", root,
                                [&] { agent_sim.run_for(agent_probe_interactions); });
        out.emplace_back("agent.interactions_per_s",
                         per_op(span, 1.0, static_cast<double>(agent_probe_interactions)));
    }

    // core: plurality_protocol::interact alone, on a pair stream recorded
    // from the mid-run population (no scheduler cost).  Median of three
    // passes, each on a fresh copy of the population.
    {
        constexpr std::size_t pairs = 4'000'000;
        sim::rng pair_gen(sim::derive_seed(probe_seed, 1));
        std::vector<sim::interaction_pair> stream(pairs);
        for (auto& p : stream) p = sim::sample_pair(pair_gen, agent_n);
        std::vector<double> passes;
        for (int pass = 0; pass < 3; ++pass) {
            std::vector<core::core_agent> agents(agent_sim.agents().begin(),
                                                 agent_sim.agents().end());
            sim::rng gen(sim::derive_seed(probe_seed, 2));
            const auto span = timed(rec, "plurality_protocol::interact", root, [&] {
                for (const auto& p : stream) {
                    ordered.protocol.interact(agents[p.initiator], agents[p.responder], gen);
                }
                keep(agents);
            });
            passes.push_back(per_op(span, pairs, 1e9));
        }
        out.emplace_back("core.delta_ns", median(passes));
    }

    // sim.rng: raw xoshiro256** words.
    {
        constexpr std::uint64_t words = 50'000'000;
        sim::rng gen(probe_seed);
        const auto span = timed(rec, "rng::next", root, [&] {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < words; ++i) acc ^= gen.next();
            keep(acc);
        });
        out.emplace_back("rng.word_ns", per_op(span, words, 1e9));
    }

    // sim.leap on the ordered-leap workload: one trial's protocol, census and
    // interaction budget.  Its final census feeds the enumeration and
    // 80-state sampler probes.
    sim::rng census_setup(sim::derive_seed(probe_seed, scenario::scenario_setup_stream));
    const auto ordered_big = make_ordered(census_n, census_setup);
    sim::leap_census_simulator<core::plurality_protocol, core::core_census_codec> ordered_leap{
        ordered_big.protocol, ordered_census(ordered_big.dist), run_seed};
    obs::snapshot ordered_snap;
    {
        const auto span = timed(rec, "leap_census_simulator::run_for(ordered)", root, [&] {
            ordered_leap.run_for(sim::interaction_budget(ordered_leap_budget, census_n));
        });
        ordered_leap.collect_metrics(ordered_snap);
        leap_metrics(out, "leap.ordered.", ordered_snap, rec.duration(span));
    }
    std::vector<core::core_agent> tournament_states;
    std::vector<std::uint64_t> tournament_counts;
    ordered_leap.visit_states([&](const core::core_agent& a, std::uint64_t count) {
        tournament_states.push_back(a);
        tournament_counts.push_back(count);
        return true;
    });

    // sim.leap on the majority-leap workload; its mid-run census feeds the
    // 3-state sampler probe.
    sim::leap_census_simulator<majority::three_state_protocol, majority::three_state_census_codec>
        majority_leap{majority::three_state_protocol{}, majority_census(), run_seed};
    std::vector<std::uint64_t> majority_counts;
    {
        const std::uint64_t half = sim::interaction_budget(majority_probe_time / 2, census_n);
        const auto span = timed(rec, "leap_census_simulator::run_for(majority)", root, [&] {
            majority_leap.run_for(half);
            majority_leap.visit_states([&](const majority::three_state_agent&, std::uint64_t c) {
                majority_counts.push_back(c);
                return true;
            });
            majority_leap.run_for(half);
        });
        obs::snapshot snap;
        majority_leap.collect_metrics(snap);
        leap_metrics(out, "leap.majority.", snap, rec.duration(span));
    }

    // sim.delta_outcomes: enumeration of every ordered pair of the states the
    // ordered-leap trial ended in.  The pair with the most outcomes supplies
    // the multinomial probe's weights.
    std::vector<double> weights{1.0};
    {
        std::vector<sim::delta_outcome<core::core_agent>> outcomes;
        const auto span = timed(rec, "enumerate_delta_outcomes", root, [&] {
            for (const auto& u : tournament_states) {
                for (const auto& v : tournament_states) {
                    if (sim::enumerate_delta_outcomes(ordered_big.protocol, u, v, outcomes) &&
                        outcomes.size() > weights.size()) {
                        weights.clear();
                        for (const auto& o : outcomes) weights.push_back(o.probability);
                    }
                }
            }
        });
        const double pairs = static_cast<double>(tournament_states.size()) *
                             static_cast<double>(tournament_states.size());
        out.emplace_back("delta_outcomes.enumerate_us", per_op(span, pairs, 1e6));
    }

    // sim.random_dist, on the shapes the ordered-leap trial drew: its mean
    // run length as the draw count, its mean grouped interactions per
    // outcome-table hit as the multinomial draw count.
    const auto* hist = ordered_snap.find(obs::m_run_length);
    const std::uint64_t draws = hist == nullptr || hist->count == 0 ? 20'000 : hist->sum / hist->count;
    const std::uint64_t group_size = std::max<std::uint64_t>(
        1, counter(ordered_snap, obs::m_delta_grouped) /
               std::max<std::uint64_t>(1, counter(ordered_snap, obs::m_table_hits)));
    sim::rng gen(sim::derive_seed(probe_seed, 3));
    const auto ns_per_call = [&](const char* name, std::size_t calls, auto&& call) {
        const auto span = timed(rec, name, root, [&] {
            for (std::size_t i = 0; i < calls; ++i) call();
        });
        return per_op(span, static_cast<double>(calls), 1e9);
    };
    std::uint64_t acc = 0;
    out.emplace_back("dist.run_length_leap_ns",
                     ns_per_call("dist::sample_collision_free_run_leap", 1'000'000, [&] {
                         acc += sim::dist::sample_collision_free_run_leap(gen, census_n, census_n)
                                    .length;
                     }));
    std::vector<std::uint64_t> picked(majority_counts.size());
    out.emplace_back("dist.mvh3_ns",
                     ns_per_call("dist::multivariate_hypergeometric(3)", 200'000, [&] {
                         sim::dist::multivariate_hypergeometric(gen, majority_counts, draws, picked);
                         keep(picked);
                     }));
    picked.resize(tournament_counts.size());
    out.emplace_back("dist.mvh80_ns",
                     ns_per_call("dist::multivariate_hypergeometric(80)", 20'000, [&] {
                         sim::dist::multivariate_hypergeometric(gen, tournament_counts, draws,
                                                                picked);
                         keep(picked);
                     }));
    out.emplace_back("dist.hypergeometric_wide_ns",
                     ns_per_call("dist::hypergeometric", 1'000'000, [&] {
                         acc += sim::dist::hypergeometric(gen, census_n, census_n / 2, draws);
                     }));
    std::vector<std::uint64_t> split(weights.size());
    out.emplace_back("dist.multinomial_ns", ns_per_call("dist::multinomial", 200'000, [&] {
                         sim::dist::multinomial(gen, weights, group_size, split);
                         keep(split);
                     }));
    keep(acc);
    rec.close(root);
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = parse(argc, argv);
    try {
        span_recorder rec(opt.run_id);
        layer_metrics metrics = traced_workload(opt, rec);
        const layer_metrics probes = layer_probes(opt.seed, rec);
        metrics.insert(metrics.end(), probes.begin(), probes.end());

        std::ostringstream spans;
        rec.write_json(spans);
        write_file(opt.out_dir + "/spans.json", spans.str());
        std::ostringstream layers;
        util::json_writer w(layers);
        w.begin_object();
        for (const auto& [name, value] : metrics) w.key(name).value(value);
        w.end_object();
        layers << '\n';
        write_file(opt.out_dir + "/layers.json", layers.str());
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_probe: %s\n", error.what());
        return 1;
    }
}
