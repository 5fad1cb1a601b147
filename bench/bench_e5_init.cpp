// E5 — initialization phase (Lemma 3): the first clock finishes counting
// within O(n·(k + log n)) interactions, and at that point every role holds
// at least n/10 agents while opinion-1 collectors carry the defender bit.
#include <algorithm>

#include "bench_common.h"
#include "sim/convergence.h"
#include "sim/simulation.h"

namespace {

using namespace plurality;
using namespace plurality::bench;

struct init_measurement {
    double parallel_time = 0.0;
    double min_role_fraction = 0.0;
    double defender_coverage = 0.0;  ///< fraction of opinion-1 collectors with the bit
};

init_measurement measure_init(std::uint32_t n, std::uint32_t k, std::uint64_t seed) {
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, n, k);
    const auto dist = workload::make_bias_one(n, k);
    sim::rng setup(sim::derive_seed(seed, 1));
    core::plurality_protocol proto{cfg};
    auto population = core::plurality_protocol::make_population(cfg, dist, setup);
    sim::simulation<core::plurality_protocol> s{std::move(proto), std::move(population),
                                                sim::derive_seed(seed, 2)};
    const auto done = [](const auto& sim) { return core::init_finished(sim.agents()); };
    (void)sim::converge(s, done, static_cast<std::uint64_t>(cfg.default_time_budget()) * n);

    init_measurement m;
    m.parallel_time = s.parallel_time();
    const auto counts = core::role_counts(s.agents());
    m.min_role_fraction =
        static_cast<double>(*std::min_element(counts.begin(), counts.end())) / n;
    std::size_t opinion1 = 0;
    std::size_t with_bit = 0;
    for (const auto& a : s.agents()) {
        if (a.role == core::agent_role::collector && a.opinion == 1) {
            ++opinion1;
            if (a.defender) ++with_bit;
        }
    }
    m.defender_coverage = opinion1 == 0 ? 0.0 : static_cast<double>(with_bit) / opinion1;
    return m;
}

void BM_Init(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto k = static_cast<std::uint32_t>(state.range(1));
    for (auto _ : state) {
        double time_sum = 0.0;
        double role_min = 1.0;
        double coverage_min = 1.0;
        const int trials = 5;
        for (int t = 0; t < trials; ++t) {
            const auto m = measure_init(n, k, 0xe5000 + n + k + t);
            time_sum += m.parallel_time;
            role_min = std::min(role_min, m.min_role_fraction);
            coverage_min = std::min(coverage_min, m.defender_coverage);
        }
        state.counters["init_parallel_time"] = time_sum / trials;
        state.counters["min_role_fraction"] = role_min;
        state.counters["defender_coverage"] = coverage_min;
        state.counters["pt_per_k_plus_log"] =
            time_sum / trials / (k + std::log2(static_cast<double>(n)));
    }
}
BENCHMARK(BM_Init)
    ->Args({512, 2})
    ->Args({512, 8})
    ->Args({1024, 2})
    ->Args({1024, 8})
    ->Args({1024, 24})
    ->Args({2048, 4})
    ->Args({4096, 4})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
