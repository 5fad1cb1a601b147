// Cross-module integration tests: state census over full runs (Theorem 1's
// O(k + log n) accounting), cross-mode agreement, and failure-injection
// style workloads.
#include <gtest/gtest.h>

#include <cmath>

#include "census/state_census.h"
#include "core/census_encoding.h"
#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality::core;
using namespace plurality::workload;
using plurality::sim::converge;

/// Runs one full execution while feeding every agent state into two
/// censuses; returns {structural distinct, full distinct}.
std::pair<std::size_t, std::size_t> census_run(const protocol_config& cfg,
                                               const opinion_distribution& dist,
                                               std::uint64_t seed) {
    plurality::sim::rng setup(plurality::sim::derive_seed(seed, 1));
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population),
                                                     plurality::sim::derive_seed(seed, 2)};
    plurality::census::state_census structural;
    plurality::census::state_census full;
    const auto budget = static_cast<std::uint64_t>(cfg.default_time_budget()) * cfg.n;
    while (!all_winners(s.agents()) && s.interactions() < budget) {
        s.run_for(cfg.n / 2);
        for (const auto& a : s.agents()) {
            structural.observe(canonical_code(a, cfg, census_mode::structural));
            full.observe(canonical_code(a, cfg, census_mode::full));
        }
    }
    EXPECT_TRUE(all_winners(s.agents()));
    return {structural.distinct(), full.distinct()};
}

TEST(Integration, StructuralStateCountScalesLinearlyInK) {
    // Theorem 1 (1): O(k + log n) states.  With n fixed, growing k should
    // add ~linearly many states, nowhere near the Ω(k²) of always-correct
    // protocols [29].
    const std::uint32_t n = 512;
    std::vector<double> ks;
    std::vector<double> states;
    for (std::uint32_t k : {2u, 4u, 8u, 16u}) {
        const auto cfg = protocol_config::make(algorithm_mode::ordered, n, k);
        const auto [structural, full] = census_run(cfg, make_bias_one(n, k), 300 + k);
        ks.push_back(k);
        states.push_back(static_cast<double>(structural));
    }
    // Quadratic growth would multiply by ~64 from k=2 to k=16; linear growth
    // by at most ~8.  Leave generous slack.
    EXPECT_LT(states[3], 16.0 * states[0]);
    // And it must actually grow with k (collector opinions, tracker tcnt).
    EXPECT_GT(states[3], states[0]);
}

TEST(Integration, FullCensusShowsTheMajoritySubstitutionCost) {
    // The averaging majority trades states for time: the full census (raw
    // loads) strictly exceeds the structural census (exponent buckets).
    // Snapshot sampling only catches a fraction of the transient loads, so
    // the measured gap is a lower bound on the true Θ(n) vs O(log n) gap —
    // bench_e2_state_census reports the dense numbers.
    const std::uint32_t n = 512;
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, 4);
    const auto [structural, full] = census_run(cfg, make_bias_one(n, 4), 17);
    EXPECT_GT(full, structural);
}

TEST(Integration, AllThreeModesAgreeOnTheWinner) {
    const std::uint32_t n = 1024;
    const std::uint32_t k = 4;
    const auto dist = make_bias_one(n, k, 40);  // clear plurality
    for (auto mode :
         {algorithm_mode::ordered, algorithm_mode::unordered, algorithm_mode::improved}) {
        const auto cfg = protocol_config::make(mode, n, k);
        const auto r = run_to_consensus(cfg, dist, 55);
        EXPECT_TRUE(r.converged) << "mode " << static_cast<int>(mode);
        EXPECT_EQ(r.winner_opinion, dist.plurality_opinion())
            << "mode " << static_cast<int>(mode);
    }
}

TEST(Integration, KAtTheoremLimit) {
    // Theorem 1 assumes k <= n/40; exercise near that boundary.
    const std::uint32_t n = 1024;
    const std::uint32_t k = 25;  // n/40 ≈ 25.6
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, k);
    const auto r = run_to_consensus(cfg, make_bias_one(n, k), 3);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.correct);
}

TEST(Integration, AdversarialTieHeavyWorkload) {
    // Every non-plurality opinion ties with the next: tournaments must
    // repeatedly resolve ties in the defender's favour without ever losing
    // the true plurality.
    const std::uint32_t n = 1029;
    std::vector<std::uint32_t> support{207, 206, 206, 205, 205};
    const opinion_distribution dist{support};
    ASSERT_EQ(dist.bias(), 1u);
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, 5);
    // Full-protocol trials fan out across the executor; run_to_consensus is
    // a pure function of (cfg, dist, seed), and the summary is bitwise
    // identical to a sequential run by the executor's determinism contract.
    const auto summary =
        plurality::sim::trial_executor{4}.run(5, 900, [&](std::uint64_t seed) {
            plurality::sim::trial_outcome out;
            out.success = run_to_consensus(cfg, dist, seed).correct;
            return out;
        });
    EXPECT_GE(summary.successes, 4u);
}

TEST(Integration, WinnerBroadcastReachesEveryAgent) {
    const std::uint32_t n = 512;
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, 3);
    const auto dist = make_bias_one(n, 3);
    plurality::sim::rng setup(6);
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population), 61};
    const auto done = [](const auto& sim) { return all_winners(sim.agents()); };
    ASSERT_TRUE(
        converge(s, done, static_cast<std::uint64_t>(cfg.default_time_budget()) * n).converged);
    for (const auto& a : s.agents()) {
        EXPECT_TRUE(a.winner);
        EXPECT_EQ(a.role, agent_role::collector);
        EXPECT_EQ(a.opinion, 1u);
    }
}

TEST(Integration, ResultReportsInteractionsAndTimeConsistently) {
    const auto cfg = protocol_config::make(algorithm_mode::ordered, 512, 2);
    const auto r = run_to_consensus(cfg, make_bias_one(512, 2), 8);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.parallel_time, static_cast<double>(r.interactions) / 512.0, 1e-9);
}

}  // namespace
