// End-to-end tests of SimpleAlgorithm (Theorem 1 (1)): the ordered
// tournament protocol must identify the plurality opinion w.h.p. even at
// bias 1, for any position of the plurality among the k ordered opinions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"

namespace {

using namespace plurality::core;
using namespace plurality::workload;
using plurality::sim::converge;

/// Bias-1 distribution with the plurality moved to `position` (1-based).
opinion_distribution bias_one_at(std::uint32_t n, std::uint32_t k, std::uint32_t position) {
    auto support = make_bias_one(n, k).support();
    std::swap(support[0], support[position - 1]);
    return opinion_distribution{support};
}

TEST(SimpleAlgorithm, PopulationConstruction) {
    const auto cfg = protocol_config::make(algorithm_mode::ordered, 512, 4);
    const auto dist = make_bias_one(512, 4);
    plurality::sim::rng gen(1);
    const auto agents = plurality_protocol::make_population(cfg, dist, gen);
    ASSERT_EQ(agents.size(), 512u);
    for (const auto& a : agents) {
        EXPECT_EQ(a.role, agent_role::collector);
        EXPECT_EQ(a.stage, lifecycle_stage::init);
        EXPECT_EQ(a.tokens, 1);
        EXPECT_GE(a.opinion, 1u);
        EXPECT_LE(a.opinion, 4u);
    }
    for (std::uint32_t i = 1; i <= 4; ++i) {
        EXPECT_EQ(tokens_of_opinion(agents, i), dist.support_of(i));
    }
}

TEST(SimpleAlgorithm, ConvergesAtBiasOne) {
    const auto cfg = protocol_config::make(algorithm_mode::ordered, 512, 3);
    const auto r = run_to_consensus(cfg, make_bias_one(512, 3), 7);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.winner_opinion, 1u);
    EXPECT_GT(r.parallel_time, 0.0);
}

TEST(SimpleAlgorithm, SingleOpinionDegenerateCase) {
    const auto cfg = protocol_config::make(algorithm_mode::ordered, 256, 1);
    const auto r = run_to_consensus(cfg, make_bias_one(256, 1), 3);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.winner_opinion, 1u);
}

TEST(SimpleAlgorithm, DeterministicGivenSeed) {
    const auto cfg = protocol_config::make(algorithm_mode::ordered, 512, 4);
    const auto dist = make_bias_one(512, 4);
    const auto a = run_to_consensus(cfg, dist, 11);
    const auto b = run_to_consensus(cfg, dist, 11);
    EXPECT_EQ(a.interactions, b.interactions);
    EXPECT_EQ(a.winner_opinion, b.winner_opinion);
}

// -- the exactness sweep: bias 1, plurality anywhere, several (n, k) --------

struct sweep_case {
    std::uint32_t n;
    std::uint32_t k;
    std::uint32_t position;
};

class SimpleSweep : public ::testing::TestWithParam<sweep_case> {};

TEST_P(SimpleSweep, PluralityWinsAtBiasOne) {
    const auto [n, k, position] = GetParam();
    const auto dist = bias_one_at(n, k, position);
    ASSERT_EQ(dist.plurality_opinion(), position);
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, k);

    const auto summary = plurality::sim::trial_executor{1}.run(
        6, 1000 + n + 10 * k + position, [&](std::uint64_t seed) {
            const auto r = run_to_consensus(cfg, dist, seed);
            plurality::sim::trial_outcome out;
            out.success = r.correct;
            out.parallel_time = r.parallel_time;
            return out;
        });
    // w.h.p. at these sizes: allow at most one slip in six trials.
    EXPECT_GE(summary.successes + 1, summary.trials)
        << "n=" << n << " k=" << k << " position=" << position;
}

INSTANTIATE_TEST_SUITE_P(
    BiasOne, SimpleSweep,
    ::testing::Values(sweep_case{512, 2, 1}, sweep_case{512, 2, 2}, sweep_case{512, 3, 2},
                      sweep_case{512, 4, 4}, sweep_case{1024, 4, 1}, sweep_case{1024, 4, 3},
                      sweep_case{1024, 6, 6}, sweep_case{1024, 8, 5}, sweep_case{2048, 3, 3}));

TEST(SimpleAlgorithm, LargeBiasIsAlsoCorrect) {
    const auto cfg = protocol_config::make(algorithm_mode::ordered, 1024, 4);
    const auto dist = make_bias_one(1024, 4, 100);
    const auto r = run_to_consensus(cfg, dist, 21);
    EXPECT_TRUE(r.correct);
}

TEST(SimpleAlgorithm, UniformRandomDistributions) {
    plurality::sim::rng gen(5);
    for (int trial = 0; trial < 4; ++trial) {
        const auto dist = make_uniform_random(1024, 5, gen);
        const auto cfg = protocol_config::make(algorithm_mode::ordered, 1024, 5);
        const auto r = run_to_consensus(cfg, dist, 100 + trial);
        EXPECT_TRUE(r.converged);
        EXPECT_EQ(r.winner_opinion, dist.plurality_opinion());
    }
}

TEST(SimpleAlgorithm, InitializationSplitsRoles) {
    // Lemma 3 (2): every role ends up with at least n/10 agents.
    const std::uint32_t n = 1024;
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, 4);
    const auto dist = make_bias_one(n, 4);
    plurality::sim::rng setup(3);
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population), 17};

    const auto done = [](const auto& sim) { return init_finished(sim.agents()); };
    const auto finished = converge(s, done, 2000ull * n);
    ASSERT_TRUE(finished.converged);
    const auto counts = role_counts(s.agents());
    for (std::size_t role = 0; role < 4; ++role) {
        EXPECT_GE(counts[role], n / 10) << "role " << role;
    }
}

TEST(SimpleAlgorithm, InitializationConservesTokens) {
    const std::uint32_t n = 1024;
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, 4);
    const auto dist = make_bias_one(n, 4);
    plurality::sim::rng setup(4);
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population), 19};
    (void)converge(s, [](const auto& sim) { return init_finished(sim.agents()); }, 2000ull * n);
    for (std::uint32_t op = 1; op <= 4; ++op) {
        EXPECT_EQ(tokens_of_opinion(s.agents(), op), dist.support_of(op));
    }
}

TEST(SimpleAlgorithm, DefenderBitsdMarkOpinionOne) {
    // Lemma 3 (3): when initialization ends, opinion-1 collectors carry the
    // defender bit.
    const std::uint32_t n = 512;
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, 3);
    const auto dist = make_bias_one(n, 3);
    plurality::sim::rng setup(5);
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population), 23};
    (void)converge(s, [](const auto& sim) { return init_finished(sim.agents()); }, 2000ull * n);
    for (const auto& a : s.agents()) {
        if (a.role == agent_role::collector && a.opinion == 1) {
            EXPECT_TRUE(a.defender);
        }
        if (a.role == agent_role::collector && a.opinion != 1) {
            EXPECT_FALSE(a.defender);
        }
    }
}

TEST(SimpleAlgorithm, RuntimeGrowsLinearlyInK) {
    // Theorem 1 (1): parallel time is O(k log n) — measure the per-k slope.
    const std::uint32_t n = 512;
    std::vector<double> ks;
    std::vector<double> times;
    for (std::uint32_t k : {2u, 4u, 8u}) {
        const auto cfg = protocol_config::make(algorithm_mode::ordered, n, k);
        const auto dist = make_bias_one(n, k);
        double total = 0.0;
        for (std::uint64_t seed = 0; seed < 3; ++seed) {
            const auto r = run_to_consensus(cfg, dist, 31 + seed);
            ASSERT_TRUE(r.converged);
            total += r.parallel_time;
        }
        ks.push_back(k);
        times.push_back(total / 3.0);
    }
    // Doubling k should roughly double the time (tournaments dominate);
    // accept anything clearly super-constant and sub-quadratic.
    EXPECT_GT(times[2], 1.5 * times[0]);
    EXPECT_LT(times[2], 16.0 * times[0]);
}

}  // namespace
