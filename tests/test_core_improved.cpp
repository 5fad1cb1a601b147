// End-to-end tests of ImprovedAlgorithm (Theorem 2): junta-driven pruning of
// insignificant opinions followed by unordered tournaments (§4).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"

namespace {

using namespace plurality::core;
using namespace plurality::workload;
using plurality::sim::converge;

TEST(ImprovedAlgorithm, ConvergesAtBiasOne) {
    const auto cfg = protocol_config::make(algorithm_mode::improved, 1024, 4);
    const auto r = run_to_consensus(cfg, make_bias_one(1024, 4), 2);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.correct);
}

class ImprovedSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(ImprovedSweep, PluralityWinsAtBiasOne) {
    const auto [n, k] = GetParam();
    const auto dist = make_bias_one(n, k);
    const auto cfg = protocol_config::make(algorithm_mode::improved, n, k);
    const auto summary =
        plurality::sim::trial_executor{1}.run(5, 7000 + n + k, [&](std::uint64_t seed) {
            const auto r = run_to_consensus(cfg, dist, seed);
            plurality::sim::trial_outcome out;
            out.success = r.correct;
            out.parallel_time = r.parallel_time;
            return out;
        });
    EXPECT_GE(summary.successes + 1, summary.trials) << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(BiasOne, ImprovedSweep,
                         ::testing::Combine(::testing::Values(512u, 1024u, 2048u),
                                            ::testing::Values(2u, 4u, 6u)));

TEST(ImprovedAlgorithm, PruningRemovesInsignificantOpinions) {
    // Lemma 10 (1): after the pruning broadcast only O(n/x_max) opinions
    // survive — the dust never reaches the tournaments.
    const std::uint32_t n = 4096;
    const auto dist = make_dominant_plus_dust(n, 0.5, 16);
    const auto cfg = protocol_config::make(algorithm_mode::improved, n, dist.k());
    plurality::sim::rng setup(3);
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population), 41};

    const auto pruned = [](const auto& sim) { return init_finished(sim.agents()); };
    const auto finished =
        converge(s, pruned, static_cast<std::uint64_t>(cfg.default_time_budget()) * n);
    ASSERT_TRUE(finished.converged);
    s.run_for(20ull * n);  // let the stage broadcast settle everywhere

    const auto survivors = surviving_opinions(s.agents());
    EXPECT_TRUE(std::find(survivors.begin(), survivors.end(), 1u) != survivors.end())
        << "the dominant opinion must survive pruning";
    EXPECT_LE(survivors.size(), 4u) << "dust opinions should be pruned";
}

TEST(ImprovedAlgorithm, PluralityKeepsAllTokensThroughPruning) {
    // Lemma 10 (2): T_i(t̂) = T_i(0) for the plurality opinion i.
    const std::uint32_t n = 2048;
    const auto dist = make_dominant_plus_dust(n, 0.6, 8);
    const auto cfg = protocol_config::make(algorithm_mode::improved, n, dist.k());
    plurality::sim::rng setup(5);
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population), 43};
    const auto pruned = [](const auto& sim) { return init_finished(sim.agents()); };
    ASSERT_TRUE(
        converge(s, pruned, static_cast<std::uint64_t>(cfg.default_time_budget()) * n).converged);
    s.run_for(20ull * n);
    EXPECT_EQ(tokens_of_opinion(s.agents(), 1), dist.support_of(1));
}

TEST(ImprovedAlgorithm, RoleBalanceAfterPruning) {
    // Lemma 10 (3): clock, tracker and player each hold >= n/10 agents.
    const std::uint32_t n = 2048;
    const auto dist = make_dominant_plus_dust(n, 0.5, 8);
    const auto cfg = protocol_config::make(algorithm_mode::improved, n, dist.k());
    plurality::sim::rng setup(7);
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population), 47};
    const auto pruned = [](const auto& sim) { return init_finished(sim.agents()); };
    ASSERT_TRUE(
        converge(s, pruned, static_cast<std::uint64_t>(cfg.default_time_budget()) * n).converged);
    s.run_for(20ull * n);
    const auto counts = role_counts(s.agents());
    EXPECT_GE(counts[static_cast<std::size_t>(agent_role::clock)], n / 10);
    EXPECT_GE(counts[static_cast<std::size_t>(agent_role::tracker)], n / 10);
    EXPECT_GE(counts[static_cast<std::size_t>(agent_role::player)], n / 10);
}

TEST(ImprovedAlgorithm, DominantPlusDustEndsCorrectly) {
    const std::uint32_t n = 2048;
    const auto dist = make_dominant_plus_dust(n, 0.55, 12);
    const auto cfg = protocol_config::make(algorithm_mode::improved, n, dist.k());
    const auto summary = plurality::sim::trial_executor{1}.run(4, 90, [&](std::uint64_t seed) {
        const auto r = run_to_consensus(cfg, dist, seed);
        plurality::sim::trial_outcome out;
        out.success = r.correct;
        out.parallel_time = r.parallel_time;
        return out;
    });
    EXPECT_EQ(summary.successes, summary.trials);
}

TEST(ImprovedAlgorithm, TwoHeavyPlusDustBiasOne) {
    // The hardest §4 workload: pruning must keep *both* heavy opinions and
    // then resolve their bias-1 duel exactly.
    const std::uint32_t n = 2048;
    const auto dist = make_two_heavy_plus_dust(n, 1, 8);
    const auto cfg = protocol_config::make(algorithm_mode::improved, n, dist.k());
    const auto summary = plurality::sim::trial_executor{1}.run(5, 91, [&](std::uint64_t seed) {
        const auto r = run_to_consensus(cfg, dist, seed);
        plurality::sim::trial_outcome out;
        out.success = r.correct;
        return out;
    });
    EXPECT_GE(summary.successes + 1, summary.trials);
}

TEST(ImprovedAlgorithm, FasterThanUnorderedWithManyDustOpinions) {
    // Theorem 2's point: runtime O(n/x_max · log n + log² n) is independent
    // of k, while the unordered variant pays Θ(k log n).
    const std::uint32_t n = 2048;
    const auto dist = make_dominant_plus_dust(n, 0.5, 16);
    const auto improved_cfg = protocol_config::make(algorithm_mode::improved, n, dist.k());
    const auto unordered_cfg = protocol_config::make(algorithm_mode::unordered, n, dist.k());
    double improved_time = 0.0;
    double unordered_time = 0.0;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto ri = run_to_consensus(improved_cfg, dist, seed);
        const auto ru = run_to_consensus(unordered_cfg, dist, 100 + seed);
        ASSERT_TRUE(ri.correct);
        ASSERT_TRUE(ru.correct);
        improved_time += ri.parallel_time;
        unordered_time += ru.parallel_time;
    }
    EXPECT_LT(improved_time * 2.0, unordered_time)
        << "pruning should cut the tournament count by far more than 2x here";
}

}  // namespace
