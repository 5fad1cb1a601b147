// Tests of the USD approximate-plurality baseline and its positioning
// against the exact protocols (§1, experiment E10).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/usd_plurality.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality::baselines;
using namespace plurality::workload;

TEST(UsdPlurality, TransitionRules) {
    usd_plurality_protocol proto;
    plurality::sim::rng gen(1);
    usd_agent a{3};
    usd_agent u{0};
    proto.interact(a, u, gen);
    EXPECT_EQ(u.opinion, 3u);
    usd_agent b{5};
    proto.interact(a, b, gen);
    EXPECT_EQ(b.opinion, 0u);
    EXPECT_EQ(a.opinion, 3u);
    // Undecided initiators do nothing.
    usd_agent u2{0};
    usd_agent c{4};
    proto.interact(u2, c, gen);
    EXPECT_EQ(c.opinion, 4u);
}

TEST(UsdPlurality, ConsensusHelpers) {
    std::vector<usd_agent> agents{{2}, {2}, {2}};
    EXPECT_TRUE(consensus_reached(agents));
    EXPECT_EQ(consensus_opinion(agents), 2u);
    agents.push_back({0});
    EXPECT_FALSE(consensus_reached(agents));
    agents.back().opinion = 3;
    EXPECT_FALSE(consensus_reached(agents));
}

TEST(UsdPlurality, LargeBiasConvergesFastAndCorrectly) {
    const std::uint32_t n = 4096;
    // Bias of n/4: far above the sqrt(n log n) threshold.
    opinion_distribution dist{{n / 2 + n / 4, n / 4}};
    const auto summary = plurality::sim::trial_executor{1}.run(10, 17, [&](std::uint64_t seed) {
        const auto r = run_usd(dist, seed, 500.0);
        plurality::sim::trial_outcome out;
        out.success = r.correct;
        out.parallel_time = r.parallel_time;
        return out;
    });
    EXPECT_EQ(summary.successes, summary.trials);
    EXPECT_LT(summary.time_stats.mean, 12.0 * std::log2(n));
}

TEST(UsdPlurality, BiasOneIsEssentiallyACoinFlip) {
    // The gap the paper closes: USD converges fast but picks the wrong
    // opinion about half the time at bias 1.
    const std::uint32_t n = 1024;
    const auto dist = make_bias_one(n + 1, 2);  // odd total => bias exactly 1
    ASSERT_EQ(dist.bias(), 1u);
    const auto summary = plurality::sim::trial_executor{1}.run(60, 29, [&](std::uint64_t seed) {
        const auto r = run_usd(dist, seed, 4000.0);
        plurality::sim::trial_outcome out;
        out.success = r.correct;
        return out;
    });
    EXPECT_GT(summary.successes, summary.trials / 4);
    EXPECT_LT(summary.successes, 3 * summary.trials / 4);
}

TEST(UsdPlurality, ManyOpinionsStillConverge) {
    plurality::sim::rng gen(3);
    const auto dist = make_zipf(2048, 8, 1.5, gen);
    const auto r = run_usd(dist, 7, 2000.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NE(r.winner_opinion, 0u);
}

TEST(UsdPlurality, PopulationConstructionMatchesDistribution) {
    plurality::sim::rng gen(4);
    const auto dist = make_bias_one(500, 5);
    const auto agents = make_usd_population(dist, gen);
    std::vector<std::uint32_t> counts(6, 0);
    for (const auto& a : agents) ++counts.at(a.opinion);
    for (std::uint32_t i = 1; i <= 5; ++i) EXPECT_EQ(counts[i], dist.support_of(i));
}

}  // namespace
