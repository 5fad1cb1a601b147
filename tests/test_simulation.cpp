// Unit tests for the generic simulation driver (sim/simulation.h) and
// sequential trial aggregation through the trial executor
// (sim/trial_executor.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/population_view.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"

namespace {

using plurality::sim::rng;
using plurality::sim::simulation;

/// Toy protocol: every interaction increments both agents' counters.
struct counting_protocol {
    struct agent_t {
        std::uint64_t meetings = 0;
    };
    void interact(agent_t& a, agent_t& b, rng&) const noexcept {
        ++a.meetings;
        ++b.meetings;
    }
};

TEST(Simulation, StepCountsInteractions) {
    simulation<counting_protocol> s{counting_protocol{}, std::vector<counting_protocol::agent_t>(10),
                                    1};
    for (int i = 0; i < 25; ++i) s.step();
    EXPECT_EQ(s.interactions(), 25u);
    EXPECT_DOUBLE_EQ(s.parallel_time(), 2.5);
}

TEST(Simulation, EveryInteractionTouchesTwoAgents) {
    simulation<counting_protocol> s{counting_protocol{}, std::vector<counting_protocol::agent_t>(8),
                                    2};
    s.run_for(1000);
    std::uint64_t total = 0;
    for (const auto& a : s.agents()) total += a.meetings;
    EXPECT_EQ(total, 2000u);
}

TEST(Simulation, DeterministicForFixedSeed) {
    auto run = [](std::uint64_t seed) {
        simulation<counting_protocol> s{counting_protocol{},
                                        std::vector<counting_protocol::agent_t>(16), seed};
        s.run_for(500);
        std::vector<std::uint64_t> meetings;
        for (const auto& a : s.agents()) meetings.push_back(a.meetings);
        return meetings;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

TEST(Simulation, FractionOfHelper) {
    std::vector<counting_protocol::agent_t> agents(10);
    agents[0].meetings = 5;
    agents[1].meetings = 5;
    const simulation<counting_protocol> s{counting_protocol{}, std::move(agents), 3};
    const double frac = plurality::sim::view::fraction(
        s, [](const counting_protocol::agent_t& a) { return a.meetings > 0; });
    EXPECT_DOUBLE_EQ(frac, 0.2);
}

TEST(MultiTrial, AggregatesSuccessesAndTimes) {
    const auto summary = plurality::sim::trial_executor{1}.run(
        100, 42, [](std::uint64_t seed) {
            plurality::sim::trial_outcome out;
            out.success = seed % 2 == 0 || true;  // all succeed
            out.parallel_time = 10.0;
            out.auxiliary = 1.0;
            return out;
        });
    EXPECT_EQ(summary.trials, 100u);
    EXPECT_EQ(summary.successes, 100u);
    EXPECT_DOUBLE_EQ(summary.success_rate(), 1.0);
    EXPECT_DOUBLE_EQ(summary.time_stats.mean, 10.0);
    EXPECT_DOUBLE_EQ(summary.auxiliary_stats.mean, 1.0);
}

TEST(MultiTrial, DistinctSeedsPerTrial) {
    std::vector<std::uint64_t> seeds;
    (void)plurality::sim::trial_executor{1}.run(50, 7, [&seeds](std::uint64_t seed) {
        seeds.push_back(seed);
        return plurality::sim::trial_outcome{};
    });
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(MultiTrial, FailedTrialsExcludedFromTimeStats) {
    const auto summary = plurality::sim::trial_executor{1}.run(
        10, 1, [](std::uint64_t seed) {
            plurality::sim::trial_outcome out;
            out.success = (seed % 2) == 0;
            out.parallel_time = out.success ? 5.0 : 1000.0;
            return out;
        });
    EXPECT_LT(summary.successes, 10u);
    if (summary.successes > 0) {
        EXPECT_DOUBLE_EQ(summary.time_stats.mean, 5.0);
    }
}

}  // namespace
