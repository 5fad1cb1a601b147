// Unit tests for the shared convergence layer (sim/convergence.h).
#include <gtest/gtest.h>

#include <vector>

#include "epidemic/epidemic.h"
#include "sim/convergence.h"
#include "sim/simulation.h"

namespace {

using plurality::epidemic::epidemic_agent;
using plurality::epidemic::epidemic_protocol;
using plurality::epidemic::informed_count;
using sim_t = plurality::sim::simulation<epidemic_protocol>;

sim_t make_sim(std::uint32_t n, std::uint64_t seed) {
    std::vector<epidemic_agent> agents(n);
    agents[0] = {true, 1};
    return {epidemic_protocol{}, std::move(agents), seed};
}

TEST(Convergence, InteractionBudgetScalesWithPopulation) {
    EXPECT_EQ(plurality::sim::interaction_budget(10.0, 64), 640u);
    EXPECT_EQ(plurality::sim::interaction_budget(0.0, 64), 0u);
    EXPECT_EQ(plurality::sim::interaction_budget(-1.0, 64), 0u);
}

TEST(Convergence, StopsWhenPredicateHolds) {
    auto s = make_sim(128, 5);
    const auto done = [](const sim_t& sim) {
        return informed_count(sim.agents()) == sim.population_size();
    };
    const auto out = plurality::sim::converge(s, done, 1u << 20);
    ASSERT_TRUE(out.converged);
    EXPECT_EQ(informed_count(s.agents()), 128u);
    EXPECT_EQ(out.interactions, s.interactions());
    EXPECT_DOUBLE_EQ(out.parallel_time, s.parallel_time());
}

TEST(Convergence, ReportsBudgetExhaustion) {
    auto s = make_sim(128, 5);
    const auto never = [](const sim_t&) { return false; };
    const auto out = plurality::sim::converge(s, never, 256);
    EXPECT_FALSE(out.converged);
    EXPECT_EQ(out.interactions, 256u);
    EXPECT_DOUBLE_EQ(out.parallel_time, 2.0);
}

TEST(Convergence, AlreadyConvergedRunsNothing) {
    auto s = make_sim(64, 9);
    const auto out = plurality::sim::converge(s, [](const sim_t&) { return true; }, 1u << 20);
    EXPECT_TRUE(out.converged);
    EXPECT_EQ(out.interactions, 0u);
}

TEST(Convergence, ObserverFiresAtTimeZeroAndEveryCheck) {
    auto s = make_sim(64, 9);
    std::vector<double> observed;
    const auto never = [](const sim_t&) { return false; };
    const auto record = [&observed](const sim_t& sim) { observed.push_back(sim.parallel_time()); };
    (void)plurality::sim::converge(s, never, 4 * 64, 64, record);
    // One observation before the first interaction, then one per batch.
    ASSERT_EQ(observed.size(), 5u);
    EXPECT_DOUBLE_EQ(observed.front(), 0.0);
    for (std::size_t i = 1; i < observed.size(); ++i) {
        EXPECT_DOUBLE_EQ(observed[i], static_cast<double>(i));
    }
}

}  // namespace
