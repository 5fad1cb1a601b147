// Unit tests for the leader-election substrate (leader/), Appendix B's [23]
// black-box contract: unique leader w.h.p. in O(log² n) parallel time.
#include <gtest/gtest.h>

#include <cmath>

#include "leader/leader_election.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"

namespace {

using namespace plurality::leader;
using plurality::sim::converge;
using plurality::sim::simulation;

simulation<leader_election_protocol> make_election(std::uint32_t n, std::uint64_t seed) {
    return {leader_election_protocol{default_psi(n), default_rounds(n)},
            std::vector<leader_agent>(n), seed};
}

TEST(LeaderElection, AtLeastOneCandidateAlways) {
    const std::uint32_t n = 512;
    auto s = make_election(n, 1);
    for (int probe = 0; probe < 50; ++probe) {
        s.run_for(20ull * n);
        EXPECT_GE(candidate_count(s.agents()) + leader_count(s.agents()), 1u);
    }
}

TEST(LeaderElection, CandidatesDecayQuickly) {
    const std::uint32_t n = 2048;
    auto s = make_election(n, 2);
    const std::size_t start = candidate_count(s.agents());
    EXPECT_EQ(start, n);
    // After a handful of rounds, candidates should be down by orders of
    // magnitude (halving per round plus direct elimination).
    s.run_for(static_cast<std::uint64_t>(20.0 * std::log2(n)) * n);
    EXPECT_LT(candidate_count(s.agents()), n / 16);
}

class LeaderSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LeaderSweep, UniqueLeaderWithHighProbability) {
    const std::uint32_t n = GetParam();
    const std::uint16_t rounds = default_rounds(n);
    const auto summary = plurality::sim::trial_executor{1}.run(20, 40 + n, [&](std::uint64_t seed) {
        auto s = make_election(n, seed);
        const auto done = [rounds](const auto& sim) {
            return election_finished(sim.agents(), rounds);
        };
        const double budget = 200.0 * std::log2(n) * std::log2(n);
        const auto finished = converge(s, done, static_cast<std::uint64_t>(budget * n));
        plurality::sim::trial_outcome out;
        out.success = finished.converged && leader_count(s.agents()) == 1;
        out.parallel_time = s.parallel_time();
        out.auxiliary = static_cast<double>(leader_count(s.agents()));
        return out;
    });
    // w.h.p. contract: allow at most one slip across the 20 trials.
    EXPECT_GE(summary.successes + 1, summary.trials) << "n=" << n;
    EXPECT_LT(summary.time_stats.mean, 60.0 * std::log2(n) * std::log2(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LeaderSweep, ::testing::Values(256u, 512u, 1024u, 4096u));

TEST(LeaderElection, LeadersOnlyDeclaredAfterAllRounds) {
    const std::uint32_t n = 512;
    auto s = make_election(n, 7);
    s.run_for(5ull * n);  // far too early
    EXPECT_EQ(leader_count(s.agents()), 0u);
}

TEST(LeaderElection, DirectEliminationKeepsInitiator) {
    leader_election_protocol proto{16, 32};
    plurality::sim::rng gen(3);
    leader_agent a;
    leader_agent b;
    a.round_tag = b.round_tag = 3;
    a.count = 0;
    b.count = 1;
    a.candidate = b.candidate = true;
    proto.interact(a, b, gen);
    EXPECT_TRUE(a.candidate);
    EXPECT_FALSE(b.candidate);
}

TEST(LeaderElection, SawOneSpreadsWithinRound) {
    leader_election_protocol proto{1000, 32};  // huge psi: no wraps during test
    plurality::sim::rng gen(4);
    leader_agent a;
    leader_agent b;
    a.round_tag = b.round_tag = 5;
    a.saw_one = true;
    a.count = 0;
    b.count = 1;
    proto.interact(a, b, gen);
    EXPECT_TRUE(b.saw_one);
}

TEST(LeaderElection, DefaultParametersScale) {
    EXPECT_GT(default_psi(1 << 16), default_psi(1 << 8));
    EXPECT_GT(default_rounds(1 << 16), default_rounds(1 << 8));
}

}  // namespace
