// Tests for the run-batching census backend (sim/leap_census_simulator.h):
// exact interaction accounting under truncation, bookkeeping invariants,
// per-seed determinism, grouped-δ vs per-pair-fallback equivalence,
// registry-wide convergence, the scenario-layer determinism contract (JSON
// byte-identity across thread counts), and 5σ distributional agreement with
// the per-step census backend — the leap backend factors the same run law
// into participant and contingency-table draws, so convergence-time
// distributions must be indistinguishable even though no agent is ever
// materialized.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/census_encoding.h"
#include "core/plurality_protocol.h"
#include "leader/leader_election.h"
#include "majority/three_state.h"
#include "obs/catalogue.h"
#include "obs/snapshot.h"
#include "scenario/json_report.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/leap_census_simulator.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;
using three_leap = sim::leap_census_simulator<majority::three_state_protocol,
                                              majority::three_state_census_codec>;

constexpr majority::binary_opinion alpha_v = majority::binary_opinion::alpha;
constexpr majority::binary_opinion beta_v = majority::binary_opinion::beta;
constexpr majority::binary_opinion undecided_v = majority::binary_opinion::undecided;

std::vector<sim::census_entry<majority::three_state_agent>> three_state_census(
    std::uint64_t alpha, std::uint64_t beta, std::uint64_t undecided) {
    return {{{alpha_v}, alpha}, {{beta_v}, beta}, {{undecided_v}, undecided}};
}

std::uint64_t census_total(const three_leap& sim) {
    std::uint64_t total = 0;
    sim.visit_states([&total](const majority::three_state_agent&, std::uint64_t count) {
        total += count;
        return true;
    });
    return total;
}

TEST(LeapCensusSimulator, ConservesPopulationAcrossBatches) {
    three_leap sim{{}, three_state_census(60, 40, 0), 7};
    ASSERT_EQ(sim.population_size(), 100u);
    for (int batch = 0; batch < 20; ++batch) {
        sim.run_for(50);
        EXPECT_EQ(census_total(sim), 100u);
    }
    EXPECT_EQ(sim.interactions(), 1000u);
    EXPECT_DOUBLE_EQ(sim.parallel_time(), 10.0);
    EXPECT_LE(sim.occupied_states(), 3u);
    EXPECT_LE(sim.reachable_states(), 3u);
}

TEST(LeapCensusSimulator, RunForExecutesExactInteractionCounts) {
    // The convergence layer's budget accounting relies on run_for truncating
    // the final leap run to land on the requested count exactly.
    three_leap sim{{}, three_state_census(500, 450, 50), 13};
    std::uint64_t expected = 0;
    for (const std::uint64_t chunk : {1ull, 7ull, 999ull, 2ull, 4096ull, 1ull}) {
        sim.run_for(chunk);
        expected += chunk;
        ASSERT_EQ(sim.interactions(), expected);
        ASSERT_EQ(census_total(sim), 1000u);
    }
}

TEST(LeapCensusSimulator, StepExecutesOneInteraction) {
    three_leap sim{{}, three_state_census(30, 20, 10), 3};
    for (int i = 1; i <= 25; ++i) {
        sim.step();
        EXPECT_EQ(sim.interactions(), static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(census_total(sim), 60u);
}

TEST(LeapCensusSimulator, OccupiedStatesMatchesVisitScan) {
    three_leap sim{{}, three_state_census(500, 450, 0), 21};
    for (int batch = 0; batch < 10; ++batch) {
        sim.run_for(200);
        std::size_t scanned = 0;
        sim.visit_states([&scanned](const majority::three_state_agent&, std::uint64_t) {
            ++scanned;
            return true;
        });
        ASSERT_EQ(sim.occupied_states(), scanned);
    }
}

TEST(LeapCensusSimulator, DeterministicPerSeedAndSensitiveToSeed) {
    const auto midrun_counts = [](std::uint64_t seed) {
        three_leap sim{{}, three_state_census(500, 450, 50), seed};
        sim.run_for(400);
        return std::array<std::uint64_t, 3>{
            sim.count_of({alpha_v}), sim.count_of({beta_v}), sim.count_of({undecided_v})};
    };
    EXPECT_EQ(midrun_counts(42), midrun_counts(42));
    EXPECT_NE(midrun_counts(42), midrun_counts(43));
}

TEST(LeapCensusSimulator, AgentVectorConstructorCompressesToCensus) {
    const std::vector<majority::three_state_agent> agents = {
        {alpha_v}, {beta_v}, {alpha_v}, {undecided_v}, {alpha_v}};
    three_leap sim{{}, agents, 3};
    EXPECT_EQ(sim.population_size(), 5u);
    EXPECT_EQ(sim.count_of({alpha_v}), 3u);
    EXPECT_EQ(sim.count_of({beta_v}), 1u);
    EXPECT_EQ(sim.count_of({undecided_v}), 1u);
    EXPECT_EQ(sim.occupied_states(), 3u);
}

TEST(LeapCensusSimulator, RejectsPopulationsBelowTwo) {
    EXPECT_THROW((three_leap{{}, three_state_census(1, 0, 0), 1}), std::invalid_argument);
    EXPECT_THROW((three_leap{{}, three_state_census(0, 0, 0), 1}), std::invalid_argument);
}

// A three-state clone *without* the deterministic_delta declaration: the
// leap backend must take the per-pair fallback for every contingency-table
// cell.  Because three-state δ never consumes the RNG, the fallback consumes
// the exact same stream as the grouped path — so the two must produce
// bitwise-identical trajectories, which pins the grouped cell application
// against the per-pair ground truth.
struct fallback_three_state {
    using agent_t = majority::three_state_agent;
    majority::three_state_protocol inner;
    void interact(agent_t& u, agent_t& v, sim::rng& gen) const noexcept {
        inner.interact(u, v, gen);
    }
};
static_assert(!sim::declares_deterministic_delta<fallback_three_state>);
static_assert(sim::declares_deterministic_delta<majority::three_state_protocol>);

TEST(LeapCensusSimulator, GroupedDeltaMatchesPerPairFallbackBitwise) {
    using fallback_leap =
        sim::leap_census_simulator<fallback_three_state, majority::three_state_census_codec>;
    for (const std::uint64_t seed : {1ull, 9ull, 77ull}) {
        three_leap grouped{{}, three_state_census(500, 450, 50), seed};
        fallback_leap per_pair{{}, three_state_census(500, 450, 50), seed};
        for (int batch = 0; batch < 10; ++batch) {
            grouped.run_for(300);
            per_pair.run_for(300);
            for (const auto opinion : {alpha_v, beta_v, undecided_v}) {
                ASSERT_EQ(grouped.count_of({opinion}), per_pair.count_of({opinion}))
                    << "seed " << seed << " batch " << batch;
            }
        }
    }
}

TEST(LeapCensusSimulator, ChunkedSteppingAgreesDistributionally) {
    // run_for(a); run_for(b) consumes the stream differently from
    // run_for(a+b) (the first run is truncated at a), but the chain
    // distribution must be unaffected.  Compare mean undecided counts after
    // 600 interactions across many seeds, chunked vs unchunked, under a
    // calibrated 5σ band on the difference of means.
    constexpr std::size_t trials = 60;
    constexpr std::uint64_t horizon = 600;
    const auto undecided_after = [](std::uint64_t seed, bool chunked) {
        three_leap sim{{}, three_state_census(600, 500, 0), seed};
        if (chunked) {
            for (std::uint64_t done = 0; done < horizon; done += 40) sim.run_for(40);
        } else {
            sim.run_for(horizon);
        }
        return static_cast<double>(sim.count_of({undecided_v}));
    };
    double sum_a = 0.0, sum_b = 0.0, sq_a = 0.0, sq_b = 0.0;
    for (std::size_t i = 0; i < trials; ++i) {
        const double a = undecided_after(25000 + i, false);
        const double b = undecided_after(29000 + i, true);
        sum_a += a;
        sq_a += a * a;
        sum_b += b;
        sq_b += b * b;
    }
    const double mean_a = sum_a / trials;
    const double mean_b = sum_b / trials;
    const double var_a = sq_a / trials - mean_a * mean_a;
    const double var_b = sq_b / trials - mean_b * mean_b;
    const double band = 5.0 * std::sqrt((var_a + var_b) / trials) + 1.0;
    EXPECT_NEAR(mean_a, mean_b, band);
}

// -- golden trajectories ------------------------------------------------------
//
// Per-seed leap trajectories are a pure function of the seed, so a fixed
// run_for at a fixed seed pins the whole chain *and* the way the backend
// consumes its random stream.  Refactors of the run/table machinery must
// keep these values bit-for-bit: the interaction and word counts pin the
// draw sequence, the outcome-table hits and misses pin the lookup pattern,
// reachable_states pins when census slots are created (only on a
// re-deposit with a nonzero count), and the digest pins the census itself
// in state-discovery order.

/// What a golden case pins after its fixed run_for.
struct golden_values {
    std::uint64_t interactions = 0;
    std::uint64_t rng_words = 0;
    std::size_t reachable = 0;
    std::uint64_t table_hits = 0;
    std::uint64_t table_misses = 0;
    std::uint64_t census_digest = 0;
    bool operator==(const golden_values&) const = default;
};

std::ostream& operator<<(std::ostream& os, const golden_values& g) {
    return os << "{" << g.interactions << ", " << g.rng_words << ", " << g.reachable << ", "
              << g.table_hits << ", " << g.table_misses << ", 0x" << std::hex
              << g.census_digest << std::dec << "}";
}

/// FNV-1a-style mix of one 64-bit word into the digest.
void digest_word(std::uint64_t& digest, std::uint64_t word) {
    digest = (digest ^ word) * 0x100000001b3ull;
}

void digest_key(std::uint64_t& digest, std::uint64_t key) { digest_word(digest, key); }

template <std::size_t N>
void digest_key(std::uint64_t& digest, const std::array<std::uint64_t, N>& key) {
    for (const std::uint64_t word : key) digest_word(digest, word);
}

template <class P, class Codec>
golden_values golden_run(sim::leap_census_simulator<P, Codec>& sim, std::uint64_t count) {
    sim.run_for(count);
    golden_values g;
    g.interactions = sim.interactions();
    g.rng_words = sim.random().words();
    g.reachable = sim.reachable_states();
    obs::snapshot metrics;
    sim.collect_metrics(metrics);
    g.table_hits = metrics.find(obs::m_table_hits)->value;
    g.table_misses = metrics.find(obs::m_table_misses)->value;
    g.census_digest = 0xcbf29ce484222325ull;
    sim.visit_states([&](const typename P::agent_t& state, std::uint64_t c) {
        digest_key(g.census_digest, Codec::encode(state));
        digest_word(g.census_digest, c);
        return true;
    });
    return g;
}

TEST(LeapCensusSimulator, GoldenTrajectoriesArePinned) {
    {
        three_leap sim{{}, three_state_census(520000, 480000, 0), 7};
        EXPECT_EQ(golden_run(sim, 10'000'000),
                  (golden_values{10'000'000, 161'075, 3, 0, 0, 0xacfbddf417bcb812}))
            << "three-state, n = 10^6";
    }
    {
        constexpr std::uint32_t n = 10'000;
        sim::leap_census_simulator<leader::leader_election_protocol, leader::leader_census_codec>
            sim{leader::leader_election_protocol{leader::default_psi(n), leader::default_rounds(n)},
                std::vector<sim::census_entry<leader::leader_agent>>{{leader::leader_agent{}, n}},
                7};
        EXPECT_EQ(golden_run(sim, std::uint64_t{n} * 150),
                  (golden_values{1'500'000, 1'227'728, 481, 431'355, 7'032, 0xb9d7ea64d4609817}))
            << "leader election, n = 10^4";
    }
    {
        constexpr std::uint32_t n = 1'000'000;
        constexpr std::uint32_t k = 4;
        const auto dist = workload::make_bias_one(n, k);
        std::vector<sim::census_entry<core::core_agent>> entries;
        for (std::uint32_t opinion = 1; opinion <= k; ++opinion) {
            core::core_agent a;
            a.opinion = opinion;
            a.tokens = 1;
            a.role = core::agent_role::collector;
            a.stage = core::lifecycle_stage::init;
            entries.push_back({a, dist.support_of(opinion)});
        }
        sim::leap_census_simulator<core::plurality_protocol, core::core_census_codec> sim{
            core::plurality_protocol{
                core::protocol_config::make(core::algorithm_mode::ordered, n, k)},
            entries, 7};
        EXPECT_EQ(golden_run(sim, std::uint64_t{n} * 4),
                  (golden_values{4'000'000, 3'987'087, 95, 1'504'487, 4'342, 0xa41936b368b4f205}))
            << "ordered plurality, n = 10^6, k = 4";
    }
}

// -- scenario-layer integration ----------------------------------------------

scenario::scenario_params leap_small_params(const std::string& family) {
    scenario::scenario_params p;
    if (family == "plurality") {
        p.n = 512;
        p.k = 2;
    } else if (family == "baselines") {
        p.n = 257;
        p.k = 3;
    } else if (family == "majority") {
        p.n = 300;
        p.bias = 10;
    } else if (family == "epidemic") {
        p.n = 512;
    } else if (family == "leader") {
        p.n = 256;
    } else {  // loadbalance
        p.n = 512;
    }
    return p;
}

TEST(LeapBackend, EveryScenarioConvergesAtSmallN) {
    for (const auto& s : scenario::scenario_registry::instance().all()) {
        const auto params = leap_small_params(s.family());
        const auto outcome = s.run(params, 2027, scenario::backend_kind::leap);
        EXPECT_TRUE(outcome.converged) << s.name();
        EXPECT_GT(outcome.interactions, 0u) << s.name();
        for (const auto& m : outcome.metrics) {
            EXPECT_TRUE(std::isfinite(m.value)) << s.name() << "/" << m.name;
        }
    }
}

TEST(LeapBackend, RunIsDeterministicPerSeed) {
    const auto* s = scenario::scenario_registry::instance().find("majority/three-state");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 300;
    params.bias = 10;
    const auto a = s->run(params, 99, scenario::backend_kind::leap);
    const auto b = s->run(params, 99, scenario::backend_kind::leap);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.interactions, b.interactions);
    EXPECT_DOUBLE_EQ(a.parallel_time, b.parallel_time);
}

TEST(LeapBackend, JsonReportIsByteIdenticalAcrossThreadCounts) {
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 400;

    std::string previous;
    for (const std::size_t threads : {1u, 4u}) {
        const sim::trial_executor executor{threads};
        const auto result = scenario::run_scenario_trials(*s, params, 6, 19, executor,
                                                          scenario::backend_kind::leap);
        std::ostringstream os;
        scenario::write_json_report(os, *s, params, 19, result, scenario::backend_kind::leap);
        if (!previous.empty()) {
            EXPECT_EQ(previous, os.str());
        }
        previous = os.str();
        EXPECT_NE(previous.find("\"backend\": \"leap\""), std::string::npos);
    }
}

TEST(LeapBackend, LoadBalanceConservesTotalLoad) {
    const auto* s = scenario::scenario_registry::instance().find("loadbalance/averaging");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 1024;
    const auto outcome = s->run(params, 5, scenario::backend_kind::leap);
    ASSERT_TRUE(outcome.converged);
    EXPECT_TRUE(outcome.correct);
    for (const auto& m : outcome.metrics) {
        if (m.name == "total_load") EXPECT_DOUBLE_EQ(m.value, 1024.0);
    }
}

// -- cross-backend distributional agreement -----------------------------------
//
// Same interaction law, different sampling path: for a fixed initial
// configuration the convergence-time distribution on the leap backend must
// match the per-step census backend (only per-seed draws differ).  Means over
// independent trials are compared under a calibrated ~5σ band plus a small
// absolute slack — not tuned seeds.

struct backend_sample {
    double mean = 0.0;
    double stderr_mean = 0.0;
};

backend_sample sample_mean_time(const scenario::any_scenario& s,
                                const scenario::scenario_params& params, std::size_t trials,
                                std::uint64_t base_seed, scenario::backend_kind backend) {
    const sim::trial_executor executor{1};
    const auto result = scenario::run_scenario_trials(s, params, trials, base_seed, executor,
                                                      backend);
    EXPECT_EQ(result.summary.converged, trials);
    const auto& stats = result.summary.time_stats;
    backend_sample out;
    out.mean = stats.mean;
    out.stderr_mean = stats.stddev / std::sqrt(static_cast<double>(trials));
    return out;
}

void expect_means_agree(const backend_sample& left, const backend_sample& right,
                        const char* left_name, const char* right_name) {
    const double difference = std::abs(left.mean - right.mean);
    const double combined = std::sqrt(left.stderr_mean * left.stderr_mean +
                                      right.stderr_mean * right.stderr_mean);
    EXPECT_LE(difference, 5.0 * combined + 0.75)
        << left_name << " mean " << left.mean << " vs " << right_name << " mean " << right.mean
        << " (combined stderr " << combined << ")";
}

/// 5σ agreement of leap against the per-step census backend.
void expect_leap_agrees(const scenario::any_scenario& s,
                        const scenario::scenario_params& params, std::size_t trials,
                        std::uint64_t base_seed) {
    const auto leap = sample_mean_time(s, params, trials, base_seed,
                                       scenario::backend_kind::leap);
    const auto census = sample_mean_time(s, params, trials, base_seed,
                                         scenario::backend_kind::census);
    expect_means_agree(leap, census, "leap", "census");
}

TEST(LeapBackend, EpidemicBroadcastTimesAgreeAcrossBackends) {
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 512;
    expect_leap_agrees(*s, params, 30, 3003);
}

TEST(LeapBackend, ThreeStateMajorityTimesAgreeAcrossBackends) {
    const auto* s = scenario::scenario_registry::instance().find("majority/three-state");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 600;
    params.bias = 60;
    expect_leap_agrees(*s, params, 30, 4004);
}

// Averaging majority keeps hundreds of states occupied, so most of a run's
// participants sit in distinct states: the regime where the 2L-participant
// draw and its initiator split, not the contingency table, dominate a run.
TEST(LeapBackend, AveragingMajorityTimesAgreeAcrossBackends) {
    const auto* s = scenario::scenario_registry::instance().find("majority/averaging");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 600;
    params.bias = 60;
    expect_leap_agrees(*s, params, 30, 5005);
}

}  // namespace
