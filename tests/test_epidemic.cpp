// Unit tests for the one-way epidemic broadcast (epidemic/).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/scaling_fit.h"
#include "epidemic/epidemic.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"

namespace {

using namespace plurality::epidemic;

TEST(Epidemic, InformationOnlyFlowsFromInitiator) {
    epidemic_protocol proto;
    plurality::sim::rng gen(1);
    epidemic_agent informed{true, 42};
    epidemic_agent blank{};
    // Responder learns from initiator ...
    proto.interact(informed, blank, gen);
    EXPECT_TRUE(blank.informed);
    EXPECT_EQ(blank.payload, 42u);
    // ... but an informed responder does not teach the initiator.
    epidemic_agent blank2{};
    proto.interact(blank2, informed, gen);
    EXPECT_FALSE(blank2.informed);
}

TEST(Epidemic, PayloadIsPreserved) {
    epidemic_protocol proto;
    plurality::sim::rng gen(2);
    epidemic_agent src{true, 7};
    epidemic_agent mid{};
    epidemic_agent dst{};
    proto.interact(src, mid, gen);
    proto.interact(mid, dst, gen);
    EXPECT_EQ(dst.payload, 7u);
}

TEST(Epidemic, BroadcastCompletes) {
    const double t = measure_broadcast_time(1024, 1, 99);
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 200.0);
}

TEST(Epidemic, MoreSourcesAreFaster) {
    double single = 0.0;
    double many = 0.0;
    for (std::uint64_t s = 0; s < 10; ++s) {
        single += measure_broadcast_time(2048, 1, 100 + s);
        many += measure_broadcast_time(2048, 256, 200 + s);
    }
    EXPECT_LT(many, single);
}

TEST(Epidemic, RejectsBadArguments) {
    EXPECT_THROW((void)measure_broadcast_time(1, 1, 0), std::invalid_argument);
    EXPECT_THROW((void)measure_broadcast_time(10, 0, 0), std::invalid_argument);
    EXPECT_THROW((void)measure_broadcast_time(10, 11, 0), std::invalid_argument);
}

// Lemma-level property: broadcast time grows logarithmically in n, i.e. the
// ratio time / log2(n) stays bounded across a geometric sweep.
TEST(Epidemic, BroadcastTimeIsLogarithmic) {
    std::vector<double> ns;
    std::vector<double> times;
    for (std::uint32_t n = 256; n <= 16384; n *= 4) {
        const auto summary = plurality::sim::trial_executor{1}.run(
            10, 1000 + n, [n](std::uint64_t seed) {
                plurality::sim::trial_outcome out;
                out.success = true;
                out.parallel_time = measure_broadcast_time(n, 1, seed);
                return out;
            });
        ns.push_back(n);
        times.push_back(summary.time_stats.mean);
    }
    // A power-law fit should show strongly sublinear growth: exponent ~0.1
    // for logarithmic data over this range; anything below 0.4 rules out
    // polynomial behaviour.
    const auto fit = plurality::analysis::fit_power_law(ns, times);
    EXPECT_LT(fit.slope, 0.4);
    // And the per-log2(n) constant should be modest.
    for (std::size_t i = 0; i < ns.size(); ++i) {
        EXPECT_LT(times[i] / std::log2(ns[i]), 6.0);
        EXPECT_GT(times[i] / std::log2(ns[i]), 0.5);
    }
}

TEST(Epidemic, InformedCountHelper) {
    std::vector<epidemic_agent> agents(5);
    agents[1].informed = true;
    agents[3].informed = true;
    EXPECT_EQ(informed_count(agents), 2u);
}

}  // namespace
