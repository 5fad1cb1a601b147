// Tests for the unified scenario layer: registry completeness (every
// registered scenario runs to convergence at small n and reports sane
// metrics), determinism of the multi-trial runner across thread counts, and
// registry bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "scenario/builtin.h"
#include "scenario/json_report.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/trial_executor.h"

namespace {

using namespace plurality;
using scenario::scenario_params;
using scenario::scenario_registry;

/// Small-but-safe parameters per family: sizes where every protocol
/// converges deterministically fast, with biases comfortably inside each
/// protocol's w.h.p. regime where convergence (not correctness) needs it.
scenario_params small_params(const std::string& family) {
    scenario_params p;
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

TEST(ScenarioRegistry, CoversEveryProtocolDirectory) {
    const auto& registry = scenario_registry::instance();
    EXPECT_GE(registry.size(), 9u);

    std::set<std::string> families;
    for (const auto& s : registry.all()) families.insert(s.family());
    const std::set<std::string> expected{"plurality", "baselines", "majority",
                                         "epidemic",  "leader",    "loadbalance"};
    EXPECT_EQ(families, expected);
}

TEST(ScenarioRegistry, NamesAreSortedAndFindable) {
    const auto& registry = scenario_registry::instance();
    std::string previous;
    for (const auto& s : registry.all()) {
        EXPECT_LT(previous, s.name());
        previous = s.name();
        const auto* found = registry.find(s.name());
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->name(), s.name());
    }
    EXPECT_EQ(registry.find("no/such-scenario"), nullptr);
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
    scenario_registry registry;
    scenario::register_builtin_scenarios(registry);
    EXPECT_THROW(scenario::register_builtin_scenarios(registry), std::invalid_argument);
}

TEST(ScenarioRegistry, EveryScenarioConvergesAtSmallN) {
    for (const auto& s : scenario_registry::instance().all()) {
        const auto params = small_params(s.family());
        const auto out = s.run(params, 1);
        EXPECT_TRUE(out.converged) << s.name();
        EXPECT_GT(out.parallel_time, 0.0) << s.name();
        EXPECT_GT(out.interactions, 0u) << s.name();
        EXPECT_FALSE(out.metrics.empty()) << s.name();
        for (const auto& m : out.metrics) {
            EXPECT_FALSE(m.name.empty()) << s.name();
            EXPECT_TRUE(std::isfinite(m.value)) << s.name() << ":" << m.name;
        }
    }
}

TEST(ScenarioRunner, SummaryCountsConvergedAndCorrect) {
    const auto* s = scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    const sim::trial_executor executor{1};
    const auto result =
        scenario::run_scenario_trials(*s, small_params("epidemic"), 4, 77, executor);
    EXPECT_EQ(result.outcomes.size(), 4u);
    EXPECT_EQ(result.summary.trials, 4u);
    EXPECT_EQ(result.summary.converged, 4u);
    EXPECT_EQ(result.summary.correct, 4u);
    EXPECT_DOUBLE_EQ(result.summary.success_rate(), 1.0);
    ASSERT_EQ(result.summary.mean_metrics.size(), 1u);
    EXPECT_EQ(result.summary.mean_metrics[0].name, "informed_fraction");
    EXPECT_DOUBLE_EQ(result.summary.mean_metrics[0].value, 1.0);
}

TEST(ScenarioRunner, JsonReportIsByteIdenticalAcrossThreadCounts) {
    const auto* s = scenario_registry::instance().find("baselines/usd");
    ASSERT_NE(s, nullptr);
    const auto params = small_params("baselines");

    const auto report_at = [&](std::size_t threads) {
        const sim::trial_executor executor{threads};
        const auto result = scenario::run_scenario_trials(*s, params, 6, 123, executor);
        std::ostringstream os;
        scenario::write_json_report(os, *s, params, 123, result);
        return os.str();
    };
    const std::string sequential = report_at(1);
    const std::string parallel = report_at(3);
    EXPECT_EQ(sequential, parallel);
}

TEST(ScenarioRunner, TracedRunMatchesPlainRunAndAnchorsAtTimeZero) {
    const auto* s = scenario_registry::instance().find("loadbalance/averaging");
    ASSERT_NE(s, nullptr);
    const auto params = small_params("loadbalance");

    const auto plain = s->run(params, 9);
    std::ostringstream csv;
    const auto traced = s->run_traced(params, 9, 100.0, csv);
    EXPECT_EQ(plain.converged, traced.converged);
    EXPECT_DOUBLE_EQ(plain.parallel_time, traced.parallel_time);
    EXPECT_EQ(plain.interactions, traced.interactions);

    // First CSV row is the t = 0 sample even though the cadence (100) far
    // exceeds the check interval (1 parallel-time unit).  The header row
    // follows the `#` comment block documenting the column units.
    const std::string text = csv.str();
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line) && line.starts_with("#")) {
    }
    EXPECT_EQ(line, "parallel_time,discrepancy,total_load");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.substr(0, 2), "0,");
}

TEST(ScenarioBackends, ParseBackendAcceptsExactlyTheAdvertisedList) {
    // backend_list() is the single source of truth for CLI error messages:
    // every pipe-separated name it advertises must parse, round-trip through
    // backend_name, and anything else must be rejected.
    std::string names = scenario::backend_list();
    std::size_t parsed = 0;
    for (std::size_t start = 0; start <= names.size();) {
        std::size_t end = names.find('|', start);
        if (end == std::string::npos) end = names.size();
        const std::string name = names.substr(start, end - start);
        const auto backend = scenario::parse_backend(name);
        ASSERT_TRUE(backend.has_value()) << name;
        EXPECT_EQ(scenario::backend_name(*backend), name);
        ++parsed;
        start = end + 1;
    }
    EXPECT_EQ(parsed, 3u);
    EXPECT_FALSE(scenario::parse_backend("warp").has_value());
    EXPECT_FALSE(scenario::parse_backend("").has_value());
    EXPECT_FALSE(scenario::parse_backend("Leap").has_value());
    EXPECT_FALSE(scenario::parse_backend("batch").has_value());
}

TEST(ScenarioFlags, IntegerFlagsAreRangeCheckedNotWrapped) {
    EXPECT_EQ(scenario::parse_unsigned_flag("--n", "4294967295", 0xffffffffull), 0xffffffffull);
    EXPECT_EQ(scenario::parse_unsigned_flag("--seed", "18446744073709551615", ~0ull), ~0ull);
    EXPECT_EQ(scenario::parse_unsigned_flag("--k", "0", 10), 0u);
    for (const char* bad : {"4294967296", "-1", "+1", " 7", "7x", "", "0x10", "1e3"}) {
        EXPECT_THROW((void)scenario::parse_unsigned_flag("--n", bad, 0xffffffffull),
                     std::invalid_argument)
            << '\'' << bad << '\'';
    }
    EXPECT_THROW((void)scenario::parse_unsigned_flag("--seed", "18446744073709551616", ~0ull),
                 std::invalid_argument);

    // Through the shared params parser: the value is rejected, the field is
    // left alone, and the message names flag, text and range on one line.
    scenario_params p;
    std::string args[] = {"prog", "--n", "5000000000"};
    char* argv[] = {args[0].data(), args[1].data(), args[2].data()};
    int i = 1;
    try {
        (void)scenario::parse_param_flag(p, 3, argv, i);
        ADD_FAILURE() << "--n 5000000000 was accepted as " << p.n;
    } catch (const std::invalid_argument& error) {
        EXPECT_STREQ(error.what(),
                     "invalid --n '5000000000' (expected an integer in [0, 4294967295])");
    }
    EXPECT_EQ(p.n, scenario_params{}.n);
}

TEST(ScenarioFlags, RealFlagsAreWholeTextFiniteAndInRange) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    EXPECT_DOUBLE_EQ(scenario::parse_real_flag("--time-budget", "0.05", 0.0, inf), 0.05);
    EXPECT_DOUBLE_EQ(scenario::parse_real_flag("--time-budget", "0", 0.0, inf), 0.0);
    EXPECT_DOUBLE_EQ(scenario::parse_real_flag("--time-budget", "1e3", 0.0, inf), 1000.0);
    EXPECT_DOUBLE_EQ(scenario::parse_real_flag("--fraction", "100", 0.0, 100.0), 100.0);
    for (const char* bad : {"abc", "", " 1", "1 ", "2x", "-3", "nan", "inf", "-inf", "1e999"}) {
        EXPECT_THROW((void)scenario::parse_real_flag("--time-budget", bad, 0.0, inf),
                     std::invalid_argument)
            << '\'' << bad << '\'';
    }
    EXPECT_THROW((void)scenario::parse_real_flag("--fraction", "100.5", 0.0, 100.0),
                 std::invalid_argument);
    // An exclusive lower bound rejects the bound itself.
    EXPECT_THROW((void)scenario::parse_real_flag("--trace-cadence", "0", 0.0, inf, true),
                 std::invalid_argument);
    EXPECT_DOUBLE_EQ(scenario::parse_real_flag("--trace-cadence", "0.5", 0.0, inf, true), 0.5);

    // Through the shared params parser: each real flag rejects garbage with
    // a one-line message, leaving the field at its default.
    for (const std::string flag : {"--time-budget", "--fraction", "--zipf-s"}) {
        scenario_params p;
        std::string args[] = {"prog", flag, "abc"};
        char* argv[] = {args[0].data(), args[1].data(), args[2].data()};
        int i = 1;
        EXPECT_THROW((void)scenario::parse_param_flag(p, 3, argv, i), std::invalid_argument)
            << flag;
        EXPECT_EQ(p.time_budget, scenario_params{}.time_budget);
        EXPECT_EQ(p.fraction, scenario_params{}.fraction);
        EXPECT_EQ(p.zipf_s, scenario_params{}.zipf_s);
    }
    scenario_params p;
    std::string args[] = {"prog", "--time-budget", "-3"};
    char* argv[] = {args[0].data(), args[1].data(), args[2].data()};
    int i = 1;
    try {
        (void)scenario::parse_param_flag(p, 3, argv, i);
        ADD_FAILURE() << "--time-budget -3 was accepted as " << p.time_budget;
    } catch (const std::invalid_argument& error) {
        EXPECT_STREQ(error.what(), "invalid --time-budget '-3' (expected a finite number >= 0)");
    }
}

TEST(ScenarioWorkloads, UnknownNameThrows) {
    scenario_params p;
    p.workload = "banana";
    sim::rng gen(1);
    EXPECT_THROW((void)scenario::make_workload(p, gen), std::invalid_argument);
}

}  // namespace
