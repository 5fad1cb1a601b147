#include "scenario/scenario.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace plurality::scenario {

const char* backend_name(backend_kind backend) noexcept {
    switch (backend) {
        case backend_kind::census: return "census";
        case backend_kind::leap: return "leap";
        case backend_kind::agent: break;
    }
    return "agent";
}

std::optional<backend_kind> parse_backend(std::string_view name) noexcept {
    if (name == "agent") return backend_kind::agent;
    if (name == "census") return backend_kind::census;
    if (name == "leap") return backend_kind::leap;
    return std::nullopt;
}

const char* backend_list() noexcept { return "agent|census|leap"; }

workload::opinion_distribution make_workload(const scenario_params& params, sim::rng& gen) {
    if (params.workload == "bias1")
        return workload::make_bias_one(params.n, params.k, params.bias);
    if (params.workload == "uniform") return workload::make_uniform_random(params.n, params.k, gen);
    if (params.workload == "zipf")
        return workload::make_zipf(params.n, params.k, params.zipf_s, gen);
    if (params.workload == "dominant")
        return workload::make_dominant_plus_dust(params.n, params.fraction, params.dust);
    if (params.workload == "two-heavy")
        return workload::make_two_heavy_plus_dust(params.n, params.bias, params.dust);
    throw std::invalid_argument("unknown workload '" + params.workload +
                                "' (expected bias1|uniform|zipf|dominant|two-heavy)");
}

std::uint64_t parse_unsigned_flag(std::string_view flag, const char* text, std::uint64_t max) {
    // strtoull alone accepts leading whitespace and a sign ("-1" wraps to
    // 2^64 - 1 without setting errno), so require a leading digit.
    char* end = nullptr;
    errno = 0;
    const unsigned long long value =
        std::isdigit(static_cast<unsigned char>(text[0])) ? std::strtoull(text, &end, 10) : 0;
    if (end == nullptr || *end != '\0' || errno == ERANGE || value > max) {
        throw std::invalid_argument("invalid " + std::string(flag) + " '" + text +
                                    "' (expected an integer in [0, " + std::to_string(max) +
                                    "])");
    }
    return value;
}

double parse_real_flag(std::string_view flag, const char* text, double min, double max,
                       bool min_exclusive) {
    // strtod skips leading whitespace and accepts "nan"/"inf"; the caller
    // must get exactly the number it typed or an error.
    char* end = nullptr;
    errno = 0;
    const double value =
        std::isspace(static_cast<unsigned char>(text[0])) ? 0.0 : std::strtod(text, &end);
    const bool below = min_exclusive ? !(value > min) : !(value >= min);
    if (end == nullptr || end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value) || below || value > max) {
        std::ostringstream range;
        if (std::isinf(max)) {
            range << (min_exclusive ? "> " : ">= ") << min;
        } else {
            range << "in " << (min_exclusive ? '(' : '[') << min << ", " << max << ']';
        }
        throw std::invalid_argument("invalid " + std::string(flag) + " '" + text +
                                    "' (expected a finite number " + range.str() + ")");
    }
    return value;
}

flag_parse parse_param_flag(scenario_params& params, int argc, char** argv, int& i) {
    const std::string_view flag = argv[i];
    const auto is_param = flag == "--n" || flag == "--k" || flag == "--workload" ||
                          flag == "--bias" || flag == "--dust" || flag == "--fraction" ||
                          flag == "--zipf-s" || flag == "--sources" || flag == "--time-budget";
    if (!is_param) return flag_parse::not_mine;
    if (i + 1 >= argc) return flag_parse::missing_value;
    const char* value = argv[++i];
    const auto u32 = [&] {
        return static_cast<std::uint32_t>(
            parse_unsigned_flag(flag, value, std::numeric_limits<std::uint32_t>::max()));
    };
    constexpr double unbounded = std::numeric_limits<double>::infinity();
    if (flag == "--n") {
        params.n = u32();
    } else if (flag == "--k") {
        params.k = u32();
    } else if (flag == "--workload") {
        params.workload = value;
    } else if (flag == "--bias") {
        params.bias = u32();
    } else if (flag == "--dust") {
        params.dust = u32();
    } else if (flag == "--fraction") {
        params.fraction = parse_real_flag(flag, value, 0.0, 100.0) / 100.0;
    } else if (flag == "--zipf-s") {
        params.zipf_s = parse_real_flag(flag, value, 0.0, unbounded);
    } else if (flag == "--sources") {
        params.sources = u32();
    } else {  // --time-budget
        params.time_budget = parse_real_flag(flag, value, 0.0, unbounded);
    }
    return flag_parse::consumed;
}

}  // namespace plurality::scenario
