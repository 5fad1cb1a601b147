// Generic driver for population protocols under the uniform random pairwise
// scheduler.
//
// A *protocol* is a value type that defines
//
//     using agent_t = ...;                               // per-agent state
//     void interact(agent_t& initiator, agent_t& responder, rng& gen);
//
// The `simulation` template owns the agent vector and the random stream and
// advances the configuration one interaction at a time.  Time is reported
// both in interactions and in *parallel time* (interactions / n), the
// standard notion used throughout the paper.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "obs/catalogue.h"
#include "obs/snapshot.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace plurality::sim {

template <class P>
concept protocol = requires(P p, typename P::agent_t& a, typename P::agent_t& b, rng& gen) {
    { p.interact(a, b, gen) };
};

/// Sentinel for "no interaction budget".
inline constexpr std::uint64_t unlimited_interactions = std::numeric_limits<std::uint64_t>::max();

/// Drives one protocol instance over one population.
template <protocol P>
class simulation {
public:
    using agent_t = typename P::agent_t;

    /// Takes ownership of the protocol instance (its parameters) and the
    /// initial configuration.  Requires at least two agents.
    simulation(P proto, std::vector<agent_t> agents, std::uint64_t seed)
        : protocol_(std::move(proto)),
          agents_(std::move(agents)),
          gen_(seed),
          scheduler_(static_cast<std::uint32_t>(agents_.size())) {}

    /// Executes exactly one interaction.
    ///
    /// Pairs come from the block scheduler, which pre-draws them in batches;
    /// whenever the upcoming pair is already known its two agents are
    /// prefetched so the interaction's loads hit cache.  The trajectory is
    /// the same whether callers step one interaction at a time or through
    /// `run_for` — the pair stream depends only on the seed.
    void step() {
        const interaction_pair pair = scheduler_.next(gen_);
        if (const interaction_pair* upcoming = scheduler_.peek()) {
            prefetch_agent(agents_.data() + upcoming->initiator);
            prefetch_agent(agents_.data() + upcoming->responder);
        }
        protocol_.interact(agents_[pair.initiator], agents_[pair.responder], gen_);
        ++interactions_;
    }

    /// Executes `count` interactions.
    void run_for(std::uint64_t count) {
        for (std::uint64_t i = 0; i < count; ++i) step();
    }

    [[nodiscard]] std::uint64_t interactions() const noexcept { return interactions_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return static_cast<double>(interactions_) / static_cast<double>(agents_.size());
    }

    [[nodiscard]] std::span<const agent_t> agents() const noexcept { return agents_; }
    [[nodiscard]] std::span<agent_t> agents_mutable() noexcept { return agents_; }
    [[nodiscard]] std::size_t population_size() const noexcept { return agents_.size(); }

    /// Visits every agent as a weight-1 state `(agent, 1)`; stops early when
    /// `fn` returns false.  This is the read API shared with the census
    /// backend (sim/census_simulator.h) — predicates written against it (via
    /// the helpers of sim/population_view.h) run unchanged on either
    /// backend.
    template <class Fn>
    void visit_states(Fn&& fn) const {
        for (const auto& agent : agents_) {
            if (!fn(agent, std::uint64_t{1})) return;
        }
    }

    [[nodiscard]] P& protocol_state() noexcept { return protocol_; }
    [[nodiscard]] const P& protocol_state() const noexcept { return protocol_; }

    /// Exposes the random stream, e.g. for protocols whose setup needs
    /// additional randomness tied to the same run.
    [[nodiscard]] rng& random() noexcept { return gen_; }

    /// Appends this run's metrics (end-of-trial cold path; see src/obs/).
    /// The agent backend keeps no per-step instruments — its hot loop is the
    /// protocol δ itself — so it reports the two universal deterministic
    /// counts every backend shares.
    void collect_metrics(obs::snapshot& out) const {
        out.add_counter(obs::m_interactions, interactions_);
        out.add_counter(obs::m_rng_words, gen_.words());
    }

private:
    P protocol_;
    std::vector<agent_t> agents_;
    rng gen_;
    block_scheduler scheduler_;
    std::uint64_t interactions_ = 0;
};

}  // namespace plurality::sim
