// Census-space simulation backend: simulate the *state census* instead of
// the agents.
//
// Population protocols are agent-anonymous — an interaction's outcome
// depends only on the two participants' states, never on their identities —
// so the configuration is fully described by the census (how many agents
// occupy each state).  `census_simulator` exploits that: it keeps one
// counter per occupied state, samples the interacting *state pair* from the
// census, applies the protocol's transition function δ to the two sampled
// states, and moves two units of mass.  Memory is O(S) in the number of
// reachable states instead of O(n) in the population, which is what makes
// populations of 10⁸–10⁹ agents simulable on a laptop (bench_e15_census);
// per-interaction cost is O(log S) via a Fenwick tree over the state counts.
//
// The backend draws the interacting pair uniformly over ordered pairs of
// *distinct agents* — the same distribution the agent-based
// `sim::simulation` scheduler uses — so both backends simulate the same
// Markov chain: convergence times agree in distribution (verified in
// tests/test_census_backend.cpp), though not trajectory-for-trajectory,
// because the two backends consume their random streams differently.  A run
// remains a pure function of the seed per backend.
//
// States are identified by a `census_codec`: an injective encoding of the
// agent state into a hashable key (see census_codec below).  New states
// discovered by δ are added on the fly, so no global state-space enumeration
// is ever required — S is whatever the run actually reaches.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/catalogue.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace plurality::sim {

/// An injective encoding of a protocol's agent state into a compact,
/// hashable key.  Two agents with equal keys MUST behave identically in
/// every interaction (the census merges them), so `encode` has to cover
/// every field the transition function reads or writes.  Keys are
/// `std::uint64_t` for small protocols or `std::array<std::uint64_t, N>`
/// when one word is not enough (see core::core_census_codec).
template <class C, class Agent>
concept census_codec = std::copy_constructible<Agent> && requires(const Agent& a) {
    typename C::key_t;
    { C::encode(a) } -> std::same_as<typename C::key_t>;
};

/// Hash functor for census keys (splitmix64-mixed; the raw keys are often
/// small dense integers, which std::hash passes through unmixed).
struct census_key_hash {
    [[nodiscard]] std::size_t operator()(std::uint64_t key) const noexcept {
        std::uint64_t state = key;
        return static_cast<std::size_t>(splitmix64_next(state));
    }
    template <std::size_t N>
    [[nodiscard]] std::size_t operator()(const std::array<std::uint64_t, N>& key) const noexcept {
        std::uint64_t state = 0x9e3779b97f4a7c15ull;
        std::uint64_t hash = 0;
        for (const std::uint64_t word : key) {
            state ^= word;
            hash ^= splitmix64_next(state);
        }
        return static_cast<std::size_t>(hash);
    }
};

/// One census slot of an initial configuration: `count` agents all holding
/// `state`.  Entries with equal encodings are merged; zero counts are
/// ignored.
template <class Agent>
struct census_entry {
    Agent state{};
    std::uint64_t count = 0;
};

/// Compresses a full agent vector into its census under `Codec`, merging
/// equal-key agents.  Shared by both census-space backends' agent-vector
/// convenience constructors; large-n callers should build entries directly.
template <class Codec, class Agent>
    requires census_codec<Codec, Agent>
[[nodiscard]] std::vector<census_entry<Agent>> compress_to_census(
    const std::vector<Agent>& agents) {
    std::vector<census_entry<Agent>> entries;
    std::unordered_map<typename Codec::key_t, std::size_t, census_key_hash> seen;
    for (const auto& agent : agents) {
        const auto [it, inserted] = seen.try_emplace(Codec::encode(agent), entries.size());
        if (inserted) entries.push_back({agent, 0});
        ++entries[it->second].count;
    }
    return entries;
}

/// Drives one protocol instance over one population, census-space.
///
/// API-compatible with `sim::simulation` where the two can be compatible:
/// `step`/`run_for`/`interactions`/`parallel_time`/`population_size`/
/// `protocol_state`/`random` match, so `sim::converge` and
/// `trace::recorder` work unchanged.  Instead of `agents()` (there is no
/// per-agent storage), configuration inspection goes through
/// `visit_states(fn)` — shared with `simulation` — and the weighted helpers
/// of sim/population_view.h.
template <protocol P, census_codec<typename P::agent_t> Codec>
class census_simulator {
public:
    using agent_t = typename P::agent_t;
    using key_t = typename Codec::key_t;
    using entry_t = census_entry<agent_t>;

    /// Takes ownership of the protocol instance and the initial census.
    /// Requires a total population of at least two agents.
    census_simulator(P proto, const std::vector<entry_t>& initial, std::uint64_t seed)
        : protocol_(std::move(proto)), gen_(seed) {
        for (const auto& entry : initial) population_ += entry.count;
        if (population_ < 2)
            throw std::invalid_argument("census_simulator requires a population of n >= 2");
        grow_tree(64);
        // The initial census bounds the states seen so far; reserving up
        // front cuts rehash churn on the discovery path.
        index_.reserve(initial.size());
        slots_.reserve(initial.size());
        for (const auto& entry : initial) {
            if (entry.count > 0) deposit(entry.state, entry.count);
        }
    }

    /// Convenience: compresses a full agent vector into its census.  Useful
    /// in tests that compare the two backends on identical configurations;
    /// large-n callers should build census entries directly.
    census_simulator(P proto, const std::vector<agent_t>& agents, std::uint64_t seed)
        : census_simulator(std::move(proto), compress_to_census<Codec>(agents), seed) {}

    /// Executes exactly one interaction: samples an ordered pair of distinct
    /// agents by state (initiator first, then responder among the remaining
    /// n-1), applies δ to copies of the two states, and re-deposits the
    /// resulting states.
    ///
    /// Unchanged states (the common case once the dynamics settle — most
    /// epidemic or converged-tail pairs are no-ops) skip the key->slot hash
    /// probe: their post-state key matches the slot they were just withdrawn
    /// from, so the mass goes straight back by index.
    void step() {
        const std::size_t initiator = locate(gen_.next_below(population_));
        withdraw(initiator);
        const std::size_t responder = locate(gen_.next_below(population_ - 1));
        withdraw(responder);
        metrics_.descents.add(2);
        agent_t u = slots_[initiator].state;
        agent_t v = slots_[responder].state;
        protocol_.interact(u, v, gen_);
        redeposit(u, initiator);
        redeposit(v, responder);
        ++interactions_;
    }

    /// Executes `count` interactions.
    void run_for(std::uint64_t count) {
        for (std::uint64_t i = 0; i < count; ++i) step();
    }

    [[nodiscard]] std::uint64_t interactions() const noexcept { return interactions_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return static_cast<double>(interactions_) / static_cast<double>(population_);
    }
    [[nodiscard]] std::size_t population_size() const noexcept {
        return static_cast<std::size_t>(population_);
    }

    /// Visits every *occupied* state as `(state, count)` in a deterministic
    /// (state-discovery) order; stops early when `fn` returns false.  The
    /// shared read API with `simulation::visit_states` — predicates written
    /// against it run on either backend.
    template <class Fn>
    void visit_states(Fn&& fn) const {
        for (const auto& slot : slots_) {
            if (slot.count > 0 && !fn(slot.state, slot.count)) return;
        }
    }

    /// Number of currently occupied states (the S that memory scales with).
    /// Maintained incrementally — an O(1) read, not an O(S) scan.
    [[nodiscard]] std::size_t occupied_states() const noexcept { return occupied_; }

    /// Number of states seen at any point of the run (dormant slots are kept
    /// so revisited states reuse their slot).
    [[nodiscard]] std::size_t reachable_states() const noexcept { return slots_.size(); }

    /// Count of agents currently in the given state (0 if never reached).
    [[nodiscard]] std::uint64_t count_of(const agent_t& state) const {
        const auto it = index_.find(Codec::encode(state));
        return it == index_.end() ? 0 : slots_[it->second].count;
    }

    /// Approximate heap footprint of the census bookkeeping — the O(S)
    /// quantity bench_e15_census reports next to n.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return slots_.capacity() * sizeof(slot) + tree_.capacity() * sizeof(std::uint64_t) +
               index_.size() * (sizeof(key_t) + sizeof(std::uint32_t) + 2 * sizeof(void*));
    }

    [[nodiscard]] P& protocol_state() noexcept { return protocol_; }
    [[nodiscard]] const P& protocol_state() const noexcept { return protocol_; }

    /// Bench/test hooks for the Fenwick rank→slot descent: `locate_rank` is
    /// the branchless production path `step()` uses, `locate_rank_reference`
    /// the straightforward guarded loop it replaced.  bench_e15_census A/Bs
    /// them; tests assert they agree on every rank.  `rank < population`.
    [[nodiscard]] std::size_t locate_rank(std::uint64_t rank) const noexcept {
        return locate(rank);
    }
    [[nodiscard]] std::size_t locate_rank_reference(std::uint64_t rank) const noexcept {
        std::size_t position = 0;
        std::uint64_t remaining = rank;
        for (std::size_t step = capacity_; step > 0; step >>= 1) {
            const std::size_t next = position + step;
            if (next <= capacity_ && tree_[next] <= remaining) {
                position = next;
                remaining -= tree_[next];
            }
        }
        return position;
    }

    /// Exposes the random stream (same contract as simulation::random).
    [[nodiscard]] rng& random() noexcept { return gen_; }

    /// Appends this run's metrics (end-of-trial cold path; see src/obs/).
    /// All values are deterministic per seed.
    void collect_metrics(obs::snapshot& out) const {
        out.add_counter(obs::m_interactions, interactions_);
        out.add_counter(obs::m_rng_words, gen_.words());
        out.add_counter(obs::m_fenwick_descents, metrics_.descents.value());
        out.add_gauge(obs::m_occupied_hwm, metrics_.occupied_hwm.value());
        out.add_gauge(obs::m_reachable_states, slots_.size());
    }

private:
    struct slot {
        agent_t state;
        key_t key{};  ///< Codec::encode(state), cached for the step fast path
        std::uint64_t count = 0;
    };

    struct instrument_set {
        obs::counter descents;
        obs::gauge occupied_hwm;
    };

    /// Adds `count` agents in `state`, creating its slot on first sight.
    void deposit(const agent_t& state, std::uint64_t count) {
        deposit_keyed(state, Codec::encode(state), count);
    }

    void deposit_keyed(const agent_t& state, const key_t& key, std::uint64_t count) {
        const auto [it, inserted] =
            index_.try_emplace(key, static_cast<std::uint32_t>(slots_.size()));
        if (inserted) {
            if (slots_.size() == capacity_) grow_tree(capacity_ * 2);
            slots_.push_back({state, key, 0});
        }
        if (slots_[it->second].count == 0 && count > 0) {
            ++occupied_;
            metrics_.occupied_hwm.record_max(occupied_);
        }
        slots_[it->second].count += count;
        tree_add(it->second, static_cast<std::int64_t>(count));
    }

    /// Returns one agent in `state` that was just withdrawn from slot
    /// `origin`: when the interaction left the state unchanged the mass goes
    /// straight back by index, bypassing the hash map.
    void redeposit(const agent_t& state, std::size_t origin) {
        const key_t key = Codec::encode(state);
        if (key == slots_[origin].key) {
            if (slots_[origin].count == 0) {
                ++occupied_;
                metrics_.occupied_hwm.record_max(occupied_);
            }
            ++slots_[origin].count;
            tree_add(origin, 1);
            return;
        }
        deposit_keyed(state, key, 1);
    }

    /// Removes one agent from slot `index` (which must be occupied).
    void withdraw(std::size_t index) {
        if (--slots_[index].count == 0) --occupied_;
        tree_add(index, -1);
    }

    // -- Fenwick tree over slot counts (1-based, power-of-two capacity) -----

    void grow_tree(std::size_t capacity) {
        capacity_ = capacity;
        tree_.assign(capacity_ + 1, 0);
        for (std::size_t i = 0; i < slots_.size(); ++i)
            tree_add(i, static_cast<std::int64_t>(slots_[i].count));
    }

    void tree_add(std::size_t index, std::int64_t delta) {
        for (std::size_t i = index + 1; i <= capacity_; i += i & (~i + 1)) {
            tree_[i] = static_cast<std::uint64_t>(static_cast<std::int64_t>(tree_[i]) + delta);
        }
    }

    /// Slot containing the agent with zero-based rank `rank` in cumulative
    /// count order: the largest prefix p with sum(slots[0..p)) <= rank.
    ///
    /// Branchless descent.  `capacity_` is a power of two, so `tree_` is a
    /// perfect binary heap over [1, capacity_]: the root `tree_[capacity_]`
    /// holds the whole population, which no valid rank can reach, so the
    /// walk starts one level down — and from there `position` is always a
    /// multiple of 2·step, so `position + step <= capacity_` holds without a
    /// bounds check.  The take/skip decision is data-dependent on a random
    /// rank (a ~50/50 coin at every level — the worst case for a branch
    /// predictor), so both updates are written as ternaries for the compiler
    /// to lower to conditional moves, and the two possible children of the
    /// next level are prefetched while the current comparison resolves.
    [[nodiscard]] std::size_t locate(std::uint64_t rank) const noexcept {
        std::size_t position = 0;
        std::uint64_t remaining = rank;
        const std::uint64_t* const tree = tree_.data();
        for (std::size_t step = capacity_ >> 1; step > 0; step >>= 1) {
            const std::size_t next = position + step;
            const std::uint64_t node = tree[next];
#if defined(__GNUC__) || defined(__clang__)
            if (step > 1) {
                __builtin_prefetch(&tree[position + (step >> 1)]);
                __builtin_prefetch(&tree[next + (step >> 1)]);
            }
#endif
            const bool take = node <= remaining;
            position = take ? next : position;
            remaining = take ? remaining - node : remaining;
        }
        return position;
    }

    P protocol_;
    rng gen_;
    std::vector<slot> slots_;  ///< discovery-ordered; dormant slots keep their index
    std::unordered_map<key_t, std::uint32_t, census_key_hash> index_;  ///< key -> slot
    std::vector<std::uint64_t> tree_;  ///< Fenwick tree over slot counts
    std::size_t occupied_ = 0;         ///< slots with count > 0
    std::size_t capacity_ = 0;         ///< tree capacity (power of two)
    std::uint64_t population_ = 0;     ///< invariant: Σ slot counts
    std::uint64_t interactions_ = 0;
    instrument_set metrics_;
};

}  // namespace plurality::sim
