// Run-batching census backend: many interactions per unit of bookkeeping
// work, *exactly* the same sequential Markov chain as the per-interaction
// backends.
//
// The per-step census backend (sim/census_simulator.h) pays two Fenwick
// descents, a δ call and up to four tree updates for every interaction.  For
// small-S protocols almost all of that work is redundant: under the uniform
// pairwise scheduler, long prefixes of the interaction sequence touch
// pairwise-distinct agents (the birthday problem — the expected prefix is
// Θ(√n)), and within such a *collision-free run* the interactions commute.
// A run is therefore fully described by its ordered (initiator-state ×
// responder-state) contingency table, and this backend samples that table
// directly, one run at a time:
//
//   1. Run length L: one uniform inverted through the closed-form
//      log-survival function (dist::sample_collision_free_run_leap) —
//      O(log L) worst case, O(1) expected, instead of walking the survival
//      product one interaction at a time.
//   2. Participants: one multivariate-hypergeometric draw of the 2L
//      participants over the occupied census, compacted to the states that
//      take part (at most 2L of them), then one MVH split of the initiator
//      half within those.  Every stage after the full-width draw is sized by
//      the participating states, not the occupied ones.
//   3. The table: a uniform random bijection between the initiator and
//      responder multisets, sampled row by row by sequential MVH
//      conditioning.  δ applies once per nonzero cell, on census slot
//      indices: one memoized δ result for a pair the protocol declares
//      deterministic; for a pair with a declared outcome distribution (the
//      randomized-δ group path, sim/group_delta.h), one lookup of its
//      outcome slot pairs — enumerated once per simulation — and one
//      multinomial split;
//      one δ call per interaction for any other pair — so every protocol
//      runs, and runs exactly.  Post-states land in per-slot post-run
//      counts.
//   4. If the run ended in a collision rather than at the caller's budget,
//      the colliding interaction is executed from its exact conditional
//      distribution: a uniform ordered pair of distinct agents conditioned
//      on touching at least one run participant, whose state is its
//      post-run state (the three-case decode of sim/group_delta.h).
//
// Census keys (Codec::encode plus a hash lookup) are computed only for the
// results of δ calls: when a pair's outcome distribution is enumerated,
// when a deterministic pair misses its memo, per fallback interaction, and
// for a randomized colliding interaction's two post-states — so the
// grouped and deterministic paths encode O(1) states per run rather than
// O(cells).
// A post-state gets its slot index when first met, but joins the census —
// `reachable_states`, `visit_states`' discovery order — only when first
// re-deposited with a nonzero count, exactly as if slots were created at
// re-deposit time.
//
// Steps 1–4 repeat until the requested interaction count is reached; the
// final run is truncated so `run_for` executes *exactly* the requested number
// of interactions and `sim::converge`'s budget accounting stays exact.  A
// census with a single occupied, quiescent state executes the whole budget
// in O(1).  Per-run cost is O(occupied) for the participant draw plus
// O(participating²) for the split and the table — independent of L up to the
// O(σ) ≈ O(n^¼) enumeration inside each mode-centered variate — so at
// n = 10⁹ with a handful of occupied states a run of ~2·10⁴ interactions
// costs a few dozen variates.  bench_e17_leap measures the ratio against the
// per-step census backend (acceptance bar: ≥ 25× on epidemic and three-state
// at n = 10⁹).
//
// Correctness sketch: the scheduler's interaction sequence is i.i.d. uniform
// over ordered pairs of distinct agents.  Decompose it by the position of
// the first collision: the prefix, conditioned on being collision-free, is a
// uniform without-replacement draw of 2L distinct agents — and because no
// agent appears twice, each interaction's inputs are the agents' pre-run
// states, so the per-pair transitions commute and only the *multiset* of
// ordered state pairs matters.  Drawing the 2L participants' states, then
// which of them sit in initiator slots, then the pairing, is an exact
// factorization of that multiset's law (exchangeability of
// without-replacement draws).  The colliding interaction is sampled from its
// exact conditional distribution given the set of used agents.  Convergence
// time distributions therefore agree with the agent and per-step census
// backends (tests/test_leap_backend.cpp and tests/test_census_backend.cpp
// pin this at 5σ); runs are pure functions of the seed, and per-seed
// trajectories are backend-specific, as with every backend.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/catalogue.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "sim/census_simulator.h"
#include "sim/delta_outcomes.h"
#include "sim/group_delta.h"
#include "sim/random_dist.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace plurality::sim {

/// Drives one protocol instance over one population, census-space, leaping
/// whole collision-free runs via their pair-type contingency table.
/// Satisfies the same `steppable_simulation` / `visit_states` contracts as
/// the other backends, so `sim::converge`, `trace::recorder` and the
/// sim::view helpers work unchanged.
/// A leap run at n = 10⁹ is ~10 µs of work, so the phase timers are
/// run-granular — a handful of clock reads per sampled run (obs/metrics.h).
template <protocol P, census_codec<typename P::agent_t> Codec>
class leap_census_simulator {
public:
    using agent_t = typename P::agent_t;
    using key_t = typename Codec::key_t;
    using entry_t = census_entry<agent_t>;

    /// Takes ownership of the protocol instance and the initial census.
    /// Requires a total population of at least two agents.
    leap_census_simulator(P proto, const std::vector<entry_t>& initial, std::uint64_t seed)
        : protocol_(std::move(proto)), gen_(seed) {
        for (const auto& entry : initial) population_ += entry.count;
        if (population_ < 2)
            throw std::invalid_argument("leap_census_simulator requires n >= 2");
        index_.reserve(initial.size());
        slots_.reserve(initial.size());
        for (const auto& entry : initial) {
            if (entry.count > 0) {
                adjust(slot_of(entry.state), static_cast<std::int64_t>(entry.count));
            }
        }
    }

    /// Convenience: compresses a full agent vector into its census (small-n
    /// tests comparing backends on identical configurations).
    leap_census_simulator(P proto, const std::vector<agent_t>& agents, std::uint64_t seed)
        : leap_census_simulator(std::move(proto), compress_to_census<Codec>(agents), seed) {}

    /// Executes exactly one interaction (a run truncated to length 1).
    void step() { run_for(1); }

    /// Executes exactly `count` interactions, one collision-free run at a
    /// time; the last run is truncated to land on `count` precisely.
    void run_for(std::uint64_t count) {
        while (count > 0) count -= leap_run(count);
    }

    [[nodiscard]] std::uint64_t interactions() const noexcept { return interactions_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return static_cast<double>(interactions_) / static_cast<double>(population_);
    }
    [[nodiscard]] std::size_t population_size() const noexcept {
        return static_cast<std::size_t>(population_);
    }

    /// Visits every occupied state as `(state, count)` in state-discovery
    /// order; stops early when `fn` returns false.  The read API shared with
    /// the other backends.
    template <class Fn>
    void visit_states(Fn&& fn) const {
        for (const std::uint32_t i : discovered_) {
            const auto& slot = slots_[i];
            if (slot.count > 0 && !fn(slot.state, slot.count)) return;
        }
    }

    /// Number of currently occupied states.
    [[nodiscard]] std::size_t occupied_states() const noexcept { return occupied_; }

    /// Number of states seen at any point of the run.
    [[nodiscard]] std::size_t reachable_states() const noexcept { return discovered_.size(); }

    /// Count of agents currently in the given state (0 if never reached).
    [[nodiscard]] std::uint64_t count_of(const agent_t& state) const {
        const auto it = index_.find(Codec::encode(state));
        return it == index_.end() ? 0 : slots_[it->second].count;
    }

    [[nodiscard]] P& protocol_state() noexcept { return protocol_; }
    [[nodiscard]] const P& protocol_state() const noexcept { return protocol_; }

    /// Exposes the random stream (same contract as the other backends).
    [[nodiscard]] rng& random() noexcept { return gen_; }

    /// Appends this run's metrics (end-of-trial cold path; see src/obs/).
    /// Counters, gauges and histograms are deterministic per seed; the
    /// phase timers are wall-clock and surface only in the sidecar's timing
    /// section.
    void collect_metrics(obs::snapshot& out) const {
        out.add_counter(obs::m_interactions, interactions_);
        out.add_counter(obs::m_rng_words, gen_.words());
        out.add_counter(obs::m_runs, metrics_.runs.value());
        out.add_counter(obs::m_collisions, metrics_.collisions.value());
        out.add_counter(obs::m_absorbed_fastpath, metrics_.absorbed.value());
        out.add_counter(obs::m_delta_deterministic, metrics_.delta_deterministic.value());
        out.add_counter(obs::m_delta_grouped, metrics_.delta_grouped.value());
        out.add_counter(obs::m_delta_fallback, metrics_.delta_fallback.value());
        out.add_counter(obs::m_table_hits, delta_table_.hits());
        out.add_counter(obs::m_table_misses, delta_table_.misses());
        out.add_gauge(obs::m_occupied_hwm, metrics_.occupied_hwm.value());
        out.add_gauge(obs::m_reachable_states, discovered_.size());
        out.add_histogram(obs::m_run_length, metrics_.run_length);
        // Timers sample every obs::phase_sample_every-th run; scale the
        // accumulated seconds back up to estimate the full phase time.
        constexpr auto scale = static_cast<double>(obs::phase_sample_every);
        out.add_timer(obs::m_phase_run_length, metrics_.t_run_length.seconds() * scale);
        out.add_timer(obs::m_phase_margins, metrics_.t_margins.seconds() * scale);
        out.add_timer(obs::m_phase_table, metrics_.t_table.seconds() * scale);
        out.add_timer(obs::m_phase_collision, metrics_.t_collision.seconds() * scale);
    }

private:
    struct slot {
        agent_t state;
        std::uint64_t count = 0;
        bool listed = false;      ///< currently present in occupied_list_
        bool discovered = false;  ///< ever occupied: present in discovered_
    };

    struct instrument_set {
        obs::counter runs;
        obs::counter collisions;
        obs::counter absorbed;
        obs::counter delta_deterministic;
        obs::counter delta_grouped;
        obs::counter delta_fallback;
        obs::gauge occupied_hwm;
        obs::log2_histogram run_length;
        obs::phase_timer t_run_length;
        obs::phase_timer t_margins;
        obs::phase_timer t_table;
        obs::phase_timer t_collision;
    };

    /// One leap: a collision-free run truncated at `budget`, plus the
    /// colliding interaction when the run ended naturally.  Returns the
    /// number of interactions executed (>= 1).
    std::uint64_t leap_run(std::uint64_t budget) {
        // Snapshot the occupied census slots: all draws below are over the
        // pre-run counts.  `occupied_list_` tracks occupied slots
        // incrementally and drops dormant ones lazily, in place, preserving
        // discovery order, so a run costs O(occupied) rather than
        // O(reachable) — protocols that keep discovering fresh states (the
        // tournament families) would otherwise degrade as dormant slots pile
        // up.  Consumes no randomness, so it can run before the run-length
        // draw and feed the absorbed-census check.
        counts_.clear();
        std::size_t keep = 0;
        for (std::size_t r = 0; r < occupied_list_.size(); ++r) {
            const std::uint32_t i = occupied_list_[r];
            if (slots_[i].count == 0) {
                slots_[i].listed = false;
                continue;
            }
            occupied_list_[keep++] = i;
            counts_.push_back(slots_[i].count);
        }
        occupied_list_.resize(keep);

        // Absorbed-census fast path: with a single occupied state and a
        // quiescent δ(s, s) = (s, s) — declared deterministic, or a declared
        // outcome distribution whose only outcome is the identity — every
        // future interaction is a no-op: execute the whole budget in O(1).
        // The skipped draws can never matter: no later interaction can read
        // them into the census.
        if (occupied_list_.size() == 1) {
            const std::uint32_t only = occupied_list_[0];
            bool quiescent = false;
            if constexpr (declares_deterministic_delta<P>) {
                if (protocol_.deterministic_delta(slots_[only].state, slots_[only].state)) {
                    const auto [u, v] = deterministic(only, only);
                    quiescent = u == only && v == only;
                }
            }
            if constexpr (declares_delta_outcomes<P>) {
                if (!quiescent) {
                    const auto outcomes = delta_table_.outcomes(lookup(only, only));
                    quiescent = outcomes.size() == 1 && outcomes[0].initiator == only &&
                                outcomes[0].responder == only;
                }
            }
            if (quiescent) {
                interactions_ += budget;
                metrics_.absorbed.add(budget);
                return budget;
            }
        }

        // Phase boundaries are one clock read each, at *run* granularity, on
        // every phase_sample_every-th run only (~17 ns per read adds up over
        // ~10⁶ runs; the 1-in-64 sample is scaled back up at collection).
        const bool timed = metrics_.runs.value() % obs::phase_sample_every == 0;
        const std::uint64_t t0 = timed ? obs::now_ticks() : 0;
        const auto run = dist::sample_collision_free_run_leap(gen_, population_, budget);
        const std::uint64_t pairs = run.length;
        metrics_.runs.add(1);
        metrics_.run_length.record(pairs);
        const std::uint64_t t1 = timed ? obs::now_ticks() : 0;
        if (timed) metrics_.t_run_length.add_ticks(t1 - t0);

        // The run's 2L participants, grouped by state (drawn without
        // replacement) and withdrawn from the census up front.  Compact to
        // the states that take part right away: every stage below is
        // quadratic-ish in the category count, and zero-draw categories
        // consumed no randomness, so compaction leaves the stream unchanged.
        participants_.assign(occupied_list_.size(), 0);
        dist::multivariate_hypergeometric(gen_, counts_, 2 * pairs, participants_);
        pslots_.clear();
        presp_.clear();
        for (std::size_t j = 0; j < occupied_list_.size(); ++j) {
            if (participants_[j] == 0) continue;
            adjust(occupied_list_[j], -static_cast<std::int64_t>(participants_[j]));
            pslots_.push_back(occupied_list_[j]);
            presp_.push_back(participants_[j]);
        }

        // Split into the initiator half; the responder counts follow by
        // subtraction.
        pinit_.assign(pslots_.size(), 0);
        dist::multivariate_hypergeometric(gen_, presp_, pairs, pinit_);
        for (std::size_t j = 0; j < pslots_.size(); ++j) presp_[j] -= pinit_[j];

        const std::uint64_t t2 = timed ? obs::now_ticks() : 0;
        if (timed) metrics_.t_margins.add_ticks(t2 - t1);

        // The pair-type table: pair the margins by a uniform random
        // bijection, sampled as sequentially-conditioned rows — one MVH of
        // initiator state j's row over the responders still unpaired; δ
        // applies once per nonzero cell.
        post_.clear();
        for (std::size_t j = 0; j < pslots_.size(); ++j) {
            if (pinit_[j] == 0) continue;
            row_.assign(pslots_.size(), 0);
            dist::multivariate_hypergeometric(gen_, presp_, pinit_[j], row_);
            for (std::size_t t = 0; t < pslots_.size(); ++t) {
                if (row_[t] == 0) continue;
                presp_[t] -= row_[t];
                apply_group(pslots_[j], pslots_[t], row_[t]);
            }
        }

        const std::uint64_t t3 = timed ? obs::now_ticks() : 0;
        if (timed) metrics_.t_table.add_ticks(t3 - t2);

        if (run.collided) {
            metrics_.collisions.add(1);
            execute_collision(2 * pairs);
        }

        // Re-deposit every participant's post-state, one count update per
        // touched slot in first-touch order (which fixes the order fresh
        // states join the census and the occupied list).
        for (const std::uint32_t i : post_.touched()) {
            const std::uint64_t count = post_.count(i);
            if (count > 0) adjust(i, static_cast<std::int64_t>(count));
        }

        const std::uint64_t t4 = timed ? obs::now_ticks() : 0;
        if (timed) metrics_.t_collision.add_ticks(t4 - t3);

        const std::uint64_t executed = pairs + (run.collided ? 1 : 0);
        interactions_ += executed;
        return executed;
    }

    /// The outcome-table entry of the ordered slot pair (i, j), enumerated
    /// on first sight.
    const typename detail::delta_outcome_table<P>::entry& lookup(std::uint32_t i,
                                                                 std::uint32_t j) {
        return delta_table_.lookup(protocol_, i, j, slots_[i].state, slots_[j].state,
                                   [this](const agent_t& state) { return slot_of(state); });
    }

    /// Applies δ to `count` interactions that all see the ordered slot pair
    /// (i, j): once for a declared-deterministic pair, via one multinomial
    /// split for a pair with a declared outcome distribution, per
    /// interaction otherwise (the exact fallback for randomized δ).
    void apply_group(std::uint32_t i, std::uint32_t j, std::uint64_t count) {
        if constexpr (declares_deterministic_delta<P>) {
            if (protocol_.deterministic_delta(slots_[i].state, slots_[j].state)) {
                const auto [u, v] = deterministic(i, j);
                post_.add(u, count);
                post_.add(v, count);
                metrics_.delta_deterministic.add(count);
                return;
            }
        }
        if constexpr (declares_delta_outcomes<P>) {
            const auto& entry = lookup(i, j);
            if (entry.size > 0) {
                delta_table_.apply_group(
                    entry, gen_, count,
                    [this](std::uint32_t s, std::uint64_t c) { post_.add(s, c); });
                metrics_.delta_grouped.add(count);
                return;
            }
        }
        for (std::uint64_t c = 0; c < count; ++c) {
            const auto [u, v] = delta(i, j);
            post_.add(u, 1);
            post_.add(v, 1);
        }
        metrics_.delta_fallback.add(count);
    }

    /// Executes the interaction that ended the run (shared three-case
    /// decode, sim/group_delta.h): a uniform ordered pair of distinct agents
    /// conditioned on touching at least one of the `m2` run participants
    /// (whose post-run slots live in `post_`).
    void execute_collision(std::uint64_t m2) {
        detail::execute_colliding_interaction(
            gen_, population_, m2, post_,
            [this](std::uint64_t rank) { return census_take_at(rank); },
            [this](std::uint32_t i, std::uint32_t j) {
                if constexpr (declares_deterministic_delta<P>) {
                    if (protocol_.deterministic_delta(slots_[i].state, slots_[j].state)) {
                        return deterministic(i, j);
                    }
                }
                return delta(i, j);
            });
    }

    /// One δ call on the states of slots (i, j); returns the post-states'
    /// slots.
    std::pair<std::uint32_t, std::uint32_t> delta(std::uint32_t i, std::uint32_t j) {
        agent_t u = slots_[i].state;
        agent_t v = slots_[j].state;
        protocol_.interact(u, v, gen_);
        const std::uint32_t post_u = slot_of(u);
        return {post_u, slot_of(v)};
    }

    /// `delta` for a declared-deterministic pair, memoized: such a pair
    /// consumes no randomness, so skipping the repeat calls leaves the
    /// stream unchanged.
    std::pair<std::uint32_t, std::uint32_t> deterministic(std::uint32_t i, std::uint32_t j) {
        return deterministic_.get(i, j, [this, i, j] { return delta(i, j); });
    }


    /// Withdraws the *fresh* (non-participant) agent with zero-based rank
    /// `rank` over the current census counts and returns its slot.
    [[nodiscard]] std::uint32_t census_take_at(std::uint64_t rank) {
        std::uint64_t remaining = rank;
        std::uint32_t last = occupied_list_.back();
        for (const std::uint32_t i : occupied_list_) {
            if (slots_[i].count == 0) continue;
            if (remaining < slots_[i].count) {
                adjust(i, -1);
                return i;
            }
            remaining -= slots_[i].count;
            last = i;
        }
        adjust(last, -1);
        return last;  // unreachable for rank < census total
    }

    /// The slot index of `state`, creating an (empty, undiscovered) slot on
    /// first sight — the only place states are encoded after construction.
    std::uint32_t slot_of(const agent_t& state) {
        const auto [it, inserted] =
            index_.try_emplace(Codec::encode(state), static_cast<std::uint32_t>(slots_.size()));
        if (inserted) slots_.push_back({state});
        return it->second;
    }

    /// Applies a signed count delta to a slot, maintaining `occupied_`, the
    /// occupied-slot list (append on occupancy; dormant slots leave the
    /// list lazily at the next run snapshot) and the discovery order (a
    /// slot is discovered on its first occupancy).
    void adjust(std::size_t index, std::int64_t delta) {
        auto& entry = slots_[index];
        const bool was_occupied = entry.count > 0;
        entry.count = static_cast<std::uint64_t>(static_cast<std::int64_t>(entry.count) + delta);
        if (entry.count > 0 && !was_occupied) {
            ++occupied_;
            metrics_.occupied_hwm.record_max(occupied_);
            if (!entry.listed) {
                entry.listed = true;
                occupied_list_.push_back(static_cast<std::uint32_t>(index));
            }
            if (!entry.discovered) {
                entry.discovered = true;
                discovered_.push_back(static_cast<std::uint32_t>(index));
            }
        }
        if (entry.count == 0 && was_occupied) --occupied_;
    }

    P protocol_;
    rng gen_;
    std::vector<slot> slots_;  ///< indexed by first sight; dormant slots keep their index
    std::vector<std::uint32_t> discovered_;  ///< slots ever occupied, discovery order
    std::unordered_map<key_t, std::uint32_t, census_key_hash> index_;  ///< key -> slot
    std::size_t occupied_ = 0;      ///< slots with count > 0
    std::uint64_t population_ = 0;  ///< invariant: Σ slot counts (+ in-flight run)
    std::uint64_t interactions_ = 0;

    // Per-run scratch, reused across runs to stay allocation-free on the hot
    // path.
    std::vector<std::uint32_t> occupied_list_;  ///< occupied slots, discovery order
    std::vector<std::uint64_t> counts_;         ///< snapshot of their counts
    std::vector<std::uint64_t> participants_;   ///< participants per occupied slot
    std::vector<std::uint32_t> pslots_;         ///< slots taking part (compact)
    std::vector<std::uint64_t> pinit_;          ///< initiator margin, compacted
    std::vector<std::uint64_t> presp_;          ///< participants, then unpaired responders
    std::vector<std::uint64_t> row_;            ///< one contingency-table row
    detail::post_run_counts post_;             ///< participants' post-run slots
    detail::deterministic_pair_memo deterministic_;  ///< deterministic pairs' results
    detail::delta_outcome_table<P> delta_table_;  ///< resolved slot pairs
    instrument_set metrics_;
};

}  // namespace plurality::sim
