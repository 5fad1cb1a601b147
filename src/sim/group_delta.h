// Group-level δ application machinery of the run-batching census backend
// (sim/leap_census_simulator.h).
//
// That backend decomposes the scheduler's interaction sequence into
// collision-free runs and applies δ per ordered state-pair *group* — all m
// interactions of a run that see the same (initiator-state, responder-state)
// pair.  This header holds the protocol-facing and per-run pieces of that
// stage.  Everything past the protocol trait works on census *slot indices*
// (the backend's dense state ids), not census keys: states are encoded only
// as δ results (the backend's `slot_of`), and a grouped cell is a table
// lookup plus index arithmetic.
//
//  * `declares_deterministic_delta` — the protocol trait for RNG-free pairs
//    (one δ evaluation moves the whole group's mass);
//  * `detail::delta_outcome_table` — the randomized-δ group path: each
//    ordered slot pair's outcome distribution (sim/delta_outcomes.h)
//    resolved once per simulation into (initiator slot, responder slot) +
//    weight pairs in flat pools, plus the grouped sampler that splits a
//    group of m across the outcomes with one multinomial draw
//    (dist::multinomial) instead of m per-pair RNG calls;
//  * `detail::deterministic_pair_memo` — deterministic pairs' post-state
//    slots, so a recurring deterministic pair costs a memo probe per cell
//    instead of a δ call and two census lookups;
//  * `detail::post_run_counts` — the participants' post-run counts per slot,
//    with the touched slots in first-touch order;
//  * `detail::execute_colliding_interaction` — the exact three-case
//    (both-used / used-fresh / fresh-used) interaction that ends a run.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/census_simulator.h"
#include "sim/delta_outcomes.h"
#include "sim/random_dist.h"
#include "sim/rng.h"

namespace plurality::sim {

/// A protocol may declare, per ordered state pair, that δ is RNG-free and a
/// pure function of the two states — the hook that unlocks grouped δ
/// application.  Protocols without the hook (and without `delta_outcomes`,
/// sim/delta_outcomes.h) are treated as fully randomized (correct, just
/// slower).
template <class P>
concept declares_deterministic_delta =
    requires(const P p, const typename P::agent_t& u, const typename P::agent_t& v) {
        { p.deterministic_delta(u, v) } -> std::convertible_to<bool>;
    };

namespace detail {

/// Post-run participant counts, one per census slot, plus the slots touched
/// this run in first-touch order — the order the backend re-deposits them
/// and the collision decode walks them.  A slot emptied by the colliding
/// interaction keeps its place in the order.  Scratch persists across runs:
/// `clear` resets only the touched slots.
class post_run_counts {
public:
    void clear() {
        for (const std::uint32_t slot : touched_) cells_[slot] = {};
        touched_.clear();
    }

    /// Adds `count` agents whose post-run state is census slot `slot`.
    void add(std::uint32_t slot, std::uint64_t count) {
        if (slot >= cells_.size()) cells_.resize(slot + 1);
        auto& cell = cells_[slot];
        if (!cell.touched) {
            cell.touched = true;
            touched_.push_back(slot);
        }
        cell.count += count;
    }

    /// Removes one agent from a slot previously added to.
    void remove_one(std::uint32_t slot) { --cells_[slot].count; }

    /// Slot of the participant with zero-based rank `rank` over the touched
    /// slots (each unit of count is one agent).
    [[nodiscard]] std::uint32_t slot_at(std::uint64_t rank) const noexcept {
        std::uint64_t remaining = rank;
        for (const std::uint32_t slot : touched_) {
            if (remaining < cells_[slot].count) return slot;
            remaining -= cells_[slot].count;
        }
        return touched_.back();  // unreachable for rank < Σ counts
    }

    [[nodiscard]] std::uint64_t count(std::uint32_t slot) const noexcept {
        return cells_[slot].count;
    }
    [[nodiscard]] const std::vector<std::uint32_t>& touched() const noexcept { return touched_; }

private:
    struct cell {
        std::uint64_t count = 0;
        bool touched = false;
    };

    std::vector<cell> cells_;             ///< indexed by slot
    std::vector<std::uint32_t> touched_;  ///< first-touch order
};

/// Direct-mapped memo of deterministic pairs' results: ordered slot pair →
/// post-state slots.  Slots are permanent and a deterministic δ is a pure
/// function of the two states, so a line never goes stale; it is only
/// overwritten by another pair hashing to it.  Fixed size and
/// allocation-free after construction: a protocol with few states hits on
/// almost every cell, one with many occupied states (averaging majority)
/// mostly misses at the cost of one probe, where a growing cache would pay
/// an insertion per cell and hold memory for pairs that never recur.
class deterministic_pair_memo {
public:
    /// The post-state slots of the deterministic pair (i, j); `resolve()`
    /// computes them (one δ call) on a miss.
    template <class Resolve>
    std::pair<std::uint32_t, std::uint32_t> get(std::uint32_t i, std::uint32_t j,
                                                Resolve&& resolve) {
        const std::uint64_t key = (std::uint64_t{i} << 32) | j;
        line& l = lines_[(key * 0x9e3779b97f4a7c15ull) >> (64 - line_bits)];
        if (l.key != key) {
            const auto [u, v] = resolve();
            l = {key, u, v};
        }
        return {l.initiator, l.responder};
    }

private:
    static constexpr int line_bits = 10;
    struct line {
        std::uint64_t key = ~std::uint64_t{0};  ///< never a real slot pair
        std::uint32_t initiator = 0;
        std::uint32_t responder = 0;
    };
    std::vector<line> lines_ = std::vector<line>(std::size_t{1} << line_bits);
};

/// Executes the interaction that ends a collision-free run: a uniform
/// ordered pair of distinct agents conditioned on touching at least one of
/// the `m2` run participants (whose post-run slots live in `used`).  The
/// three cases — both agents participated, initiator participated + fresh
/// responder, fresh initiator + participating responder — are decoded from
/// one bounded uniform over the conditional pair space.
///
/// `take_fresh(rank)` must withdraw the fresh (non-participant) agent with
/// the given zero-based census rank and return its slot; `interact(u, v)`
/// must apply δ to the states of slots u and v and return the post-states'
/// slots as a pair.  Both are re-added to `used` so the caller's re-deposit
/// loop covers them.
template <class TakeFresh, class Interact>
void execute_colliding_interaction(rng& gen, std::uint64_t population, std::uint64_t m2,
                                   post_run_counts& used, TakeFresh&& take_fresh,
                                   Interact&& interact) {
    const std::uint64_t fresh = population - m2;
    const std::uint64_t both_used = m2 * (m2 - 1);
    const std::uint64_t r = gen.next_below(both_used + 2 * m2 * fresh);
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    if (r < both_used) {
        const std::uint64_t i = r / (m2 - 1);
        std::uint64_t j = r % (m2 - 1);
        if (j >= i) ++j;  // distinct-ordered-pair decode
        u = used.slot_at(i);
        v = used.slot_at(j);
        used.remove_one(u);
        used.remove_one(v);
    } else if (r < both_used + m2 * fresh) {
        const std::uint64_t q = r - both_used;
        u = used.slot_at(q / fresh);
        used.remove_one(u);
        v = take_fresh(q % fresh);
    } else {
        const std::uint64_t q = r - both_used - m2 * fresh;
        u = take_fresh(q % fresh);
        v = used.slot_at(q / fresh);
        used.remove_one(v);
    }
    const auto [post_u, post_v] = interact(u, v);
    used.add(post_u, 1);
    used.add(post_v, 1);
}

/// Memoized per-pair outcome distributions on census slots, plus the
/// grouped sampler — the backend side of the randomized-δ group path.
///
/// Resolving a pair costs a handful of δ evaluations (sim/delta_outcomes.h
/// walks the pair's choice tree) and one census encoding per distinct
/// post-state, so resolved pairs are cached keyed by the ordered slot pair
/// (one word): a protocol's hot pairs are resolved once per simulation, not
/// once per run.  Outcomes that land on the same (initiator slot, responder
/// slot) are merged in enumeration order, so the weight lists are as short
/// as possible for the multinomial.  Outcomes live in flat pools; an entry
/// is an offset and a length.
template <class P>
class delta_outcome_table {
public:
    using agent_t = typename P::agent_t;

    /// One post-interaction (initiator slot, responder slot) outcome.
    struct outcome {
        std::uint32_t initiator = 0;
        std::uint32_t responder = 0;
        [[nodiscard]] bool operator==(const outcome&) const = default;
    };

    struct entry {
        std::uint32_t first = 0;  ///< offset of the outcomes in the pools
        std::uint32_t size = 0;   ///< outcome count; 0 = per-pair fallback
    };

    /// Cached-pair cap: protocols cycle through a bounded hot set of pairs,
    /// so the cache normally stays far below this; a pathological protocol
    /// that keeps minting fresh pairs gets wholesale eviction (re-derivation
    /// is cheap) instead of unbounded growth.
    static constexpr std::size_t max_entries = std::size_t{1} << 20;

    /// Returns the cached entry of the ordered slot pair (i, j), whose
    /// states are (u, v), enumerating and inserting it on first sight;
    /// `slot_of(state)` must return the census slot of a post-state
    /// (creating one if new).  `u` and `v` are only read before the first
    /// `slot_of` call, so they may live in storage that call reallocates.
    /// The reference is valid until the next `lookup` call.
    template <class SlotOf>
    [[nodiscard]] const entry& lookup(const P& proto, std::uint32_t i, std::uint32_t j,
                                      const agent_t& u, const agent_t& v, SlotOf&& slot_of) {
        const std::uint64_t key = (std::uint64_t{i} << 32) | j;
        if (const auto it = cache_.find(key); it != cache_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        if (cache_.size() >= max_entries) {
            cache_.clear();
            outcomes_.clear();
            weights_.clear();
        }
        entry e;
        e.first = static_cast<std::uint32_t>(outcomes_.size());
        if (proto.delta_outcomes(u, v, scratch_)) {
            for (const auto& raw : scratch_) {
                const outcome out{slot_of(raw.initiator), slot_of(raw.responder)};
                std::size_t at = e.first;
                while (at < outcomes_.size() && outcomes_[at] != out) ++at;
                if (at < outcomes_.size()) {
                    weights_[at] += raw.probability;
                } else {
                    outcomes_.push_back(out);
                    weights_.push_back(raw.probability);
                }
            }
            e.size = static_cast<std::uint32_t>(outcomes_.size() - e.first);
        }
        return cache_.emplace(key, e).first->second;
    }

    [[nodiscard]] std::span<const outcome> outcomes(const entry& e) const noexcept {
        return {outcomes_.data() + e.first, e.size};
    }
    [[nodiscard]] std::span<const double> weights(const entry& e) const noexcept {
        return {weights_.data() + e.first, e.size};
    }

    /// Advances a group of `count` interactions that all see the entry's
    /// ordered slot pair (e.size > 0): one multinomial split of `count`
    /// across the outcomes (a single categorical draw when count == 1; no
    /// randomness at all for single-outcome pairs).  `add(slot, count)`
    /// receives each drawn outcome's initiator, then responder slot, in
    /// outcome order.
    template <class Add>
    void apply_group(const entry& e, rng& gen, std::uint64_t count, Add&& add) {
        const auto outs = outcomes(e);
        if (outs.size() == 1) {
            add(outs[0].initiator, count);
            add(outs[0].responder, count);
            return;
        }
        const auto w = weights(e);
        if (count == 1) {
            const double r = gen.next_unit();
            double acc = 0.0;
            std::size_t pick = outs.size() - 1;  // fp-slack catch-all
            for (std::size_t i = 0; i + 1 < outs.size(); ++i) {
                acc += w[i];
                if (r < acc) {
                    pick = i;
                    break;
                }
            }
            add(outs[pick].initiator, 1);
            add(outs[pick].responder, 1);
            return;
        }
        split_.assign(outs.size(), 0);
        dist::multinomial(gen, w, count, split_);
        for (std::size_t i = 0; i < outs.size(); ++i) {
            if (split_[i] == 0) continue;
            add(outs[i].initiator, split_[i]);
            add(outs[i].responder, split_[i]);
        }
    }

    /// Cache hit/miss counts over every `lookup` (exported as the
    /// `outcome_table_*` metrics).
    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

private:
    std::unordered_map<std::uint64_t, entry, census_key_hash> cache_;  ///< (i << 32 | j)
    std::vector<outcome> outcomes_;  ///< every entry's outcomes, back to back
    std::vector<double> weights_;    ///< their probabilities, parallel to outcomes_
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::vector<delta_outcome<agent_t>> scratch_;  ///< raw enumeration output
    std::vector<std::uint64_t> split_;             ///< multinomial output
};

}  // namespace detail

}  // namespace plurality::sim
