#ifndef MCHECK_METAL_TRANSITION_TABLE_H
#define MCHECK_METAL_TRANSITION_TABLE_H

#include "cfg/cfg.h"
#include "cfg/flat_cfg.h"
#include "metal/state_machine.h"
#include "support/interner.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace mc::metal {

/** Dense index of an SM state within one CompiledSm. */
using StateIdx = std::uint32_t;

/**
 * Per-StateMachine compiled view: state names and rule ids interned to
 * dense indices, and each state's candidate rules (its own rules followed
 * by the `all` rules — the paper's first-match order) flattened into one
 * list with pre-resolved transition targets and bitmask prefilters.
 *
 * Built once per SM (lazily, via StateMachine::compiled()) after rule
 * construction is complete; Candidate pointers alias the SM's own rule
 * storage, so no rules may be added afterwards.
 */
class CompiledSm
{
  public:
    /** Sentinel target: the rule keeps the walker in its current state. */
    static constexpr StateIdx kKeepState = 0xFFFFFFFFu;

    explicit CompiledSm(const StateMachine& sm);

    struct Candidate
    {
        const StateMachine::Rule* rule = nullptr;
        /**
         * Interned rule id — the firing-dedup key. Distinct Rule objects
         * can share a (slugified) id string; they must then share one
         * dedup slot, which the shared symbol guarantees.
         */
        support::SymbolId id_sym = support::kInvalidSymbol;
        /** Absolute target state, or kKeepState when next_state is "". */
        StateIdx next = kKeepState;
        /**
         * OR of the mask bits of every alternative's required identifier.
         * When nonzero this is an *exact* prefilter: the candidate can
         * match a statement iff `req_mask & statement-mask` is nonzero.
         * Zero means "cannot prefilter" (some alternative has no required
         * identifier, or its symbol fell outside the 64 mask slots) and
         * the caller must fall back to Pattern::couldMatchIds.
         */
        std::uint64_t req_mask = 0;
    };

    const StateMachine& sm() const { return *sm_; }

    /**
     * CompiledSm constructions so far in this process. Checker
     * definitions compile once each, so this stays put across runs.
     */
    static std::uint64_t compilations();

    StateIdx start() const { return start_; }
    StateIdx stop() const { return stop_; }
    std::uint32_t stateCount() const
    {
        return static_cast<std::uint32_t>(state_names_.size());
    }
    const std::string& stateName(StateIdx s) const
    {
        return state_names_[s];
    }

    /** Candidates tried, in order, when a statement is seen in state `s`. */
    const std::vector<Candidate>& candidatesFor(StateIdx s) const
    {
        return candidates_[s];
    }

    /**
     * The sorted distinct required-identifier symbols that own mask
     * bits: bit i of every req_mask (and of FlatCfg::MaskIndex masks
     * built from this list) means "mentions maskSyms()[i]".
     */
    const std::vector<support::SymbolId>& maskSyms() const
    {
        return mask_syms_;
    }

    /** maskSyms() as a FlatCfg::maskBits() table, built at compile time. */
    std::span<const std::uint8_t> maskBits() const { return mask_bits_; }

    /**
     * OR of req_mask over state `s`'s prefilterable candidates: a
     * statement whose mask misses this union cannot match any of them.
     */
    std::uint64_t stateReqUnion(StateIdx s) const
    {
        return state_req_union_[s];
    }

    /**
     * True when some candidate of `s` has req_mask == 0 — the state
     * cannot be mask-prefiltered, so block skipping must stay off for
     * it (the couldMatchIds fallback still applies per cell).
     */
    bool stateUnfilterable(StateIdx s) const
    {
        return state_unfilterable_[s] != 0;
    }

    /**
     * The mask bit assigned to `sym`, or 0 when `sym` is not one of this
     * machine's required-identifier symbols. At most 64 distinct symbols
     * get bits; every real checker needs a handful.
     */
    std::uint64_t symMask(support::SymbolId sym) const
    {
        if (sym >= mask_bits_.size() ||
            mask_bits_[sym] == cfg::FlatCfg::kNoMaskBit)
            return 0;
        return std::uint64_t{1} << mask_bits_[sym];
    }

  private:
    StateIdx internState(const std::string& name);

    const StateMachine* sm_;
    std::vector<std::string> state_names_;
    std::unordered_map<std::string, StateIdx> state_ids_;
    /** Indexed by StateIdx; the stop state's list is empty. */
    std::vector<std::vector<Candidate>> candidates_;
    /** Sorted distinct required-identifier symbols (≤ 64 get mask bits). */
    std::vector<support::SymbolId> mask_syms_;
    /** Each mask symbol's bit, by SymbolId (FlatCfg::maskBits). */
    std::vector<std::uint8_t> mask_bits_;
    /** Per-state req_mask union / has-unfilterable-candidate flags. */
    std::vector<std::uint64_t> state_req_union_;
    std::vector<std::uint8_t> state_unfilterable_;
    StateIdx start_ = 0;
    StateIdx stop_ = 0;
};

/**
 * Per-(function, SM) transition table: one cell per (CFG statement, SM
 * state) holding the first matching rule, its wildcard bindings, and the
 * resulting state. The walker's per-visit work is an indexed lookup —
 * statements are addressed by their row in the function's FlatCfg
 * arena, so neither construction nor lookup touches a hash table.
 *
 * Construction is O(statements), not O(statements × states): cell
 * storage is materialized per row on first touch from zero-initialized
 * slabs, so a run that (like most) visits a handful of blocks never pays
 * for the whole function's cell array. Full pattern unification still
 * runs at most once per (statement, state).
 *
 * blockSkippable() is the block-range prefilter: per state, a bitset
 * over blocks marking those whose identifier sets cannot intersect any
 * candidate rule of that state. Built lazily per state with a
 * range-mask sweep (64 blocks = one word), it lets the walker skip a
 * visited block's entire statement loop — no cells materialized, no
 * per-statement hook calls. The bits are exact, never heuristic: a
 * block is only marked when `stateReqUnion(state)` misses its OR'd
 * statement masks and the state has no unfilterable candidate, so (by
 * the req_mask exactness contract) no candidate can match any statement
 * in it — the PR-5 prefilter-never-rejects property lifted from cells
 * to blocks and ranges.
 */
class TransitionTable
{
  public:
    TransitionTable(const CompiledSm& csm, const cfg::Cfg& cfg);

    /**
     * One (statement, state) slot. Deliberately trivial with an all-zero
     * initial state, so block materialization is a zeroed-slab carve.
     * Bindings of matched cells live in a side pool (bindings()); a cell
     * holds only the pool index.
     */
    struct Cell
    {
        /** First matching rule for (stmt, state), or nullptr. */
        const StateMachine::Rule* rule;
        /** Interned rule id (firing-dedup key); valid when `rule` set. */
        support::SymbolId id_sym;
        /** State after the statement; valid once `ready`. */
        StateIdx next;
        /** Index into the bindings pool; valid when `rule` set. */
        std::uint32_t bindings_idx;
        /** False until this cell's match has been computed. */
        bool ready;
    };

    /**
     * The cell for FlatCfg row `row` in state `state`, matching on first
     * touch. `row` must come from the CFG this table was built for (the
     * walker guarantees this). The reference stays valid for the table's
     * lifetime (cells live in stable slabs).
     */
    const Cell&
    cell(std::uint32_t row, StateIdx state)
    {
        Cell* base = row_cells_[row];
        if (!base)
            base = materialize(row);
        Cell& c = base[state];
        if (!c.ready)
            fill(row, state, c);
        return c;
    }

    /**
     * True when no candidate rule of `state` can match any statement of
     * `block` — the walker may skip the block's statement loop outright.
     * Exact (see class comment); O(1) after a lazy per-state build.
     */
    bool
    blockSkippable(int block, StateIdx state)
    {
        const std::uint64_t* bits =
            skip_bits_.data() +
            static_cast<std::size_t>(state) * skip_words_;
        if (!skip_built_[state])
            buildSkipBits(state);
        const std::uint32_t b = static_cast<std::uint32_t>(block);
        return (bits[b >> 6] >> (b & 63)) & 1;
    }

    /** The wildcard bindings of a matched cell (`cell.rule != nullptr`). */
    const match::Bindings& bindings(const Cell& cell) const
    {
        return bindings_pool_[cell.bindings_idx];
    }

  private:
    void fill(std::uint32_t row, StateIdx state, Cell& cell);
    Cell* materialize(std::uint32_t row);
    void buildSkipBits(StateIdx state);

    const CompiledSm* csm_;
    const cfg::FlatCfg* flat_;
    /** This machine's prefilter masks over flat_, owned by the table. */
    cfg::FlatCfg::MaskIndex masks_;
    std::uint32_t state_count_;
    /** Per row: its first cell, or nullptr until materialized. */
    std::vector<Cell*> row_cells_;
    /** Zero-initialized slabs the per-row cell runs are carved from;
     *  growth never moves already-handed-out cells. */
    std::vector<std::unique_ptr<Cell[]>> slabs_;
    std::size_t slab_used_ = 0;
    std::size_t slab_size_ = 0;
    /** skip_words_ words per state; valid once skip_built_[state]. */
    std::vector<std::uint64_t> skip_bits_;
    std::vector<std::uint8_t> skip_built_;
    std::size_t skip_words_ = 0;
    std::vector<match::Bindings> bindings_pool_;
};

} // namespace mc::metal

#endif // MCHECK_METAL_TRANSITION_TABLE_H
