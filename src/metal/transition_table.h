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

    /** What a firing rule does to its path's remembered location. */
    enum class Memory : std::uint8_t
    {
        /** No target state: the location stays as it was. */
        Keep,
        /** A target with an end-of-path rule: remember the match. */
        Remember,
        /** Any other target: the path remembers nothing. */
        Forget,
    };

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
        Memory memory = Memory::Keep;
        /**
         * OR of the mask bits of every alternative's required identifier,
         * or for a call test its own bit (set in a statement's mask when
         * one of its calls passes the test). When nonzero this is an
         * *exact* prefilter: the candidate can match a statement only if
         * `req_mask & statement-mask` is nonzero. Zero means "cannot
         * prefilter" (some alternative has no required identifier, or
         * its symbol fell outside the mask slots) and the caller must
         * fall back to Pattern::couldMatchIds.
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
     * The end-of-path rule a path ending in state `s` fires (its own
     * first, then `all`'s), or nullptr when it fires none.
     */
    const Candidate* endOfPath(StateIdx s) const
    {
        return end_of_path_[s].rule ? &end_of_path_[s] : nullptr;
    }

    /** True when some state has an end-of-path rule. */
    bool hasEndOfPath() const { return has_end_of_path_; }

    /**
     * Mask bits a statement mask may use: the TransitionTable keeps the
     * top bit of its 64 to mark a mask as computed.
     */
    static constexpr std::size_t kMaskBits = 63;

    /**
     * The sorted distinct required-identifier symbols that own mask
     * bits: bit i of every req_mask (and of a TransitionTable's
     * statement masks) means "mentions maskSyms()[i]". The call tests'
     * bits follow them (callTestMask).
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

    /** One more than the largest call-test index any rule uses. */
    std::uint32_t callTestCount() const
    {
        return static_cast<std::uint32_t>(call_test_masks_.size());
    }

    /** Call test `k`'s mask bit, or 0 when it got none. */
    std::uint64_t callTestMask(std::uint32_t k) const
    {
        return call_test_masks_[k];
    }

    /**
     * The mask bit assigned to `sym`, or 0 when `sym` is not one of this
     * machine's required-identifier symbols. At most kMaskBits symbols
     * and call tests get bits; every real checker needs a handful.
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
    /** Per state: its end-of-path rule, `rule` null when none. */
    std::vector<Candidate> end_of_path_;
    bool has_end_of_path_ = false;
    /** Sorted distinct required-identifier symbols that got mask bits. */
    std::vector<support::SymbolId> mask_syms_;
    /** Each mask symbol's bit, by SymbolId (FlatCfg::maskBits). */
    std::vector<std::uint8_t> mask_bits_;
    /** Per call test, its mask bit (0 when it got none). */
    std::vector<std::uint64_t> call_test_masks_;
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
 * arena, so no lookup touches a hash table (only a rule that remembers
 * its location does, once per cell).
 *
 * Setup pays only for what the walk reaches. Construction zeroes a few
 * per-row and per-block words; a statement's prefilter mask (its
 * identifiers folded through the machine's mask bits, plus one bit per
 * call test a call of it passes) is computed when its block is first
 * visited, and cell storage is materialized per row on first touch from
 * zero-initialized slabs. Full pattern unification, and each call test,
 * still runs at most once per (statement, state).
 *
 * blockSkippable() is the block prefilter: a block whose OR'd statement
 * masks miss `stateReqUnion(state)`, in a state with no unfilterable
 * candidate, cannot match any candidate of that state (by the req_mask
 * exactness contract), so the walker skips its entire statement loop —
 * no cells materialized, no per-statement hook calls. Exact, never
 * heuristic: the prefilter-never-rejects property lifted from cells to
 * blocks.
 */
class TransitionTable
{
  public:
    /**
     * `call_tests` binds the machine's `extern` call tests, in
     * declaration order; it must outlive the table.
     */
    TransitionTable(const CompiledSm& csm, const cfg::Cfg& cfg,
                    std::span<const CallTest> call_tests = {});

    /** Cell::memory of a cell whose rule makes its path forget. */
    static constexpr std::uint32_t kForget = 0xFFFFFFFFu;

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
        /**
         * The remembered location after the statement: 0 keeps the
         * path's, kForget clears it, and any other value is 1 + the
         * rememberedLoc() slot of this match's location.
         */
        std::uint32_t memory;
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
     * The matched cell for row `row` in state `state`, or nullptr when
     * no rule matches there. Rows whose mask rules out every candidate
     * of `state` are answered without materializing a cell.
     */
    const Cell*
    match(std::uint32_t row, StateIdx state)
    {
        if (!csm_->stateUnfilterable(state) &&
            !(rowMask(row) & csm_->stateReqUnion(state)))
            return nullptr;
        const Cell& c = cell(row, state);
        return c.rule ? &c : nullptr;
    }

    /**
     * True when no candidate rule of `state` can match any statement of
     * `block` — the walker may skip the block's statement loop outright.
     * Exact (see class comment); O(1) once the block's mask is known.
     */
    bool
    blockSkippable(int block, StateIdx state)
    {
        return !csm_->stateUnfilterable(state) &&
               !(blockMask(static_cast<std::uint32_t>(block)) &
                 csm_->stateReqUnion(state));
    }

    /** The wildcard bindings of a matched cell (`cell.rule != nullptr`). */
    const match::Bindings& bindings(const Cell& cell) const
    {
        return bindings_pool_[cell.bindings_idx];
    }

    /**
     * Where a matched cell of row `row` fires: the call or
     * subexpression its rule matched, else the statement.
     */
    const support::SourceLoc&
    matchLoc(const Cell& cell, std::uint32_t row) const
    {
        const lang::Expr* at = bindings(cell).matched;
        return at ? at->loc : flat_->stmt(row)->loc;
    }

    /** The location a Cell::memory value (1 + slot) names. */
    const support::SourceLoc& rememberedLoc(std::uint32_t memory) const
    {
        return remembered_[memory - 1];
    }

    /**
     * Bits a path's state index takes in its visited key; the
     * remembered memory value fills the bits above them.
     */
    std::uint32_t stateBits() const { return state_bits_; }

  private:
    /** Marks a computed mask, so a computed empty mask is nonzero. */
    static constexpr std::uint64_t kComputed = std::uint64_t{1}
                                               << CompiledSm::kMaskBits;

    void fill(std::uint32_t row, StateIdx state, Cell& cell);
    Cell* materialize(std::uint32_t row);
    std::uint64_t rowMask(std::uint32_t row);
    std::uint64_t blockMask(std::uint32_t block);
    /** The first call of `row` call test `test` accepts, or nullptr. */
    const lang::CallExpr* acceptedCall(std::uint32_t row, int test) const;
    std::uint32_t remember(const support::SourceLoc& loc);

    const CompiledSm* csm_;
    const cfg::FlatCfg* flat_;
    std::span<const CallTest> call_tests_;
    std::uint32_t state_bits_;
    /** Distinct remembered locations, by slot, and their slots. */
    std::vector<support::SourceLoc> remembered_;
    std::unordered_map<support::SourceLoc, std::uint32_t> remembered_slot_;
    /** Per row / per block: its prefilter mask with kComputed set, or
     *  0 until computed. */
    std::vector<std::uint64_t> row_mask_;
    std::vector<std::uint64_t> block_mask_;
    std::uint32_t state_count_;
    /** Per row: its first cell, or nullptr until materialized. */
    std::vector<Cell*> row_cells_;
    /** Zero-initialized slabs the per-row cell runs are carved from;
     *  growth never moves already-handed-out cells. */
    std::vector<std::unique_ptr<Cell[]>> slabs_;
    std::size_t slab_used_ = 0;
    std::size_t slab_size_ = 0;
    std::vector<match::Bindings> bindings_pool_;
};

} // namespace mc::metal

#endif // MCHECK_METAL_TRANSITION_TABLE_H
