#include "metal/transition_table.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <optional>
#include <stdexcept>

namespace mc::metal {

namespace {
std::atomic<std::uint64_t> g_compilations{0};
} // namespace

std::uint64_t
CompiledSm::compilations()
{
    return g_compilations.load(std::memory_order_relaxed);
}

StateIdx
CompiledSm::internState(const std::string& name)
{
    auto [it, inserted] =
        state_ids_.emplace(name, static_cast<StateIdx>(state_names_.size()));
    if (inserted)
        state_names_.push_back(name);
    return it->second;
}

CompiledSm::CompiledSm(const StateMachine& sm) : sm_(&sm)
{
    g_compilations.fetch_add(1, std::memory_order_relaxed);
    // Index order is deterministic: start first, then stop, then the
    // remaining rule-owning states and transition targets in definition
    // (map) order. Indices never reach output — diagnostics always go
    // through the state/rule *names* — so only stability within this
    // CompiledSm matters.
    start_ = internState(sm.startState());
    stop_ = internState(StateMachine::kStop);
    for (const std::string& state : sm.states()) {
        internState(state);
        for (const StateMachine::Rule& rule : sm.rulesFor(state))
            if (!rule.next_state.empty())
                internState(rule.next_state);
    }

    auto& interner = support::SymbolInterner::global();
    candidates_.resize(state_names_.size());
    end_of_path_.resize(state_names_.size());
    for (StateIdx s = 0; s < candidates_.size(); ++s) {
        if (s == stop_)
            continue;
        auto add = [&](const StateMachine::Rule& rule) {
            Candidate cand;
            cand.rule = &rule;
            cand.id_sym = interner.intern(rule.id);
            if (!rule.next_state.empty())
                cand.next = state_ids_.at(rule.next_state);
            if (rule.end_of_path) {
                // The first end-of-path rule wins, like a statement's.
                if (!end_of_path_[s].rule)
                    end_of_path_[s] = cand;
                has_end_of_path_ = true;
                return;
            }
            candidates_[s].push_back(cand);
        };
        // Own rules first, then `all` rules — the paper's "implicitly
        // applied to other states" order. For the `all` state itself this
        // appends its list twice; first-match-wins makes the second copy
        // unreachable.
        for (const StateMachine::Rule& rule : sm.rulesFor(stateName(s)))
            add(rule);
        for (const StateMachine::Rule& rule : sm.allRules())
            add(rule);
    }
    // A rule naming a target remembers its match when the target can
    // report at the end of a path, and forgets otherwise (the stop
    // state and rule-less targets report nothing).
    for (std::vector<Candidate>& list : candidates_)
        for (Candidate& cand : list)
            if (cand.next != kKeepState)
                cand.memory = end_of_path_[cand.next].rule
                                  ? Memory::Remember
                                  : Memory::Forget;

    // Assign mask bits: the sorted distinct required-identifier symbols
    // across every rule, then one per call test the rules use, as many
    // as kMaskBits has room for (checkers need a handful).
    std::size_t call_tests = 0;
    for (const std::vector<Candidate>& list : candidates_)
        for (const Candidate& cand : list)
            call_tests = std::max<std::size_t>(
                call_tests,
                static_cast<std::size_t>(cand.rule->call_test + 1));
    std::vector<support::SymbolId> req;
    for (const std::vector<Candidate>& list : candidates_)
        for (const Candidate& cand : list)
            cand.rule->pattern.requiredSyms(req);
    std::sort(req.begin(), req.end());
    req.erase(std::unique(req.begin(), req.end()), req.end());
    if (req.size() > kMaskBits - std::min(call_tests, kMaskBits))
        req.resize(kMaskBits - std::min(call_tests, kMaskBits));
    mask_syms_ = std::move(req);
    mask_bits_ = cfg::FlatCfg::maskBits(mask_syms_);
    call_test_masks_.assign(call_tests, 0);
    for (std::size_t k = 0; k < call_tests; ++k)
        if (mask_syms_.size() + k < kMaskBits)
            call_test_masks_[k] = std::uint64_t{1}
                                  << (mask_syms_.size() + k);

    std::vector<support::SymbolId> syms;
    for (std::vector<Candidate>& list : candidates_)
        for (Candidate& cand : list) {
            if (cand.rule->call_test >= 0) {
                cand.req_mask = call_test_masks_[static_cast<std::size_t>(
                    cand.rule->call_test)];
                continue;
            }
            syms.clear();
            if (!cand.rule->pattern.requiredSyms(syms))
                continue; // unfilterable: req_mask stays 0
            std::uint64_t mask = 0;
            bool complete = true;
            for (support::SymbolId sym : syms) {
                std::uint64_t bit = symMask(sym);
                if (!bit) {
                    complete = false;
                    break;
                }
                mask |= bit;
            }
            // The mask is only exact if *every* alternative got a bit.
            cand.req_mask = complete ? mask : 0;
        }

    // Per-state summaries for the block prefilter: the union of
    // prefilterable candidates' masks, and whether any candidate is
    // unfilterable (which pins every block as unskippable in that
    // state). A state with no candidates at all (stop, or an orphan
    // target with no own and no `all` rules) ends up with union 0 and
    // no unfilterable flag — every block is skippable there, which is
    // exact: nothing can ever match.
    state_req_union_.assign(stateCount(), 0);
    state_unfilterable_.assign(stateCount(), 0);
    for (StateIdx s = 0; s < stateCount(); ++s)
        for (const Candidate& cand : candidates_[s]) {
            if (cand.req_mask)
                state_req_union_[s] |= cand.req_mask;
            else
                state_unfilterable_[s] = 1;
        }
}

TransitionTable::TransitionTable(const CompiledSm& csm, const cfg::Cfg& cfg,
                                 std::span<const CallTest> call_tests)
    : csm_(&csm), flat_(&cfg::flatCfg(cfg)), call_tests_(call_tests),
      state_bits_(static_cast<std::uint32_t>(
          std::bit_width(csm.stateCount() - 1u))),
      row_mask_(flat_->stmtCount(), 0), block_mask_(flat_->blockCount(), 0),
      state_count_(csm.stateCount())
{
    // Construction only zeroes a cell pointer and a mask per row and a
    // mask per block: the arena (statement rows, ident spans, call rows)
    // is the Cfg's, and the masks and cells this walk needs are filled
    // in as it reaches them.
    row_cells_.assign(flat_->stmtCount(), nullptr);
}

std::uint64_t
TransitionTable::rowMask(std::uint32_t row)
{
    std::uint64_t& mask = row_mask_[row];
    if (mask)
        return mask;
    mask = kComputed;
    // The row's identifiers are sorted, so the scan stops at the first
    // one past the bits table; mask symbols are mostly the macro
    // vocabulary, interned first, so that is usually a short prefix.
    const std::span<const std::uint8_t> bits = csm_->maskBits();
    const support::SymbolId* ids = flat_->identBegin(row);
    const support::SymbolId* end = ids + flat_->identCount(row);
    for (; ids != end && *ids < bits.size(); ++ids)
        if (bits[*ids] != cfg::FlatCfg::kNoMaskBit)
            mask |= std::uint64_t{1} << bits[*ids];
    for (std::uint32_t k = 0; k < csm_->callTestCount(); ++k)
        if (csm_->callTestMask(k) && acceptedCall(row, static_cast<int>(k)))
            mask |= csm_->callTestMask(k);
    return mask;
}

std::uint64_t
TransitionTable::blockMask(std::uint32_t block)
{
    std::uint64_t& mask = block_mask_[block];
    if (mask)
        return mask;
    mask = kComputed;
    for (std::uint32_t row = flat_->stmtBegin(block);
         row < flat_->stmtEnd(block); ++row)
        mask |= rowMask(row);
    return mask;
}

const lang::CallExpr*
TransitionTable::acceptedCall(std::uint32_t row, int test) const
{
    // An unbound test accepts nothing.
    const auto t = static_cast<std::size_t>(test);
    if (t >= call_tests_.size())
        return nullptr;
    for (const cfg::CallRow& call : flat_->calls(row))
        if (call_tests_[t](call))
            return call.call;
    return nullptr;
}

TransitionTable::Cell*
TransitionTable::materialize(std::uint32_t row)
{
    if (slab_size_ - slab_used_ < state_count_) {
        // Slabs grow geometrically from a few rows' cells: most walks
        // materialize only the rows a rule can match, a handful.
        const std::size_t rows = std::min<std::size_t>(
            slabs_.empty() ? 8 : 2 * slab_size_ / state_count_, 256);
        slab_size_ = rows * state_count_;
        slabs_.push_back(std::make_unique<Cell[]>(slab_size_)); // zeroed
        slab_used_ = 0;
    }
    Cell* base = slabs_.back().get() + slab_used_;
    slab_used_ += state_count_;
    row_cells_[row] = base;
    return base;
}

std::uint32_t
TransitionTable::remember(const support::SourceLoc& loc)
{
    auto it = remembered_slot_.find(loc);
    if (it != remembered_slot_.end())
        return it->second + 1;
    // The memory value shares the 32-bit visited key with the state
    // index; a function would need hundreds of millions of remembering
    // call sites to run out.
    if (remembered_.size() + 1 >= (std::uint64_t{1} << (32 - state_bits_)))
        throw std::length_error(
            "too many remembered locations for one visited key");
    remembered_slot_.emplace(loc,
                             static_cast<std::uint32_t>(remembered_.size()));
    remembered_.push_back(loc);
    return static_cast<std::uint32_t>(remembered_.size());
}

void
TransitionTable::fill(std::uint32_t row, StateIdx state, Cell& cell)
{
    cell.ready = true;
    cell.next = state;
    if (state == csm_->stop())
        return;
    const std::uint64_t mask = rowMask(row);
    const lang::Stmt* stmt = flat_->stmt(row);
    for (const CompiledSm::Candidate& cand : csm_->candidatesFor(state)) {
        if (cand.req_mask) {
            // Exact bitmask prefilter (see Candidate::req_mask).
            if (!(cand.req_mask & mask))
                continue;
        } else if (cand.rule->call_test < 0 &&
                   !cand.rule->pattern.couldMatchIds(
                       flat_->identBegin(row), flat_->identCount(row))) {
            continue;
        }
        std::optional<match::Bindings> bindings;
        if (cand.rule->call_test >= 0) {
            // A call test matches the row's first call it accepts.
            if (const lang::CallExpr* call =
                    acceptedCall(row, cand.rule->call_test))
                bindings.emplace().matched = call;
        } else {
            bindings = cand.rule->pattern.matchInStmt(*stmt);
        }
        if (!bindings)
            continue;
        cell.rule = cand.rule;
        cell.id_sym = cand.id_sym;
        cell.bindings_idx =
            static_cast<std::uint32_t>(bindings_pool_.size());
        bindings_pool_.push_back(std::move(*bindings));
        if (cand.next != CompiledSm::kKeepState && cand.next != state)
            cell.next = cand.next;
        if (cand.memory == CompiledSm::Memory::Remember)
            cell.memory = remember(matchLoc(cell, row));
        else if (cand.memory == CompiledSm::Memory::Forget)
            cell.memory = kForget;
        return;
    }
}

} // namespace mc::metal
