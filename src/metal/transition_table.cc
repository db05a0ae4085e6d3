#include "metal/transition_table.h"

#include <algorithm>
#include <atomic>

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
    for (StateIdx s = 0; s < candidates_.size(); ++s) {
        if (s == stop_)
            continue;
        auto add = [&](const StateMachine::Rule& rule) {
            Candidate cand;
            cand.rule = &rule;
            cand.id_sym = interner.intern(rule.id);
            if (!rule.next_state.empty())
                cand.next = state_ids_.at(rule.next_state);
            candidates_[s].push_back(cand);
        };
        // Own rules first, then `all` rules — the paper's "implicitly
        // applied to other states" order. For the `all` state itself this
        // appends its list twice; first-match-wins makes the second copy
        // unreachable, exactly like the legacy two-call sequence.
        for (const StateMachine::Rule& rule : sm.rulesFor(stateName(s)))
            add(rule);
        for (const StateMachine::Rule& rule : sm.allRules())
            add(rule);
    }

    // Assign mask bits: the sorted distinct required-identifier symbols
    // across every rule, first 64 only (checkers have a handful).
    std::vector<support::SymbolId> req;
    for (const std::vector<Candidate>& list : candidates_)
        for (const Candidate& cand : list)
            cand.rule->pattern.requiredSyms(req);
    std::sort(req.begin(), req.end());
    req.erase(std::unique(req.begin(), req.end()), req.end());
    if (req.size() > 64)
        req.resize(64);
    mask_syms_ = std::move(req);
    mask_bits_ = cfg::FlatCfg::maskBits(mask_syms_);

    std::vector<support::SymbolId> syms;
    for (std::vector<Candidate>& list : candidates_)
        for (Candidate& cand : list) {
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

    // Per-state summaries for the block-range prefilter: the union of
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

TransitionTable::TransitionTable(const CompiledSm& csm, const cfg::Cfg& cfg)
    : csm_(&csm), flat_(&cfg::flatCfg(cfg)),
      masks_(flat_->maskIndex(csm.maskBits())),
      state_count_(csm.stateCount())
{
    // Construction is O(rows): the arena (flat statement rows, ident
    // spans) is shared per CFG and was built at most once; this table
    // owns its machine's masks, the lazily-filled row → cell map and
    // the per-state skip bitsets, all of which live as long as the one
    // walk that uses them.
    row_cells_.assign(flat_->stmtCount(), nullptr);
    skip_words_ = flat_->rangeCount();
    skip_bits_.assign(skip_words_ * state_count_, 0);
    skip_built_.assign(state_count_, 0);
}

TransitionTable::Cell*
TransitionTable::materialize(std::uint32_t row)
{
    if (slab_size_ - slab_used_ < state_count_) {
        // Never more cells than the function's rows can use: most
        // tables are built for one short walk of a small function.
        slab_size_ = std::max<std::size_t>(
            state_count_,
            std::min<std::size_t>(std::size_t{row_cells_.size()} *
                                      state_count_,
                                  1024));
        slabs_.push_back(std::make_unique<Cell[]>(slab_size_)); // zeroed
        slab_used_ = 0;
    }
    Cell* base = slabs_.back().get() + slab_used_;
    slab_used_ += state_count_;
    row_cells_[row] = base;
    return base;
}

void
TransitionTable::buildSkipBits(StateIdx state)
{
    std::uint64_t* bits =
        skip_bits_.data() + static_cast<std::size_t>(state) * skip_words_;
    skip_built_[state] = 1;
    if (csm_->stateUnfilterable(state))
        return; // all zero: never skip, fall through to per-cell checks
    const std::uint64_t req = csm_->stateReqUnion(state);
    const std::uint32_t blocks = flat_->blockCount();
    for (std::size_t w = 0; w < skip_words_; ++w) {
        // Range sweep: one word per 64-block granule. A granule whose
        // OR'd mask misses the state's union is skippable wholesale.
        if (!(masks_.range_mask[w] & req)) {
            bits[w] = ~std::uint64_t{0};
            continue;
        }
        std::uint64_t word = 0;
        const std::uint32_t lo =
            static_cast<std::uint32_t>(w) << cfg::FlatCfg::kRangeShift;
        const std::uint32_t hi = std::min(lo + 64u, blocks);
        for (std::uint32_t b = lo; b < hi; ++b)
            if (!(masks_.block_mask[b] & req))
                word |= std::uint64_t{1} << (b & 63);
        bits[w] = word;
    }
}

void
TransitionTable::fill(std::uint32_t row, StateIdx state, Cell& cell)
{
    cell.ready = true;
    cell.next = state;
    if (state == csm_->stop())
        return;
    const std::uint64_t mask = masks_.stmt_mask[row];
    const lang::Stmt* stmt = flat_->stmt(row);
    for (const CompiledSm::Candidate& cand : csm_->candidatesFor(state)) {
        if (cand.req_mask) {
            // Exact bitmask prefilter (see Candidate::req_mask).
            if (!(cand.req_mask & mask))
                continue;
        } else if (!cand.rule->pattern.couldMatchIds(
                       flat_->identBegin(row), flat_->identCount(row))) {
            continue;
        }
        auto bindings = cand.rule->pattern.matchInStmt(*stmt);
        if (!bindings)
            continue;
        cell.rule = cand.rule;
        cell.id_sym = cand.id_sym;
        cell.bindings_idx =
            static_cast<std::uint32_t>(bindings_pool_.size());
        bindings_pool_.push_back(std::move(*bindings));
        if (cand.next != CompiledSm::kKeepState && cand.next != state)
            cell.next = cand.next;
        return;
    }
}

} // namespace mc::metal
