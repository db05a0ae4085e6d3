#include "metal/engine.h"

#include "metal/path_walker.h"
#include "metal/transition_table.h"
#include "support/fault_injection.h"
#include "support/interner.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "support/witness.h"

#include <utility>
#include <vector>

namespace mc::metal {

namespace {

/**
 * Human-readable step annotation: the rule that fired and what each
 * wildcard bound to, in binding order.
 */
std::string
witnessNote(const std::string& rule_id, const match::Bindings& bindings)
{
    std::string note = "rule " + rule_id;
    const support::SymbolInterner& interner =
        support::SymbolInterner::global();
    for (const auto& [sym, expr] : bindings.entries) {
        note += ", ";
        note += interner.name(sym);
        note += " = ";
        note += lang::exprToString(*expr);
    }
    return note;
}

/**
 * Append one SM step to the current path's trail (recorded BEFORE the
 * rule's action runs, so a diagnostic the action reports already sees
 * the firing step in its witness).
 */
void
recordWitnessStep(const std::string& from, const std::string& to,
                  const support::SourceLoc& loc, std::string note,
                  unsigned limit, SmRunResult& result)
{
    support::WitnessTrail* trail = support::WitnessTrail::current();
    if (!trail)
        return;
    if (trail->addStep(
            support::WitnessStep{from, to, loc, std::move(note)}, limit))
        ++result.witness_steps;
}

/**
 * Table walker state: dense state index plus the path's remembered
 * location (as a TransitionTable memory value), packed into an exact
 * 4-byte key.
 */
struct TableSmState
{
    StateIdx state = 0;
    /** 1 + the remembered-location slot, or 0 for none. */
    std::uint32_t memory = 0;
    StateIdx stop = 0;
    /** TransitionTable::stateBits(). */
    std::uint32_t state_bits = 0;

    std::uint32_t key() const { return state | memory << state_bits; }
    bool dead() const { return state == stop; }
};

/**
 * Compile the per-(function, SM) transition table up front, then walk
 * with O(1) cell lookups per statement. The table is a local: its
 * cells, skip bits and mask index die with this walk, since a
 * (function, SM) pair is walked once per run.
 */
SmRunResult
runTable(const StateMachine& sm, const cfg::Cfg& cfg,
         support::DiagnosticSink& sink, const SmRunOptions& options)
{
    SmRunResult result;
    const CompiledSm& csm = sm.compiled();
    TransitionTable table(csm, cfg, options.call_tests);
    const bool wit = support::witnessEnabled();
    const unsigned wlimit = support::witnessLimit();

    // Dedup firings: one (rule, location) pair fires the action and is
    // counted once, no matter how many paths cross it in the same state.
    // Keyed on the interned rule id so rules sharing an id string share
    // a dedup slot, as the sink's (checker, rule, location) dedup does.
    // A run fires a handful of times at most, so a flat vector with
    // linear membership beats a node-based set (same membership
    // semantics; order is never observed).
    struct FiredSet
    {
        std::vector<std::pair<support::SymbolId, support::SourceLoc>>
            seen;

        bool
        insert(support::SymbolId id, const support::SourceLoc& loc)
        {
            for (const auto& [seen_id, seen_loc] : seen)
                if (seen_id == id && seen_loc == loc)
                    return false;
            seen.emplace_back(id, loc);
            return true;
        }
    } fired;

    // Everything the hooks need, bundled so each lambda captures one
    // pointer and stays inside std::function's small-object buffer —
    // zero hook allocations per run.
    struct Ctx
    {
        TransitionTable& table;
        const CompiledSm& csm;
        const StateMachine& sm;
        support::DiagnosticSink& sink;
        SmRunResult& result;
        FiredSet& fired;
        bool wit;
        unsigned wlimit;

        /** Fire `rule` at `loc` in `from`, which it leaves for `to`. */
        void
        fire(const StateMachine::Rule& rule, support::SymbolId id_sym,
             const support::SourceLoc& loc, const match::Bindings& bindings,
             StateIdx from, StateIdx to)
        {
            const bool is_new = fired.insert(id_sym, loc);
            if (wit && (is_new || to != from))
                recordWitnessStep(csm.stateName(from), csm.stateName(to),
                                  loc, witnessNote(rule.id, bindings),
                                  wlimit, result);
            if (!is_new)
                return;
            ++result.firings[rule.id];
            if (rule.action)
                rule.action(
                    ActionContext(loc, bindings, sink, sm.name(), rule.id));
        }
    } ctx{table, csm, sm, sink, result, fired, wit, wlimit};

    typename PathWalker<TableSmState>::Hooks hooks;
    hooks.on_stmt = [c = &ctx](TableSmState& st, const lang::Stmt&,
                               std::uint32_t row) {
        const TransitionTable::Cell* matched = c->table.match(row, st.state);
        if (!matched)
            return; // no rule matches: the path stays in its state
        const TransitionTable::Cell& cell = *matched;
        c->fire(*cell.rule, cell.id_sym, c->table.matchLoc(cell, row),
                c->table.bindings(cell), st.state, cell.next);
        if (cell.memory)
            st.memory =
                cell.memory == TransitionTable::kForget ? 0 : cell.memory;
        if (cell.next != st.state) {
            st.state = cell.next;
            ++c->result.transitions;
        }
    };
    // End-of-path rules fire where a path leaves the function, at the
    // location it remembered (the function's own when it has none).
    const support::SourceLoc fn_loc =
        cfg.function ? cfg.function->loc : support::SourceLoc();
    if (options.end_of_path && csm.hasEndOfPath())
        hooks.on_exit = [c = &ctx, &fn_loc](TableSmState& st) {
            const CompiledSm::Candidate* eop = c->csm.endOfPath(st.state);
            if (!eop)
                return;
            static const match::Bindings kNone;
            c->fire(*eop->rule, eop->id_sym,
                    st.memory ? c->table.rememberedLoc(st.memory) : fn_loc,
                    kNone, st.state, st.state);
        };
    // Block prefilter: skip a visited block's whole statement
    // loop when the table proves no candidate of the current state can
    // match anything in it. Exact (never rejects a real match), and the
    // walker ignores it while pruning, so diagnostics and counters are
    // the same as with the hook unset in every mode.
    hooks.skip_block = [c = &ctx](const TableSmState& st, int block) {
        return c->table.blockSkippable(block, st.state);
    };

    PathWalker<TableSmState>::WalkOptions walk_options;
    walk_options.max_visits = options.max_visits;
    walk_options.prune_strategy = options.prune_strategy;
    PathWalker<TableSmState> walker(std::move(hooks), walk_options);
    TableSmState initial;
    initial.state = csm.start();
    initial.stop = csm.stop();
    initial.state_bits = table.stateBits();
    const PathWalker<TableSmState>::Result walk =
        walker.walk(cfg, initial);
    result.visits = walk.visits;
    result.truncated = walk.truncated;
    result.cache_hits = walk.cache_hits;
    result.pruned_edges = walk.pruned_edges;
    result.prune_cache_hits = walk.prune_cache_hits;
    result.prune_skipped_nary = walk.prune_skipped_nary;
    result.peak_frontier = walk.peak_frontier;
    result.budget_stop = walk.budget_stop;
    return result;
}

} // namespace

SmRunResult
runStateMachine(const StateMachine& sm, const cfg::Cfg& cfg,
                support::DiagnosticSink& sink, const SmRunOptions& options)
{
    // Observability: locals are tallied unconditionally (they are part of
    // SmRunResult anyway); the registry/recorder are only touched when
    // enabled, so a disabled run pays one boolean load here and one at
    // the end.
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    support::ScopedTimer timer(
        metrics.enabled() ? &metrics.timer(sm.timerName()) : nullptr);
    support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                            sm.name(), "engine");
    if (tracer.enabled()) {
        if (!options.trace_label.empty())
            span.arg("function", options.trace_label);
        else if (cfg.function)
            span.arg("function", std::string(cfg.function->name));
    }

    // Keyed by (machine, function): the same walks fault at any --jobs.
    // The key string is only composed when a fault spec is armed.
    if (support::fault::armed())
        support::fault::probe(
            "walker.walk",
            sm.name() + "/" +
                (!options.trace_label.empty()
                     ? options.trace_label
                     : (cfg.function ? std::string(cfg.function->name)
                                     : std::string())));

    SmRunResult result = runTable(sm, cfg, sink, options);

    if (metrics.enabled()) {
        // Each lookup takes the registry's lock, so zero tallies are
        // skipped; a checking run registers every key at zero up front
        // (checkers::registerRunMetrics).
        auto add = [&](const char* name, std::uint64_t n) {
            if (n)
                metrics.counter(name).add(n);
        };
        add("engine.runs", 1);
        add("engine.visits", result.visits);
        add("engine.cache_hits", result.cache_hits);
        add("engine.pruned_paths", result.pruned_edges);
        add("engine.sm_transitions", result.transitions);
        add("engine.truncations", result.truncated ? 1 : 0);
        metrics.gauge("engine.peak_frontier").observe(result.peak_frontier);
        std::uint64_t fired = 0;
        for (const auto& [rule, n] : result.firings)
            fired += static_cast<std::uint64_t>(n);
        add("engine.rule_firings", fired);
        add("witness.steps", result.witness_steps);
    }
    if (tracer.enabled())
        span.arg("visits", std::to_string(result.visits));
    return result;
}

} // namespace mc::metal
