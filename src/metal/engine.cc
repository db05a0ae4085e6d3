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

/** Table walker state: dense state index (4-byte key, exact caching). */
struct TableSmState
{
    StateIdx state = 0;
    StateIdx stop = 0;

    std::uint32_t key() const { return state; }
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
    TransitionTable table(csm, cfg);
    const bool wit = support::witnessEnabled();
    const unsigned wlimit = support::witnessLimit();

    // Dedup firings: one (rule, statement) pair fires the action and is
    // counted once, no matter how many paths cross it in the same state.
    // Keyed on the interned rule id so rules sharing an id string share
    // a dedup slot. A run fires a handful of times at most, so a flat
    // vector with linear membership beats a node-based set (same
    // membership semantics; order is never observed).
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
    } ctx{table, csm, sm, sink, result, fired, wit, wlimit};

    typename PathWalker<TableSmState>::Hooks hooks;
    hooks.on_stmt = [c = &ctx](TableSmState& st, const lang::Stmt& stmt,
                               std::uint32_t row) {
        const TransitionTable::Cell& cell = c->table.cell(row, st.state);
        if (!cell.rule)
            return; // no match: fill() left cell.next == state
        bool is_new = c->fired.insert(cell.id_sym, stmt.loc);
        if (c->wit && (is_new || cell.next != st.state))
            recordWitnessStep(c->csm.stateName(st.state),
                              c->csm.stateName(cell.next), stmt.loc,
                              witnessNote(cell.rule->id,
                                          c->table.bindings(cell)),
                              c->wlimit, c->result);
        if (is_new) {
            ++c->result.firings[cell.rule->id];
            if (cell.rule->action) {
                ActionContext action_ctx(stmt, c->table.bindings(cell),
                                         c->sink, c->sm.name(),
                                         cell.rule->id);
                cell.rule->action(action_ctx);
            }
        }
        if (cell.next != st.state) {
            st.state = cell.next;
            ++c->result.transitions;
        }
    };
    // Block-range prefilter: skip a visited block's whole statement
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
        metrics.counter("engine.runs").add();
        metrics.counter("engine.visits").add(result.visits);
        metrics.counter("engine.cache_hits").add(result.cache_hits);
        metrics.counter("engine.pruned_paths").add(result.pruned_edges);
        metrics.counter("engine.sm_transitions").add(result.transitions);
        metrics.counter("engine.truncations").add(result.truncated ? 1 : 0);
        metrics.gauge("engine.peak_frontier").observe(result.peak_frontier);
        std::uint64_t fired = 0;
        for (const auto& [rule, n] : result.firings)
            fired += static_cast<std::uint64_t>(n);
        metrics.counter("engine.rule_firings").add(fired);
        metrics.counter("witness.steps").add(result.witness_steps);
    }
    if (tracer.enabled())
        span.arg("visits", std::to_string(result.visits));
    return result;
}

} // namespace mc::metal
