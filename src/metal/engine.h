#ifndef MCHECK_METAL_ENGINE_H
#define MCHECK_METAL_ENGINE_H

#include "cfg/cfg.h"
#include "metal/feasibility.h"
#include "metal/state_machine.h"
#include "support/budget.h"
#include "support/diagnostics.h"

#include <cstdint>
#include <map>

namespace mc::metal {

/** Outcome of running one state machine over one function. */
struct SmRunResult
{
    /** Rule firings, keyed by rule id, deduplicated per statement. */
    std::map<std::string, int> firings;
    /** (block, state) visits performed (path-walker cache misses). */
    std::uint64_t visits = 0;
    /** True if the visit cap stopped exploration early. */
    bool truncated = false;
    /** Paths folded into an already-visited (block, state) pair. */
    std::uint64_t cache_hits = 0;
    /** Branch edges pruned as contradictory (pruning mode only). */
    std::uint64_t pruned_edges = 0;
    /** Feasibility verdicts answered from the prune-decision cache. */
    std::uint64_t prune_cache_hits = 0;
    /** Branch blocks pruning skipped for fanning out != 2 ways. */
    std::uint64_t prune_skipped_nary = 0;
    /** Largest pending-path frontier reached during the walk. */
    std::uint64_t peak_frontier = 0;
    /** State transitions taken (rule matches that changed the state). */
    std::uint64_t transitions = 0;
    /** Witness steps appended to path trails (0 unless --witness). */
    std::uint64_t witness_steps = 0;
    /**
     * The per-unit resource budget limit that stopped the walk early
     * (support/budget.h), or None. When set, truncated is also true.
     */
    support::BudgetStop budget_stop = support::BudgetStop::None;
};

/*
 * Compatibility shim. The engine has one matcher, the transition table;
 * the process-wide strategy switch is gone. The end-to-end benchmark
 * (e2e_bench/mcbench.cc), which only a benchmark change may edit, still
 * calls setDefaultMatchStrategy(MatchStrategy::Table) and reads
 * CheckRequest::match_strategy. The next benchmark change drops that
 * call, then this one-value enum, the no-op, and the request field.
 */
enum class MatchStrategy : std::uint8_t
{
    Table,
};

inline void
setDefaultMatchStrategy(MatchStrategy)
{}

/** Options controlling one engine run. */
struct SmRunOptions
{
    /** Cap on (block, state) visits. */
    std::uint64_t max_visits = 1u << 22;
    /**
     * Prune statically impossible paths (see PruneStrategy). The paper
     * declines to build this ("the effort seemed unjustified"); the
     * path-pruning ablation measures what it would have bought.
     */
    PruneStrategy prune_strategy = PruneStrategy::Off;
    /**
     * Function name recorded on the run's trace span ("function" arg in
     * the trace viewer). Defaults to the CFG's own function when unset.
     */
    std::string trace_label;
};

/**
 * Apply `sm` down every path of `cfg`, reporting err() actions to `sink`.
 *
 * This is the intra-procedural half of xg++: rules fire on the first
 * matching pattern (current state's rules first, then `all` rules);
 * transitions update the path's state; reaching `stop` abandons the path.
 */
SmRunResult runStateMachine(const StateMachine& sm, const cfg::Cfg& cfg,
                            support::DiagnosticSink& sink,
                            const SmRunOptions& options = SmRunOptions());

} // namespace mc::metal

#endif // MCHECK_METAL_ENGINE_H
