#ifndef MCHECK_CHECKERS_PARALLEL_H
#define MCHECK_CHECKERS_PARALLEL_H

#include "cache/analysis_cache.h"
#include "checkers/checker.h"
#include "checkers/registry.h"
#include "support/budget.h"
#include "support/hash.h"
#include "support/thread_pool.h"

#include <map>
#include <mutex>

namespace mc::checkers {

/**
 * Resident CFG store for long-lived callers (the checking daemon).
 *
 * Keyed by function *declaration pointer*: the AST arena is append-only,
 * so a declaration that survives an incremental re-parse keeps its
 * address (and its CFG here stays valid — CFGs hold pointers into the
 * same arena), while a re-parsed file's functions get fresh declarations
 * and therefore fresh entries. Stale entries for replaced declarations
 * are never looked up again; they are reclaimed when the owner drops the
 * whole cache (the daemon does so whenever it rebuilds a program).
 *
 * Entries are inserted with their backEdges() cache pre-warmed while the
 * CFG still has a single owner, so concurrent phase-2 units only ever
 * *read* a resident CFG.
 */
struct CfgCache
{
    mutable std::mutex mu;
    std::map<const lang::FunctionDecl*, cfg::Cfg> cfgs;

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return cfgs.size();
    }
};

/**
 * Containment tally for one run: how many work units failed under their
 * UnitGuard and how many were truncated by their resource budget. The
 * driver maps a non-zero unit_failures (or frontend issues) to the
 * "degraded" exit code.
 */
struct RunHealth
{
    std::uint64_t unit_failures = 0;
    std::uint64_t budget_truncations = 0;

    bool degraded() const { return unit_failures > 0; }
};

/** Knobs for runCheckersParallel. */
struct ParallelRunOptions
{
    /** Worker lanes; 0 means one per hardware thread. */
    unsigned jobs = 0;
    /**
     * Options selecting the shared CheckerDefs the per-unit instances
     * come from. Must match the options the master `checkers` were built
     * with, or the private instances check different things than the
     * masters claim.
     */
    CheckerSetOptions checker_options;
    /**
     * Reuse an existing pool (its lane count wins over `jobs`). The run
     * must not itself be executing on one of the pool's workers — the
     * pool forbids nested parallelFor.
     */
    support::ThreadPool* pool = nullptr;
    /**
     * Persistent analysis cache. When set, each (function, checker) work
     * unit is first looked up by content key — engine version, checker
     * identity/options/metal source, protocol-spec fingerprint, function
     * token-stream fingerprint — and on a hit its stored diagnostics and
     * checker state replay through the normal merge path instead of
     * re-walking paths; CFGs are only built for functions with at least
     * one miss. Output stays byte-identical to an uncached run for any
     * job count. Cache use implies the unit machinery even at jobs == 1
     * (the pool spawns no threads there). Checkers without a registered
     * definition still force the sequential, uncached fallback.
     */
    cache::AnalysisCache* cache = nullptr;
    /**
     * Per-unit resource budget (wall-clock deadline, step and byte
     * allowances) installed around each (function, checker) unit and
     * consulted by the path walker. Exhaustion truncates that unit's
     * analysis gracefully — partial findings survive, a
     * "budget-exhausted" warning marks the gap — and the unit is not
     * stored in the cache (budgets are not part of cache keys).
     * Default-constructed means unlimited.
     */
    support::BudgetLimits unit_budget;
    /**
     * Abort the whole run on the first unit failure (the exception
     * propagates out of runCheckersParallel) instead of containing it.
     */
    bool fail_fast = false;
    /** Optional out-param receiving the run's containment tally. */
    RunHealth* health = nullptr;
    /**
     * Resident CFG store shared across runs over the same Program. When
     * set, phase 1 consults it before building and publishes what it
     * builds; reuses tally into the "parallel.cfg_reused" counter. The
     * cache must only ever be paired with the Program whose declarations
     * key it.
     */
    CfgCache* cfg_cache = nullptr;
};

/**
 * The per-checker head of every unitCacheKey: engine version, checker
 * identity + options + metal source (all from `def`) and the witness
 * configuration. The witness settings are process globals set per
 * request, so build the prefix once per run, not once per process.
 */
support::Fnv1a unitCacheKeyPrefix(const CheckerDef& def);

/**
 * Finish a unit key from its checker's prefix: FNV-1a is a stream hash,
 * so a copied prefix fed the protocol-spec and function token-stream
 * fingerprints yields the same bytes as hashing everything at once,
 * without re-hashing the metal source per unit.
 */
inline std::uint64_t
unitCacheKey(support::Fnv1a prefix, std::uint64_t spec_fp,
             std::uint64_t fn_fp)
{
    return prefix.u64(spec_fp).u64(fn_fp).value();
}

/**
 * Content key for one (function, checker) work unit: the prefix above,
 * then the protocol-spec fingerprint and the function token-stream
 * fingerprint. Two runs may share a cache entry only when every
 * ingredient matches. Exposed so the shard coordinator keys its
 * phase-0 lookups exactly as the in-process runner does — byte-identical
 * warm runs depend on both computing the same key from the same inputs.
 */
inline std::uint64_t
unitCacheKey(const CheckerDef& def, std::uint64_t spec_fp,
             std::uint64_t fn_fp)
{
    return unitCacheKey(unitCacheKeyPrefix(def), spec_fp, fn_fp);
}

/**
 * Replay one stored unit result for checker `def` on `function`: a
 * fresh instance with the stored state loaded, and the stored
 * diagnostics re-resolved through `file_ids` and reported into `sink`
 * in their original order. Returns nullptr, leaving `sink` untouched,
 * when the result cannot replay: it names another (checker, function)
 * (a key collision), cites a file this run does not know, or carries
 * state loadState rejects. Shared by every substrate that replays a
 * unit instead of running it — cache hits in both runners and shard
 * worker results — so a replayed unit is the same bytes everywhere.
 */
std::unique_ptr<Checker>
replayUnit(const CheckerDef& def, const std::string& function,
           const cache::CachedUnit& unit,
           const std::map<std::string, std::int32_t>& file_ids,
           support::DiagnosticSink& sink);

/**
 * Parallel drop-in for runCheckers: same inputs, same outputs, same
 * bytes in the sink — only the wall clock differs.
 *
 * The function passes fan out as (function x checker) work units, each
 * with a private checker instance (instantiated from the shared
 * CheckerDef registered under the master's name — no parsing or
 * compiling per unit) and a private DiagnosticSink. Units are merged back
 * sequentially in (function-major, checker-minor) order — exactly the
 * order the sequential runner visits them — so the shared sink sees the
 * identical diagnostic sequence, dedup decisions and all, for any job
 * count. Master instances absorb the units' per-run state in the same
 * order, then run the program-level passes sequentially, so
 * inter-procedural checkers (lanes) see exactly the sequential state.
 *
 * Checkers whose names have no registered definition force a
 * sequential fallback (their instances cannot be cloned); the result is
 * still correct, just not parallel — and not fault-contained.
 *
 * Fault containment: every unit body runs under a UnitGuard. A unit
 * that throws (checker bug, injected fault, bad_alloc) is discarded —
 * fresh instance absorbed, no partial findings — and replaced by a
 * single "analysis incomplete" warning diagnostic (checker "engine",
 * rule "unit-failure") that flows through the normal sorted merge, so a
 * degraded run is still byte-identical for any job count. Failures
 * tally into the engine.unit_failures metric and options.health. With
 * jobs == 1 the unit machinery (and the guard) is used all the same, so
 * sequential and parallel runs degrade identically.
 */
std::vector<CheckerRunStats>
runCheckersParallel(const lang::Program& program,
                    const flash::ProtocolSpec& spec,
                    const std::vector<Checker*>& checkers,
                    support::DiagnosticSink& sink,
                    const ParallelRunOptions& options = ParallelRunOptions());

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_PARALLEL_H
