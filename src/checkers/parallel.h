#ifndef MCHECK_CHECKERS_PARALLEL_H
#define MCHECK_CHECKERS_PARALLEL_H

#include "cache/analysis_cache.h"
#include "checkers/checker.h"
#include "checkers/registry.h"
#include "support/budget.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "support/run_ledger.h"
#include "support/thread_pool.h"

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

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
 * A Cfg is complete when it is built, so units share resident ones
 * freely.
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

    /**
     * The CFG of `fn`: the resident one (setting `*reused`), or one built
     * now, outside the lock, and published. Map nodes are
     * address-stable, so the reference stays good as other functions
     * insert. Thread-safe.
     */
    const cfg::Cfg& get(const lang::FunctionDecl& fn, bool* reused = nullptr);
};

/**
 * Resident unit results for long-lived callers (the checking daemon):
 * one slot per (function, checker) unit of the last run over one program
 * snapshot, in UnitPlan grid order. A slot holds what that run kept of
 * the unit — its checker instance and its findings in unit order —
 * under the unit's unitCacheKey, which covers everything a unit's output
 * depends on, exactly as the analysis cache trusts it. Failed,
 * budget-truncated and keyless units keep nothing (the rule the cache
 * uses for storing), so the store never holds more than units_total
 * units.
 *
 * A run reuses unit u iff the last run kept a unit under u's key: a
 * slot compare when the grid is unchanged (an edit that adds or removes
 * no function), otherwise one match by key while the slots are re-laid
 * for the new grid. The merge reads reused units in place — no encode,
 * decode, re-instantiation or copy, and for a unit without run state not
 * even its instance — and a run writes only the slots of the units it
 * ran or replayed from the disk cache, so a re-check's store work
 * follows the edit, not the program.
 *
 * Diagnostics carry file ids of the program they came from: the owner
 * drops the store whenever it rebuilds or evicts that program. Not
 * synchronized; the pipeline reads and writes it only from the calling
 * thread.
 */
struct ResidentUnits
{
    struct Slot
    {
        std::uint64_t key = 0;
        /** The kept instance; null when the slot keeps nothing. */
        std::unique_ptr<const Checker> checker;
        std::vector<support::Diagnostic> diags;
        /**
         * What the merge reads instead of the instance when it has no
         * run state (Checker::hasRunState): its applied count. Both are
         * read once, when the unit is kept.
         */
        int applied = 0;
        bool stateful = false;
    };
    std::vector<Slot> slots;
    /** Units the most recent completed run took from the store. */
    std::uint64_t reused = 0;

    /**
     * How the last run keyed its units, so the next one re-fingerprints
     * and re-keys only the definitions that changed. A definition whose
     * declaration is still `functions[f]` keeps `fingerprints[f]`: a
     * re-parsed file's definitions are fresh declarations, and the AST
     * arena reuses no address while its program, and so this store,
     * lives. While the spec fingerprint and the key prefixes stay `spec`
     * and `prefixes` (the values of unitCacheKeyPrefix per checker), such
     * a definition keeps its units' `keys` (grid order) as well; a
     * changed function list or configuration re-keys every unit.
     */
    struct Keying
    {
        std::vector<const lang::FunctionDecl*> functions;
        std::vector<std::uint64_t> fingerprints;
        std::vector<std::uint64_t> prefixes;
        std::uint64_t spec = 0;
        std::vector<std::uint64_t> keys;
    };
    Keying keying;

    /** Slots that keep a unit. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const Slot& slot : slots)
            n += slot.checker ? 1 : 0;
        return n;
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
     * set, the CFG build consults it before building and publishes
     * what it builds; reuses tally into the "parallel.cfg_reused" counter. The
     * cache must only ever be paired with the Program whose declarations
     * key it.
     */
    CfgCache* cfg_cache = nullptr;
    /**
     * Resident unit results shared across runs over the same Program.
     * When set, each unit is looked up here first, then in `cache`, and
     * only then run; the store keeps this run's completed units. Reuses
     * tally into the "resident.reused" counter.
     */
    ResidentUnits* resident = nullptr;
    /**
     * flash::specFingerprint of the run's spec as the spec's owner keeps
     * it (a resident snapshot), or 0 to compute it when units are keyed.
     */
    std::uint64_t spec_fingerprint = 0;
};

/**
 * The per-checker head of every unitCacheKey: engine version, checker
 * identity + options + metal source (`def.keyPrefix()`, hashed when the
 * definition was built) and the witness configuration. The witness
 * settings are process globals set per request, so build the prefix
 * once per run, not once per process; it costs a copy and two appends.
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
 * ingredient matches. The unit pipeline keys every lookup with it;
 * exposed so tests can pin the prefix path to this one-pass form.
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
replayUnit(const CheckerDef& def, std::string_view function,
           const cache::CachedUnit& unit,
           const std::map<std::string, std::int32_t>& file_ids,
           support::DiagnosticSink& sink);

/** Where a unit's result came from, in the ledger's words. */
enum class UnitCacheTag : std::uint8_t
{
    /** No resident store and no analysis cache configured. */
    Off,
    /** Replayed from the analysis cache. */
    Hit,
    /** Not reusable from the resident store or the cache, so it ran. */
    Miss,
    /** Merged from the resident store. */
    Resident,
};

/**
 * The result of one (function x checker) work unit that ran in-process,
 * replayed from the cache, or came back from a shard worker, in the
 * form the merge consumes. In-process units keep their live checker
 * instance; a worker's result arrives in its cache encoding (`wire`) and
 * the coordinator replays it into `checker` and `sink`. Nothing is
 * encoded unless a cache store or a wire reply needs it. Units the
 * resident store serves have none: the merge reads their slot.
 */
struct UnitResult
{
    /** The unit's checker instance, absorbed into its master at merge. */
    std::unique_ptr<Checker> checker;
    /** The unit's findings, containment warnings included. */
    support::DiagnosticSink sink;
    /** The unit threw: `checker` is fresh, `sink` holds one warning. */
    bool failed = false;
    std::string error;
    /** The budget limit that truncated the unit, or None. */
    support::BudgetStop budget_stop = support::BudgetStop::None;
    /** Wall time the unit ran (zero when it replayed from the cache). */
    std::chrono::steady_clock::duration wall{};
    /** Walk tallies for the unit's ledger event. */
    support::LedgerUnitStats stats;
    UnitCacheTag cache = UnitCacheTag::Off;
    /** Shard worker slot (-1 in-process) and dispatch attempts. */
    int worker = -1;
    std::uint64_t attempts = 0;
    /** A shard worker's result as decoded off the wire. */
    std::optional<cache::CachedUnit> wire;
};

/**
 * The (function x checker) units of one run. Unit u = f * defs.size() + c
 * over program.functions() x defs — the sequential runner's visit order,
 * which the merge walks — so every substrate indexes the same grid.
 */
struct UnitPlan
{
    const lang::Program& program;
    const flash::ProtocolSpec& spec;
    /** The definition each checker column instantiates from. */
    std::vector<const CheckerDef*> defs;
    /**
     * Per-unit resource budget (wall-clock deadline, step and byte
     * allowances), consulted by the path walker. Exhaustion truncates
     * the unit gracefully; default-constructed means unlimited.
     */
    support::BudgetLimits budget;
    /** Rethrow a unit's failure instead of containing it. */
    bool fail_fast = false;
    /** Where runUnit looks up (or builds) each function's CFG. */
    CfgCache* cfgs = nullptr;
    /**
     * Fault site the merge probes, keyed by label(u), as it reads each
     * unit (resident, replayed and run alike); a unit it fires on is
     * contained as a failure. The shard coordinator's "shard.merge";
     * null for none.
     */
    const char* merge_fault_site = nullptr;
    /**
     * flash::specFingerprint(spec) as the spec's owner keeps it, or 0 to
     * compute it when the pipeline keys units.
     */
    std::uint64_t spec_fingerprint = 0;

    std::size_t
    units() const
    {
        return program.functions().size() * defs.size();
    }
    const lang::FunctionDecl&
    function(std::size_t u) const
    {
        return *program.functions()[u / defs.size()];
    }
    const CheckerDef& def(std::size_t u) const { return *defs[u % defs.size()]; }
    /** "function/checker": the unit's identity in fault keys and errors. */
    std::string label(std::size_t u) const;
};

/**
 * Run unit `u` of `plan` into a default-constructed `out`: a fresh
 * instance of the unit's definition checks the function's CFG under a
 * UnitGuard with the plan's budget, behind the `checker.unit` fault
 * probe (keyed by the unit's label, so the same units fault at any job
 * or shard count). A unit that throws is discarded — fresh instance, no
 * partial findings — and leaves a single "analysis incomplete" warning;
 * a budget-truncated unit keeps its partial findings plus a
 * "budget-exhausted" marker. The one unit body of every substrate.
 * `cfg` is the function's CFG when the caller already looked it up
 * (sparing each unit a locked map lookup); null asks `plan.cfgs`.
 */
void runUnit(const UnitPlan& plan, std::size_t u, UnitResult& out,
             const cfg::Cfg* cfg = nullptr);

/**
 * Contain unit `u`'s failure: `out` becomes a failed unit with a fresh
 * checker instance and, in place of any findings, the single "analysis
 * incomplete" warning. Used by runUnit and for failures the shard
 * coordinator synthesizes (quarantine, merge faults).
 */
void failUnit(const UnitPlan& plan, std::size_t u, UnitResult& out,
              std::string error);

/** Unit `u`'s result in the cache (and shard wire) encoding. */
cache::CachedUnit captureUnit(const UnitPlan& plan, std::size_t u,
                              const UnitResult& result);

/**
 * Runs the units `todo` (the units no store served, ascending) of a plan
 * into `results`, where results[i] is unit todo[i] — the thread pool
 * in-process, the supervisor when sharded — calling `done(i)` (from any
 * thread) as soon as results[i] is complete, so the pipeline can store
 * it while other units still run.
 */
using UnitExecutor = std::function<void(
    const std::vector<std::size_t>& todo, std::vector<UnitResult>& results,
    const std::function<void(std::size_t)>& done)>;

/**
 * The unit pipeline every substrate shares, so a run's bytes, ledger,
 * metrics and health do not depend on who executed its units:
 *
 *  0. key every unit by content (unitCacheKey, from
 *     lang::fingerprintFunctions) when there is a store to look in —
 *     with `resident`, only the units its Keying says changed; take the
 *     units `resident` keeps under the same key, then replay the units
 *     `cache` holds (replayUnit);
 *  1. `execute` the remaining units, storing each completed,
 *     untruncated one back into the cache as it finishes;
 *  2. merge sequentially in unit order: each master absorbs its units'
 *     state, their findings replay through `sink` (which re-runs the
 *     global dedup the private sinks could not see), and each unit
 *     emits its ledger event and `unit.*` observations;
 *  3. keep this run's completed units in their `resident` slots;
 *  4. run the masters' program-level passes and return their stats.
 *
 * Cache lookups fan out on `pool`. With `plan.fail_fast` a failed unit
 * aborts the run at merge.
 */
std::vector<CheckerRunStats>
runUnitPipeline(const UnitPlan& plan, const std::vector<Checker*>& masters,
                support::DiagnosticSink& sink, cache::AnalysisCache* cache,
                ResidentUnits* resident, RunHealth* health,
                support::ThreadPool& pool, const UnitExecutor& execute);

/**
 * Parallel drop-in for runCheckers: same inputs, same outputs, same
 * bytes in the sink — only the wall clock differs.
 *
 * Every (function x checker) pair runs as a unit of the pipeline above,
 * on a thread pool: CFGs are built first, one builder per function
 * (only for functions with a unit to run), then the units fan out, each
 * with a private checker instance instantiated from the shared
 * CheckerDef registered under the master's name. With jobs == 1 the
 * same machinery runs (the pool spawns no threads), so sequential and
 * parallel runs degrade and replay identically. Failures tally into
 * engine.unit_failures and options.health.
 *
 * Checkers whose names have no registered definition force a
 * sequential fallback (their instances cannot be cloned); the result is
 * still correct, just not parallel — and not fault-contained.
 */
std::vector<CheckerRunStats>
runCheckersParallel(const lang::Program& program,
                    const flash::ProtocolSpec& spec,
                    const std::vector<Checker*>& checkers,
                    support::DiagnosticSink& sink,
                    const ParallelRunOptions& options = ParallelRunOptions());

/**
 * runCheckersParallel over explicit definitions: `checkers[i]` is an
 * instance of `defs[i]`. For checkers no registry name resolves — metal
 * mode's one-off user checker.
 */
std::vector<CheckerRunStats>
runCheckersParallel(const lang::Program& program,
                    const flash::ProtocolSpec& spec,
                    const std::vector<Checker*>& checkers,
                    const std::vector<const CheckerDef*>& defs,
                    support::DiagnosticSink& sink,
                    const ParallelRunOptions& options);

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_PARALLEL_H
