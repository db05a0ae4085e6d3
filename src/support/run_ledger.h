#ifndef MCHECK_SUPPORT_RUN_LEDGER_H
#define MCHECK_SUPPORT_RUN_LEDGER_H

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace mc::support {

/**
 * Per-unit tallies for one ledger `unit` event, filled by whoever ran
 * the unit (the parallel runner, the metal driver). `visits` accumulates
 * across every walk the unit performed — the path walker publishes into
 * the thread-local accumulator installed by LedgerUnitScope.
 */
struct LedgerUnitEvent
{
    std::string function;
    std::string checker;
    double wall_ms = 0.0;
    std::uint64_t visits = 0;
    /** Branch edges pruned as infeasible (pruning strategies only). */
    std::uint64_t pruned_edges = 0;
    /** Feasibility verdicts answered from the prune-decision cache. */
    std::uint64_t prune_cache_hits = 0;
    /** Branch blocks pruning skipped for fanning out != 2 ways. */
    std::uint64_t prune_skipped_nary = 0;
    /** "resident" (merged from the daemon's resident store), "hit",
     *  "miss", or "off" (no store and no cache configured). */
    const char* cache = "off";
    /** Budget truncation: "none", "deadline", "steps", "bytes". */
    const char* budget_stop = "none";
    bool truncated = false;
    bool failed = false;
    /** The function's translation unit recorded a frontend issue. */
    bool degraded_parse = false;
    /**
     * Shard worker slot that produced the unit, or -1 outside sharded
     * runs. The `worker`/`attempts` fields are emitted only when >= 0,
     * so unsharded ledgers are byte-identical to earlier releases.
     */
    int worker = -1;
    /** Dispatch attempts the unit took (1 = first try; sharded only). */
    std::uint64_t attempts = 0;
};

/**
 * One daemon request as seen by the ledger (`request` event): which
 * method ran, how it ended, and how much resident state it reused. The
 * daemon emits one per request between the unit events that request
 * produced, so a ledger of a daemon session reads as an interleaving of
 * request boundaries and per-unit work.
 */
struct LedgerRequestEvent
{
    std::uint64_t id = 0;
    std::string method;
    /** "ok" or "error". */
    std::string status = "ok";
    int exit_code = 0;
    double wall_ms = 0.0;
    std::uint64_t units_total = 0;
    /** Units merged from the resident store or replayed from the cache. */
    std::uint64_t units_reused = 0;
    /** Files re-parsed (incremental updateSource or full rebuild). */
    std::uint64_t files_reparsed = 0;
    /** The resident Program snapshot satisfied this request. */
    bool program_reused = false;
};

/**
 * Thread-local visit accumulator for the unit currently running on this
 * thread. The path walker adds each walk's visit count here (one TLS
 * load per walk), so unit events can report visits without changing any
 * checker signature — the same side-channel pattern Budget::current()
 * uses for resource limits.
 */
struct LedgerUnitStats
{
    std::uint64_t visits = 0;
    std::uint64_t pruned_edges = 0;
    std::uint64_t prune_cache_hits = 0;
    std::uint64_t prune_skipped_nary = 0;

    /** The calling thread's active accumulator, or nullptr. */
    static LedgerUnitStats* current();
};

/** RAII installer for LedgerUnitStats::current() (scopes nest). */
class LedgerUnitScope
{
  public:
    explicit LedgerUnitScope(LedgerUnitStats* stats);
    ~LedgerUnitScope();

    LedgerUnitScope(const LedgerUnitScope&) = delete;
    LedgerUnitScope& operator=(const LedgerUnitScope&) = delete;

  private:
    LedgerUnitStats* prev_;
};

/**
 * Append-only JSONL run ledger (`--ledger FILE`).
 *
 * One JSON object per line: a `run_start` manifest (tool identity and
 * the flags that shape analysis), one `unit` event per (function x
 * checker) work unit in deterministic merge order, and a `run_end`
 * summary (exit code plus the run's unit/cache/failure tallies, which
 * the ledger accumulates itself as events are emitted). The schema is
 * frozen in tools/ledger_schema.json and summarized by
 * tools/ledger_summary.py.
 *
 * Disabled (no-op) until `open` succeeds; every emit site gates on
 * `enabled()` so an unledgered run pays one boolean load per unit.
 * Thread-safe: emission takes a mutex, though in practice unit events
 * flow from the single-threaded merge loop so line order is
 * deterministic for any --jobs value.
 */
class RunLedger
{
  public:
    /** The process-wide ledger the driver opens. */
    static RunLedger& global();

    bool enabled() const { return enabled_; }

    /** Open `path` for appending. Returns false on I/O failure. */
    bool open(const std::string& path);

    /** Flush and stop emitting. Safe when never opened. */
    void close();

    /** Emit the run_start manifest. */
    void runStart(const std::vector<std::string>& args, bool witness,
                  unsigned witness_limit, unsigned jobs);

    /** Emit one unit event (tallies fold into the run_end summary). */
    void unit(const LedgerUnitEvent& event);

    /** Emit one daemon request event (does not close the stream). */
    void request(const LedgerRequestEvent& event);

    /**
     * Emit one shard-worker lifecycle event (`worker`): slot index,
     * action ("spawn", "crash", "timeout_kill", "spawn_failure",
     * "quarantine"), and an action-specific detail (pid for spawns,
     * consecutive-crash count otherwise).
     */
    void worker(unsigned slot, const std::string& action,
                std::uint64_t detail);

    /** Emit the run_end summary and close the stream. */
    void runEnd(int exit_code, int errors, int warnings);

  private:
    void emitLine(const std::string& line);

    std::mutex mu_;
    std::ofstream out_;
    bool enabled_ = false;

    // Tallies folded into run_end.
    std::uint64_t units_ = 0;
    std::uint64_t unit_failures_ = 0;
    std::uint64_t truncations_ = 0;
    std::uint64_t cache_hits_ = 0;
    std::uint64_t cache_misses_ = 0;
    std::uint64_t cache_resident_ = 0;
    std::uint64_t total_visits_ = 0;
};

} // namespace mc::support

#endif // MCHECK_SUPPORT_RUN_LEDGER_H
