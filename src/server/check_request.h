#ifndef MCHECK_SERVER_CHECK_REQUEST_H
#define MCHECK_SERVER_CHECK_REQUEST_H

#include "cache/analysis_cache.h"
#include "metal/engine.h"
#include "support/budget.h"
#include "support/diagnostics.h"

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace mc::server {

class ResidentState;

/**
 * One checking run, described independently of who asked for it.
 *
 * This is the seam between the front ends and the engine: the batch CLI
 * (mccheck) parses argv into one of these and runs it against fresh
 * state; the daemon (mccheckd) decodes a protocol request into the same
 * struct and runs it against resident state. Both paths execute the
 * identical pipeline below, which is what makes daemon responses
 * byte-identical to batch stdout *by construction* rather than by
 * parallel maintenance of two emitters.
 */
struct CheckRequest
{
    enum class Mode
    {
        /** Generate and check a named paper protocol. */
        Protocol,
        /** Run one user metal checker over dialect sources. */
        Metal,
        /** Check loose FLASH-dialect sources with the built-in set. */
        Files,
    };

    Mode mode = Mode::Files;
    /** Protocol name (Mode::Protocol). */
    std::string protocol;
    /** Path of the .metal checker (Mode::Metal). */
    std::string metal_path;
    /** Dialect sources (Mode::Metal, Mode::Files). */
    std::vector<std::string> files;

    support::OutputFormat format = support::OutputFormat::Text;
    /** Checking concurrency; 0 = one lane per hardware thread. */
    unsigned jobs = 0;
    metal::PruneStrategy prune_strategy = metal::PruneStrategy::Off;
    /** Per-unit wall-clock budget in ms; 0 = unlimited. */
    unsigned long unit_timeout_ms = 0;
    /** Per-unit path-walker step budget; 0 = unlimited. */
    unsigned long unit_max_steps = 0;
    bool fail_fast = false;
    /** Witness capture (process-global, installed per run; part of the
     *  cache key, so resident entries never cross configurations). */
    bool witness = false;
    /** Witness step/block cap; 0 = the built-in default. */
    unsigned witness_limit = 0;
    /** SM matching strategy (process-global default, installed per run;
     *  both strategies produce identical bytes). */
    metal::MatchStrategy match_strategy = metal::MatchStrategy::Table;

    /**
     * Worker processes for sharded checking (`--shards N`). 0 runs the
     * in-process engine; any other value routes (function x checker)
     * units through the shard supervisor, whose merge is byte-identical
     * to the in-process run at every shard count. Protocol and Files
     * modes only.
     */
    unsigned shards = 0;
    /** Units per shard work batch. */
    std::size_t shard_batch_units = 16;
    /** Per-batch wall-clock deadline in ms (0 = none). */
    unsigned long shard_batch_timeout_ms = 0;
    /** Worker-respawn backoff base in ms (timing only, never bytes). */
    unsigned long shard_backoff_ms = 50;
    /** argv of the worker command (the driver points it at itself). */
    std::vector<std::string> shard_worker_argv;

    /**
     * Source reader: (path, contents-out, error-out) -> ok. Unset means
     * read from disk. The daemon injects an overlay-first reader here so
     * `open`/`change` documents shadow the filesystem; everything
     * downstream (fingerprints, cache keys, parse) sees overlay bytes
     * with no special cases.
     */
    std::function<bool(const std::string&, std::string&, std::string&)>
        read_file;
};

/** What one run produced, beyond the bytes written to the streams. */
struct CheckOutcome
{
    /** The documented mccheck exit scheme: 0/1/2/3. */
    int exit_code = 3;
    int errors = 0;
    int warnings = 0;
    /** (function x checker) work units this run covered. */
    std::uint64_t units_total = 0;
    /** Units merged from the resident store or replayed from the
     *  analysis cache instead of re-walked. */
    std::uint64_t units_reused = 0;
    /** Source files lexed+parsed serving this run. */
    std::uint64_t files_reparsed = 0;
    /** A resident Program snapshot satisfied the run without rebuild. */
    bool program_reused = false;
};

/** Per-unit resource limits from the request's budget knobs. */
support::BudgetLimits unitBudget(const CheckRequest& request);

/**
 * Execute `request`, writing findings to `out` (the bytes a batch run
 * would put on stdout) and operational messages to `err` (stderr).
 *
 * `cache` may be null (no caching). `resident` may be null (batch: all
 * state is built fresh and dropped); when set, programs, CFGs, finished
 * unit results and compiled metal checkers are reused from / published
 * into it, keyed so that reuse can never change output bytes — an
 * unchanged unit merges its resident result under the same content key
 * a warm batch run replays by.
 *
 * Never throws: internal errors (unknown protocol, --fail-fast aborts,
 * escaped faults) render as the batch driver's "mccheck: <what>" line on
 * `err` with exit_code 3.
 */
CheckOutcome runCheckRequest(const CheckRequest& request,
                             cache::AnalysisCache* cache,
                             ResidentState* resident, std::ostream& out,
                             std::ostream& err);

} // namespace mc::server

#endif // MCHECK_SERVER_CHECK_REQUEST_H
