#ifndef MCHECK_SERVER_CHECK_REQUEST_H
#define MCHECK_SERVER_CHECK_REQUEST_H

#include "cache/analysis_cache.h"
#include "metal/engine.h"
#include "support/budget.h"
#include "support/diagnostics.h"

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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
    /** Read only by e2e_bench/mcbench.cc; part of the engine.h shim
     *  and removed with it. Nothing else reads or sets it. */
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

/**
 * One option of the check-request vocabulary.
 *
 * The rows of requestOptions() are the one place an option's flag, JSON
 * key, accepted values and help text are written down. mccheck's argv
 * parser (parseRequestArg) and --help (requestOptionsHelp), the daemon's
 * `check` params decoder (parseCheckParams) and the shard coordinator's
 * `check_units` encoder (encodeCheckParams) all walk the same rows, so a
 * flag and its key accept exactly the same values.
 */
struct RequestOption
{
    enum class Kind : std::uint8_t
    {
        /** A whole number in [1, max]. */
        Count,
        /** A switch: a bare flag storing `bare_value`, a JSON boolean. */
        Bool,
        /** One of `choices`; the member holds the choice's index. */
        Enum,
        /** The check's target, stored in `text`; it also selects `mode`. */
        String,
    };

    /** The mccheck flag. */
    const char* flag;
    /** The `check` params key, or nullptr for a CLI-only knob. */
    const char* key;
    Kind kind;
    /** The value's placeholder in --help; empty for Bool. */
    const char* metavar = "";
    /** Noun phrase for the value in usage errors ("a thread count"). */
    const char* what = "";
    /** --help text; each '\n' starts a continuation line. */
    const char* help = "";
    /** Count: the largest accepted value. */
    std::uint64_t max = 0;
    /** Bool: what the bare flag stores (false for a negating flag). */
    bool bare_value = true;
    /** Enum: the spellings, indexed by the member's value. */
    std::span<const char* const> choices = {};
    /** String: the member the value goes to, and the mode it selects. */
    std::string CheckRequest::*text = nullptr;
    CheckRequest::Mode mode = CheckRequest::Mode::Files;
    /** Count, Bool, Enum: the member, read and written as a number. */
    std::uint64_t (*get)(const CheckRequest&) = nullptr;
    void (*set)(CheckRequest&, std::uint64_t) = nullptr;
};

/** The largest `jobs` either front end accepts. */
inline constexpr std::uint64_t kMaxJobs = 1024;

/** The params key naming the source files (positional on the CLI). */
inline constexpr const char* kFilesKey = "files";

/** Every request option, in --help order. */
std::span<const RequestOption> requestOptions();

/** An Enum row's spellings for messages: "'off', 'on' or 'auto'". */
std::string choiceList(const RequestOption& row);

/**
 * The one count parser of every front end: decimal digits only (no
 * sign, no whitespace, nothing trailing), no overflow, value in
 * [1, max]. nullopt for anything else.
 */
std::optional<std::uint64_t> parseCount(std::string_view text,
                                        std::uint64_t max);

/**
 * parseCount for a command-line flag's value (`text`, null when the
 * flag was last on the line). On rejection, `error` gets the usage
 * message "<flag> needs <what> (1..<max>)[, got '<text>']".
 */
std::optional<std::uint64_t> parseCountArg(std::string_view flag,
                                           std::string_view what,
                                           std::uint64_t max,
                                           const std::string* text,
                                           std::string& error);

/**
 * Store a Count, Enum or String row's value given as text (digits, a
 * spelling, the target) into `request`; a String also selects its
 * mode. False when the row rejects the text.
 */
bool applyRequestValue(const RequestOption& row, const std::string& text,
                       CheckRequest& request);

/**
 * Apply args[i] to `request` when it is a request option's flag,
 * consuming its value (advancing `i`). Returns nullptr when args[i] is
 * no row's flag; otherwise the row, with `error` set to the usage
 * message when the value is missing or rejected.
 */
const RequestOption* parseRequestArg(const std::vector<std::string>& args,
                                     std::size_t& i, CheckRequest& request,
                                     std::string& error);

/** The rows' --help lines, flag column and all. */
std::string requestOptionsHelp();

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
