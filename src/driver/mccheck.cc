/**
 * @file
 * mccheck — the command-line front end.
 *
 * Usage:
 *     mccheck --protocol <name>          check a generated paper protocol
 *     mccheck --emit-corpus <name> <dir> write its sources to disk
 *     mccheck --list                     list known protocols
 *     mccheck --metal <c.metal> <f.c>... run a user-written metal checker
 *     mccheck <file.c>...                check FLASH-dialect sources
 *
 * `mccheck --help` lists the options. The check-request options (format,
 * jobs, pruning, witnesses, budgets, shards) are the rows of
 * server::requestOptions(), which parse argv here and the daemon's
 * `check` params alike; this file adds the driver's own options
 * (metrics, trace, ledger, cache, fault injection).
 *
 * Exit codes:
 *     0  clean — every unit analyzed completely, no errors found
 *     1  findings — checkers reported at least one error
 *     2  degraded — analysis incomplete somewhere (a parse error
 *        recovered into a poisoned declaration, a contained unit
 *        failure, or a budget truncation); takes precedence over 1
 *     3  fatal — usage errors, unreadable inputs, --fail-fast aborts,
 *        or an escaped internal error
 *
 * The checking pipeline itself lives in src/server/check_request.cc,
 * shared with the mccheckd daemon: this file only parses argv into a
 * server::CheckRequest and runs it against fresh (non-resident) state.
 * Output is deterministic for any --jobs value and for warm vs. cold
 * cache runs — see that file for the ordering guarantees. Cache status
 * goes to stderr only.
 *
 * When checking loose files, every CamelCase function is treated as a
 * hardware handler unless its name starts with "Sw" (software handler);
 * lowercase-named functions are plain routines — the FLASH naming
 * conventions the corpus also uses.
 */
#include "cache/analysis_cache.h"
#include "corpus/generator.h"
#include "server/check_request.h"
#include "server/daemon.h"
#include "support/fault_injection.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/text.h"
#include "support/trace.h"
#include "support/version.h"
#include "support/witness.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include <unistd.h>

namespace {

using namespace mc;

const char* const kSynopsis =
    "usage: mccheck [options] --protocol <name> | --list |\n"
    "       mccheck [options] --emit-corpus <name> <dir> |\n"
    "       mccheck [options] --metal <c.metal> <file.c>... |\n"
    "       mccheck [options] <file.c>...\n"
    "\n"
    "modes (besides --protocol and --metal below):\n"
    "  --list                      list known protocols\n"
    "  --emit-corpus <name> <dir>  write a protocol's sources under <dir>\n"
    "  <file.c>...                 check FLASH-dialect sources\n"
    "\n"
    "check options:\n";

const char* const kDriverOptions =
    "\n"
    "driver options:\n"
    "  --metrics <out.json>        write engine/checker metrics report\n"
    "                              (timers carry count/mean/min/max;\n"
    "                              histograms carry p50/p95/max)\n"
    "  --trace <out.json>          write Chrome trace-event JSON\n"
    "                              (open in chrome://tracing or Perfetto)\n"
    "  --ledger <out.jsonl>        append one JSON line per (function,\n"
    "                              checker) unit — wall time, visits,\n"
    "                              cache status, budget/failure state —\n"
    "                              plus run_start/run_end manifests (see\n"
    "                              tools/ledger_schema.json)\n"
    "  --cache <dir>               reuse analysis results for unchanged\n"
    "                              (function, checker) units; output is\n"
    "                              byte-identical warm or cold\n"
    "  --cache-readonly            read the cache but never write it\n"
    "  --cache-limit-mb <n>        evict oldest cache entries beyond n\n"
    "                              MiB after the run\n"
    "  --inject-fault <site:n>     arm a fault-injection probe (also\n"
    "                              via MCCHECK_FAULT_INJECT)\n"
    "  --shard-worker              internal: serve check_units batches\n"
    "                              on stdin/stdout for a --shards\n"
    "                              coordinator\n"
    "  --help                      show this help\n"
    "  --version                   print version and exit\n"
    "\n"
    "exit codes: 0 clean, 1 findings, 2 degraded (incomplete analysis;\n"
    "wins over 1), 3 fatal (usage, unreadable input, --fail-fast)\n";

std::string
usageText()
{
    return kSynopsis + server::requestOptionsHelp() + kDriverOptions;
}

/**
 * The driver's own command line. Everything a check run needs goes
 * into the server::CheckRequest beside it.
 */
struct CliOptions
{
    enum class Mode
    {
        /** Run the request (protocol, metal or files). */
        Check,
        Help,
        Version,
        List,
        EmitCorpus,
        /** Serve check_units batches on stdin/stdout (internal). */
        ShardWorker,
    };

    Mode mode = Mode::Check;
    /** --emit-corpus target directory (the protocol is the request's). */
    std::string emit_dir;
    std::string metrics_path;
    std::string trace_path;
    /** Run-ledger JSONL path; empty = ledger off. */
    std::string ledger_path;
    /** Analysis cache directory; empty = caching off. */
    std::string cache_dir;
    bool cache_readonly = false;
    /** Cache size cap in MiB enforced after the run; 0 = unlimited. */
    std::uint64_t cache_limit_mb = 0;
    /** Fault-injection spec ("site:n"); empty = use the env var only. */
    std::string inject_fault;
};

/** Print `what` plus usage to stderr; used for every CLI error. */
int
usageError(const std::string& what)
{
    std::cerr << "mccheck: " << what << '\n' << usageText();
    return 3;
}

/**
 * Parse argv into `out` and `req`. Returns -1 on success or the exit
 * code to return immediately (usage errors).
 */
int
parseArgs(const std::vector<std::string>& args, CliOptions& out,
          server::CheckRequest& req)
{
    auto need_value = [&](std::size_t i, std::string& value) -> bool {
        if (i + 1 >= args.size())
            return false;
        value = args[i + 1];
        return true;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        std::string error;
        if (const server::RequestOption* row =
                server::parseRequestArg(args, i, req, error)) {
            if (!error.empty())
                return usageError(error);
            // A target flag makes this a check run, whatever mode an
            // earlier flag selected: the last mode on the line wins.
            if (row->kind == server::RequestOption::Kind::String)
                out.mode = CliOptions::Mode::Check;
        } else if (arg == "--help" || arg == "-h") {
            out.mode = CliOptions::Mode::Help;
            return -1;
        } else if (arg == "--version") {
            out.mode = CliOptions::Mode::Version;
            return -1;
        } else if (arg == "--list") {
            out.mode = CliOptions::Mode::List;
        } else if (arg == "--emit-corpus") {
            if (i + 2 >= args.size())
                return usageError(
                    "--emit-corpus needs a protocol name and a directory");
            req.protocol = args[i + 1];
            out.emit_dir = args[i + 2];
            out.mode = CliOptions::Mode::EmitCorpus;
            i += 2;
        } else if (arg == "--metrics") {
            if (!need_value(i, out.metrics_path))
                return usageError("--metrics needs an output path");
            ++i;
        } else if (arg == "--trace") {
            if (!need_value(i, out.trace_path))
                return usageError("--trace needs an output path");
            ++i;
        } else if (arg == "--ledger") {
            if (!need_value(i, out.ledger_path))
                return usageError("--ledger needs an output path");
            ++i;
        } else if (arg == "--cache") {
            if (!need_value(i, out.cache_dir))
                return usageError("--cache needs a directory");
            ++i;
        } else if (arg == "--cache-readonly") {
            out.cache_readonly = true;
        } else if (arg == "--cache-limit-mb") {
            const std::string* text =
                i + 1 < args.size() ? &args[++i] : nullptr;
            const std::optional<std::uint64_t> mb = server::parseCountArg(
                arg, "a positive size in MiB", cache::kMaxCacheLimitMb, text,
                error);
            if (!mb)
                return usageError(error);
            out.cache_limit_mb = *mb;
        } else if (arg == "--inject-fault") {
            if (!need_value(i, out.inject_fault))
                return usageError("--inject-fault needs a <site>:<n> spec");
            ++i;
        } else if (arg == "--shard-worker") {
            out.mode = CliOptions::Mode::ShardWorker;
        } else if (support::startsWith(arg, "-") && arg != "-") {
            return usageError("unknown option '" + arg + "'");
        } else {
            req.files.push_back(arg);
        }
    }
    return -1;
}

int
listProtocols()
{
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles())
        std::cout << profile.name << '\n';
    return 0;
}

int
emitCorpus(const std::string& name, const std::string& dir)
{
    corpus::GeneratedProtocol gen =
        corpus::generateProtocol(corpus::profileByName(name));
    for (const corpus::GeneratedFile& file : gen.files) {
        std::filesystem::path path =
            std::filesystem::path(dir) / file.name;
        std::filesystem::create_directories(path.parent_path());
        std::ofstream out(path);
        out << file.source;
    }
    std::cout << "wrote " << gen.files.size() << " files ("
              << gen.totalLoc() << " LOC) under " << dir << '\n';
    return 0;
}

/**
 * Absolute path of this executable (for shard worker argv): workers
 * must be respawnable at any point of the run, so the path has to stay
 * valid even if the invoker's argv[0] was relative and the coordinator
 * later changes directory.
 */
std::string
selfExecutable(const std::string& argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0)
        return std::string(buf, static_cast<std::size_t>(n));
    return argv0;
}

/**
 * Serve `check_units` batches for a `--shards` coordinator: one
 * request line in, one response line out, over stdin/stdout (the
 * coordinator's socketpair). A detached-looking heartbeat thread
 * interleaves `{"heartbeat": n}` lines so the supervisor can tell a
 * busy worker from a dead one; both streams share one write mutex so
 * heartbeats never tear a response line.
 */
int
runShardWorker()
{
    // No disk cache and no ledger: the coordinator owns persistent
    // state, workers are disposable by design.
    server::DaemonOptions dopts;
    dopts.default_jobs = 1;
    server::Daemon daemon(dopts);
    std::mutex write_mu;
    std::atomic<bool> done{false};
    std::thread heartbeat([&] {
        std::uint64_t beats = 0;
        while (!done.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
            if (done.load(std::memory_order_acquire))
                break;
            std::lock_guard<std::mutex> lock(write_mu);
            std::cout << "{\"heartbeat\": " << ++beats << "}\n"
                      << std::flush;
        }
    });
    std::string line;
    while (std::getline(std::cin, line)) {
        const std::string response = daemon.handleRequestLine(line);
        {
            std::lock_guard<std::mutex> lock(write_mu);
            std::cout << response << '\n' << std::flush;
        }
        if (daemon.shutdownRequested())
            break;
    }
    done.store(true, std::memory_order_release);
    heartbeat.join();
    return 0;
}

/** Write metrics / trace reports if requested. Returns false on I/O error. */
bool
writeObservabilityOutputs(const CliOptions& opts)
{
    bool ok = true;
    if (!opts.metrics_path.empty()) {
        std::ofstream out(opts.metrics_path);
        if (!out) {
            std::cerr << "mccheck: cannot write " << opts.metrics_path
                      << '\n';
            ok = false;
        } else {
            support::MetricsRegistry::global().writeJson(out);
        }
    }
    if (!opts.trace_path.empty()) {
        std::ofstream out(opts.trace_path);
        if (!out) {
            std::cerr << "mccheck: cannot write " << opts.trace_path
                      << '\n';
            ok = false;
        } else {
            support::TraceRecorder::global().writeJson(out);
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        std::cerr << usageText();
        return 3;
    }

    CliOptions opts;
    server::CheckRequest req;
    if (int rc = parseArgs(args, opts, req); rc >= 0)
        return rc;

    // Arm fault injection before any probe site can run. The CLI flag
    // wins over the environment variable.
    if (!opts.inject_fault.empty()) {
        if (!support::fault::arm(opts.inject_fault))
            return usageError(
                "--inject-fault needs <site>:<n> with n >= 1, got '" +
                opts.inject_fault +
                "' (or this build has MCHECK_FAULT_INJECTION off)");
    } else {
        support::fault::armFromEnv();
    }

    if (opts.mode == CliOptions::Mode::Help) {
        std::cout << usageText();
        return 0;
    }
    if (opts.mode == CliOptions::Mode::ShardWorker)
        return runShardWorker();
    const bool check = opts.mode == CliOptions::Mode::Check;
    if (check && req.shards > 0 &&
        req.mode == server::CheckRequest::Mode::Metal)
        return usageError("--shards supports --protocol and file "
                          "checking only");
    if (opts.mode == CliOptions::Mode::Version) {
        std::cout << support::kToolName << ' ' << support::kToolVersion
                  << '\n';
        return 0;
    }

    if (!opts.metrics_path.empty())
        support::MetricsRegistry::global().setEnabled(true);
    if (!opts.trace_path.empty())
        support::TraceRecorder::global().setEnabled(true);
    // Installed here so the ledger manifest reads the effective limit;
    // runCheckRequest re-installs the same values per run.
    support::setWitnessConfig(req.witness, req.witness_limit);
    if (!opts.ledger_path.empty()) {
        support::RunLedger& ledger = support::RunLedger::global();
        if (!ledger.open(opts.ledger_path)) {
            std::cerr << "mccheck: cannot write " << opts.ledger_path
                      << '\n';
            return 3;
        }
        ledger.runStart(args, req.witness, support::witnessLimit(),
                        req.jobs);
    }

    // The cache touches stderr only: findings on stdout must stay
    // byte-identical between cold and warm runs.
    std::unique_ptr<cache::AnalysisCache> cache;
    if (!opts.cache_dir.empty()) {
        try {
            cache = std::make_unique<cache::AnalysisCache>(
                opts.cache_dir, opts.cache_readonly);
        } catch (const std::exception& e) {
            std::cerr << "mccheck: " << e.what() << '\n';
            return 3;
        }
    }

    try {
        int rc = 0;
        int run_errors = 0;
        int run_warnings = 0;
        switch (opts.mode) {
          case CliOptions::Mode::List:
            rc = listProtocols();
            break;
          case CliOptions::Mode::EmitCorpus:
            rc = emitCorpus(req.protocol, opts.emit_dir);
            break;
          case CliOptions::Mode::Check: {
            if (req.mode != server::CheckRequest::Mode::Protocol &&
                req.files.empty())
                return usageError(req.mode ==
                                          server::CheckRequest::Mode::Metal
                                      ? "--metal needs source files to "
                                        "check"
                                      : "no input files");
            if (req.shards > 0) {
                req.shard_worker_argv = {selfExecutable(argv[0]),
                                         "--shard-worker"};
                // The MCCHECK_FAULT_INJECT environment variable is
                // inherited by forked workers automatically; the CLI flag
                // must be forwarded explicitly so both arming paths reach
                // worker probe sites.
                if (!opts.inject_fault.empty()) {
                    req.shard_worker_argv.push_back("--inject-fault");
                    req.shard_worker_argv.push_back(opts.inject_fault);
                }
            }
            // Batch = the shared pipeline against fresh state: no
            // resident snapshots, reads straight from disk.
            const server::CheckOutcome outcome = server::runCheckRequest(
                req, cache.get(), /*resident=*/nullptr, std::cout,
                std::cerr);
            rc = outcome.exit_code;
            run_errors = outcome.errors;
            run_warnings = outcome.warnings;
            break;
          }
          case CliOptions::Mode::Help:
          case CliOptions::Mode::Version:
          case CliOptions::Mode::ShardWorker:
            break;
        }
        if (cache) {
            if (opts.cache_limit_mb > 0)
                cache->trim(opts.cache_limit_mb * 1024ull * 1024ull);
            for (const std::string& warning : cache->takeWarnings())
                std::cerr << "mccheck: cache: " << warning << '\n';
            const cache::CacheStats cs = cache->stats();
            std::cerr << "mccheck: cache: " << cs.hits << " hit(s), "
                      << cs.misses << " miss(es), " << cs.stores
                      << " stored, " << cs.evictions << " evicted\n";
        }
        if (!writeObservabilityOutputs(opts))
            rc = 3;
        support::RunLedger::global().runEnd(rc, run_errors,
                                            run_warnings);
        return rc;
    } catch (const std::exception& e) {
        // Anything that escapes containment — including fault-injection
        // probes outside any run — is fatal.
        std::cerr << "mccheck: " << e.what() << '\n';
        return 3;
    }
}
