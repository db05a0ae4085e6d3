/**
 * @file
 * mccheckd — the long-lived checking daemon.
 *
 * Speaks the line-delimited JSON protocol documented in
 * src/server/protocol.h and docs/daemon.md: `check` requests run the
 * exact batch pipeline (identical output bytes to `mccheck`), while
 * parsed programs, CFGs, compiled metal state machines, and per-unit
 * analysis results stay resident between requests so an edit/re-check
 * cycle only pays for what actually changed.
 *
 * Transports:
 *     mccheckd                     serve stdin/stdout (one client)
 *     mccheckd --socket <path>     serve a Unix domain socket, one
 *                                  connection at a time, until a
 *                                  `shutdown` request arrives
 *
 * Options:
 *     --jobs <n>               default --jobs for check requests
 *     --cache <dir>            persistent analysis cache behind the
 *                              resident unit results (default: none)
 *     --cache-readonly         consult the cache but never write it
 *     --cache-limit-mb <n>     evict oldest entries past n MiB after
 *                              each check request
 *     --ledger <out.jsonl>     append run_start, per-request `request`
 *                              events, per-unit events, and run_end
 *     --metrics <out.json>     write the MetricsRegistry report
 *                              (server.* counters included) at exit
 *     --max-request-bytes <n>  reject longer request lines (-32001)
 *     --max-in-flight <n>      reject check requests beyond n queued
 *                              or running (-32002); default 8
 *     --inject-fault <site:n>  arm a fault-injection probe (testing;
 *                              also via MCCHECK_FAULT_INJECT)
 *
 * Exit code 0 after a clean shutdown or EOF; 3 on startup failures.
 * Per-request outcomes (including check exit codes) travel in
 * responses, never in the process exit code.
 */
#include "server/daemon.h"
#include "support/fault_injection.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/version.h"
#include "support/witness.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace {

using namespace mc;

const char* const kUsage =
    "usage: mccheckd [options]\n"
    "       mccheckd [options] --socket <path>\n"
    "\n"
    "Serve mccheck requests over line-delimited JSON (stdin/stdout by\n"
    "default, a Unix domain socket with --socket). See docs/daemon.md.\n"
    "\n"
    "options:\n"
    "  --jobs <n>               default --jobs for check requests\n"
    "  --cache <dir>            persistent analysis cache directory\n"
    "                           (default: none; unit results stay\n"
    "                           resident with each program snapshot)\n"
    "  --cache-readonly         read the cache but never write it\n"
    "  --cache-limit-mb <n>     evict oldest entries past n MiB after\n"
    "                           each check request\n"
    "  --ledger <out.jsonl>     append request + unit events (see\n"
    "                           tools/ledger_schema.json)\n"
    "  --metrics <out.json>     write the metrics report at exit\n"
    "  --max-request-bytes <n>  reject longer request lines\n"
    "  --max-in-flight <n>      reject check requests beyond n in\n"
    "                           flight (default 8)\n"
    "  --inject-fault <site:n>  arm a fault-injection probe (testing)\n"
    "  --help                   show this help\n"
    "  --version                print version and exit\n";

struct DaemonCli
{
    server::DaemonOptions options;
    std::string socket_path;
    std::string ledger_path;
    std::string metrics_path;
    std::string inject_fault;
    bool help = false;
    bool version = false;
};

/**
 * Graceful SIGTERM/SIGINT shutdown. The handler does only
 * async-signal-safe work: set the flag, ask the daemon to stop (one
 * atomic store). The serve loops notice — accept()/read() return EINTR
 * because the handlers install *without* SA_RESTART — and unwind
 * through the normal exit path, which flushes the ledger `run_end` and
 * the resident cache statistics a hard kill would lose.
 */
volatile std::sig_atomic_t g_signal = 0;
server::Daemon* g_daemon = nullptr;

void
onShutdownSignal(int sig)
{
    g_signal = sig;
    if (g_daemon)
        g_daemon->requestShutdown();
}

void
installShutdownHandlers()
{
    struct sigaction sa
    {
    };
    sa.sa_handler = onShutdownSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: blocked reads must wake up
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

int
usageError(const std::string& what)
{
    std::cerr << "mccheckd: " << what << '\n' << kUsage;
    return 3;
}

bool
parseCount(const std::string& flag, const std::string& value,
           unsigned long& out)
{
    std::size_t used = 0;
    try {
        out = std::stoul(value, &used);
    } catch (const std::exception&) {
        std::cerr << "mccheckd: " << flag << ": '" << value
                  << "' is not a valid count\n";
        return false;
    }
    if (used != value.size()) {
        std::cerr << "mccheckd: " << flag << ": trailing characters in '"
                  << value << "'\n";
        return false;
    }
    return true;
}

/** Returns -1 on success or the exit code to return immediately. */
int
parseArgs(const std::vector<std::string>& args, DaemonCli& out)
{
    auto need_value = [&](std::size_t i, std::string& value) -> bool {
        if (i + 1 >= args.size())
            return false;
        value = args[i + 1];
        return true;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg == "--help" || arg == "-h") {
            out.help = true;
            return -1;
        }
        if (arg == "--version") {
            out.version = true;
            return -1;
        }
        if (arg == "--socket") {
            if (!need_value(i, out.socket_path))
                return usageError("--socket needs a path");
            ++i;
        } else if (arg == "--jobs") {
            std::string value;
            unsigned long parsed = 0;
            if (!need_value(i, value) ||
                !parseCount(arg, value, parsed) || parsed == 0 ||
                parsed > 1024)
                return usageError(
                    "--jobs needs a thread count in 1..1024");
            out.options.default_jobs = static_cast<unsigned>(parsed);
            ++i;
        } else if (arg == "--cache") {
            if (!need_value(i, out.options.cache_dir))
                return usageError("--cache needs a directory");
            ++i;
        } else if (arg == "--cache-readonly") {
            out.options.cache_readonly = true;
        } else if (arg == "--cache-limit-mb") {
            std::string value;
            unsigned long parsed = 0;
            if (!need_value(i, value) ||
                !parseCount(arg, value, parsed) || parsed == 0)
                return usageError(
                    "--cache-limit-mb needs a positive size in MiB");
            out.options.cache_limit_mb = parsed;
            ++i;
        } else if (arg == "--ledger") {
            if (!need_value(i, out.ledger_path))
                return usageError("--ledger needs an output path");
            ++i;
        } else if (arg == "--metrics") {
            if (!need_value(i, out.metrics_path))
                return usageError("--metrics needs an output path");
            ++i;
        } else if (arg == "--max-request-bytes") {
            std::string value;
            unsigned long parsed = 0;
            if (!need_value(i, value) ||
                !parseCount(arg, value, parsed) || parsed == 0)
                return usageError(
                    "--max-request-bytes needs a positive byte count");
            out.options.max_request_bytes = parsed;
            ++i;
        } else if (arg == "--max-in-flight") {
            std::string value;
            unsigned long parsed = 0;
            if (!need_value(i, value) || !parseCount(arg, value, parsed))
                return usageError("--max-in-flight needs a count");
            out.options.max_in_flight = static_cast<unsigned>(parsed);
            ++i;
        } else if (arg == "--inject-fault") {
            if (!need_value(i, out.inject_fault))
                return usageError(
                    "--inject-fault needs a <site>:<n> spec");
            ++i;
        } else {
            return usageError("unknown option '" + arg + "'");
        }
    }
    return -1;
}

/**
 * Serve one established connection: split the byte stream into lines,
 * answer each. A disconnect mid-request (or mid-response) just ends the
 * connection — the daemon state it never reached stays consistent, and
 * the next connection gets a healthy server.
 */
void
serveConnection(server::Daemon& daemon, int fd,
                std::size_t max_request_bytes)
{
    std::string buffer;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR) {
            if (daemon.shutdownRequested())
                return;
            continue;
        }
        if (n <= 0)
            return;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        std::size_t nl;
        while ((nl = buffer.find('\n', start)) != std::string::npos) {
            std::string line = buffer.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.find_first_not_of(" \t") == std::string::npos)
                continue;
            std::string response = daemon.handleRequestLine(line);
            response += '\n';
            std::size_t off = 0;
            while (off < response.size()) {
                ssize_t w = ::write(fd, response.data() + off,
                                    response.size() - off);
                if (w < 0 && errno == EINTR)
                    continue;
                if (w <= 0)
                    return;
                off += static_cast<std::size_t>(w);
            }
            if (daemon.shutdownRequested())
                return;
        }
        buffer.erase(0, start);
        // A line that outgrows the request bound before its newline
        // arrives would otherwise buffer without limit; cut the
        // connection instead (the size bound itself is enforced, with a
        // structured error, on complete lines).
        if (buffer.size() > max_request_bytes + 1)
            return;
    }
}

int
serveSocket(server::Daemon& daemon, const std::string& path,
            std::size_t max_request_bytes)
{
    ::signal(SIGPIPE, SIG_IGN);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        std::cerr << "mccheckd: socket path too long: " << path << '\n';
        return 3;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        std::cerr << "mccheckd: socket: " << std::strerror(errno) << '\n';
        return 3;
    }
    ::unlink(path.c_str());
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listener, 8) < 0) {
        std::cerr << "mccheckd: cannot listen on " << path << ": "
                  << std::strerror(errno) << '\n';
        ::close(listener);
        return 3;
    }
    // The readiness line clients wait for before connecting.
    std::cerr << "mccheckd: listening on " << path << '\n' << std::flush;
    while (!daemon.shutdownRequested()) {
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            std::cerr << "mccheckd: accept: " << std::strerror(errno)
                      << '\n';
            break;
        }
        serveConnection(daemon, fd, max_request_bytes);
        ::close(fd);
    }
    ::close(listener);
    ::unlink(path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    DaemonCli cli;
    if (int rc = parseArgs(args, cli); rc >= 0)
        return rc;
    if (cli.help) {
        std::cout << kUsage;
        return 0;
    }
    if (cli.version) {
        std::cout << "mccheckd " << support::kToolVersion << '\n';
        return 0;
    }

    if (!cli.inject_fault.empty()) {
        if (!support::fault::arm(cli.inject_fault))
            return usageError(
                "--inject-fault needs <site>:<n> with n >= 1, got '" +
                cli.inject_fault +
                "' (or this build has MCHECK_FAULT_INJECTION off)");
    } else {
        support::fault::armFromEnv();
    }

    if (!cli.metrics_path.empty())
        support::MetricsRegistry::global().setEnabled(true);
    if (!cli.ledger_path.empty()) {
        support::RunLedger& ledger = support::RunLedger::global();
        if (!ledger.open(cli.ledger_path)) {
            std::cerr << "mccheckd: cannot write " << cli.ledger_path
                      << '\n';
            return 3;
        }
        ledger.runStart(args, support::witnessEnabled(),
                        support::witnessLimit(),
                        cli.options.default_jobs);
    }

    int rc = 0;
    try {
        server::Daemon daemon(cli.options);
        g_daemon = &daemon;
        installShutdownHandlers();
        rc = cli.socket_path.empty()
                 ? daemon.serveStream(std::cin, std::cout)
                 : serveSocket(daemon, cli.socket_path,
                               cli.options.max_request_bytes);
        if (g_signal != 0) {
            const cache::CacheStats cs = daemon.cache().stats();
            std::cerr << "mccheckd: caught "
                      << (g_signal == SIGTERM ? "SIGTERM" : "SIGINT")
                      << ", shutting down\n"
                      << "mccheckd: cache: " << cs.hits << " hit(s), "
                      << cs.misses << " miss(es), " << cs.stores
                      << " stored, " << cs.evictions << " evicted\n";
        }
        g_daemon = nullptr;
    } catch (const std::exception& e) {
        g_daemon = nullptr;
        std::cerr << "mccheckd: " << e.what() << '\n';
        rc = 3;
    }

    if (!cli.metrics_path.empty()) {
        std::ofstream out(cli.metrics_path);
        if (!out) {
            std::cerr << "mccheckd: cannot write " << cli.metrics_path
                      << '\n';
            rc = 3;
        } else {
            support::MetricsRegistry::global().writeJson(out);
        }
    }
    support::RunLedger::global().runEnd(rc, 0, 0);
    return rc;
}
