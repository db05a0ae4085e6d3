#ifndef MCHECK_SERVER_DAEMON_H
#define MCHECK_SERVER_DAEMON_H

#include "cache/analysis_cache.h"
#include "server/json.h"
#include "server/resident.h"
#include "support/run_ledger.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

namespace mc::server {

/** Construction-time knobs for a Daemon (the mccheckd CLI maps flags
 *  straight onto these). */
struct DaemonOptions
{
    /**
     * Persistent analysis cache directory. Per-unit results always stay
     * resident with their program snapshot; a cache directory adds a
     * second tier that outlives the process. Empty means none.
     */
    std::string cache_dir;
    bool cache_readonly = false;
    /** Cache cap in MiB, enforced after each check request; 0 = off. */
    unsigned long cache_limit_mb = 0;
    /** Default --jobs for check requests that don't override it. */
    unsigned default_jobs = 0;
    /** Requests longer than this are rejected (kRequestTooLarge). */
    std::size_t max_request_bytes = 8u << 20;
    /**
     * Admission control: `check` requests in flight (queued on the
     * execution mutex + running) beyond this bound are rejected with
     * kServerBusy instead of piling up. 0 rejects every check.
     */
    unsigned max_in_flight = 8;
};

/**
 * The long-lived checking server behind mccheckd.
 *
 * One instance holds all resident state (ResidentState plus an optional
 * disk analysis cache) and maps protocol request lines to response lines.
 * `handleRequestLine` is safe to call from any thread: request
 * *decoding* is lock-free, request *execution* serializes on one
 * mutex — which is not an implementation shortcut but a correctness
 * requirement, because a check run installs the process-global witness
 * configuration. Serialization also makes concurrent
 * responses byte-identical to serial ones: each response depends only
 * on its request and the (totally ordered) resident state.
 *
 * Failure containment mirrors the batch engine's: a request that fails
 * (malformed JSON, unknown method, oversized line, injected
 * `server.request` fault, escaped exception) produces a structured
 * error response and leaves resident state untouched — the next
 * request sees a healthy server.
 */
class Daemon
{
  public:
    explicit Daemon(DaemonOptions options);

    /**
     * Handle one request line, returning the response line (no
     * trailing newline). Never throws.
     */
    std::string handleRequestLine(const std::string& line);

    /**
     * Serve newline-delimited requests from `in` until EOF or a
     * `shutdown` request; one response line per request, flushed
     * immediately. Returns the process exit code (0).
     */
    int serveStream(std::istream& in, std::ostream& out);

    bool shutdownRequested() const
    {
        return shutdown_.load(std::memory_order_acquire);
    }

    /**
     * Ask the serve loops to wind down, exactly as a `shutdown` request
     * would. Async-signal-safe (one atomic store) so mccheckd's
     * SIGTERM/SIGINT handlers may call it directly — the loops then
     * exit, and the normal shutdown path flushes the ledger `run_end`
     * and cache statistics a hard kill would lose.
     */
    void requestShutdown()
    {
        shutdown_.store(true, std::memory_order_release);
    }

    /**
     * The disk cache when the daemon has one, else the in-memory tier,
     * which check requests no longer fill. Kept for callers that drive
     * the unit pipeline with the daemon's resident programs themselves.
     */
    cache::AnalysisCache& cache();

    /** Test access; synchronize externally (or use protocol requests). */
    ResidentState& resident() { return resident_; }

  private:
    struct RequestRecord
    {
        std::uint64_t id = 0;
        std::string method;
        std::string status;
        double wall_ms = 0.0;
    };

    /** `params` belongs to the request being handled: handlers move
     *  what they keep out of it. */
    JsonValue dispatch(const std::string& method, JsonValue* params,
                       support::LedgerRequestEvent& event);
    JsonValue handleCheck(JsonValue* params,
                          support::LedgerRequestEvent& event);
    JsonValue handleCheckUnits(const JsonValue* params,
                               support::LedgerRequestEvent& event);
    JsonValue handleOpen(JsonValue* params, bool must_exist,
                         std::string& error);
    JsonValue handleClose(JsonValue* params, std::string& error);
    JsonValue statusResult();
    void finishRequest(const support::LedgerRequestEvent& event);

    DaemonOptions options_;
    std::unique_ptr<cache::AnalysisCache> disk_cache_;
    ResidentState resident_;

    /** Serializes request execution (see class comment). */
    std::mutex exec_mu_;
    std::atomic<std::uint64_t> seq_{0};
    std::atomic<unsigned> checks_in_flight_{0};
    std::atomic<bool> shutdown_{false};

    /** Backpressure telemetry for `status` (atomics: the rejection path
     *  never takes exec_mu_). */
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<unsigned> in_flight_hwm_{0};

    /** Rolling per-request timing for `status` (exec_mu_-guarded). */
    std::deque<RequestRecord> recent_;
    std::uint64_t handled_ = 0;
    std::uint64_t errors_ = 0;
};

} // namespace mc::server

#endif // MCHECK_SERVER_DAEMON_H
