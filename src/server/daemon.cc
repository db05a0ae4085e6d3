#include "server/daemon.h"

#include "server/check_request.h"
#include "server/check_units.h"
#include "server/protocol.h"
#include "support/fault_injection.h"
#include "support/metrics.h"
#include "support/version.h"

#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>

namespace mc::server {

namespace {

using Clock = std::chrono::steady_clock;

/** `status` reports the last this many requests. */
constexpr std::size_t kRecentRequests = 32;

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** The named daemon phase timer when --metrics is on, else null. */
support::Timer*
serverTimer(const char* name)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    return metrics.enabled() ? &metrics.timer(name) : nullptr;
}

JsonValue
uintNumber(std::uint64_t v)
{
    return JsonValue::number(v);
}

/** Move a required string member out of `params`, or fail with a
 *  naming message. */
bool
takeString(JsonValue* params, const std::string& key, std::string& out,
           std::string& error)
{
    JsonValue* v = params ? params->get(key) : nullptr;
    if (!v || !v->isString()) {
        error = "'" + key + "' must be a string";
        return false;
    }
    out = v->takeString();
    return true;
}

} // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options))
{
    if (!options_.cache_dir.empty())
        disk_cache_ = std::make_unique<cache::AnalysisCache>(
            options_.cache_dir, options_.cache_readonly);
}

cache::AnalysisCache&
Daemon::cache()
{
    return disk_cache_ ? *disk_cache_ : resident_.memoryCache();
}

void
Daemon::finishRequest(const support::LedgerRequestEvent& event)
{
    {
        std::lock_guard<std::mutex> lock(exec_mu_);
        ++handled_;
        if (event.status != "ok")
            ++errors_;
        recent_.push_back(RequestRecord{event.id, event.method,
                                        event.status, event.wall_ms});
        while (recent_.size() > kRecentRequests)
            recent_.pop_front();
    }
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter("server.requests").add(1);
        if (event.status != "ok")
            metrics.counter("server.request_errors").add(1);
    }
    support::RunLedger& ledger = support::RunLedger::global();
    if (ledger.enabled())
        ledger.request(event);
}

std::string
Daemon::handleRequestLine(const std::string& line)
{
    const Clock::time_point t0 = Clock::now();

    support::LedgerRequestEvent event;
    event.id = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    event.method = "?";
    event.status = "error";
    event.exit_code = 3;

    auto finish = [&](JsonValue response) {
        event.wall_ms = millisSince(t0);
        finishRequest(event);
        support::ScopedTimer encode_timer(serverTimer("server.encode"));
        return response.dump();
    };

    if (line.size() > options_.max_request_bytes)
        return finish(makeErrorResponse(
            /*has_id=*/false, 0, protocol::kRequestTooLarge,
            "request exceeds " +
                std::to_string(options_.max_request_bytes) + " bytes"));

    JsonValue request;
    std::string parse_error;
    support::ScopedTimer decode_timer(serverTimer("server.decode"));
    const bool parsed = JsonValue::parse(line, request, parse_error);
    decode_timer.stop();
    if (!parsed)
        return finish(makeErrorResponse(/*has_id=*/false, 0,
                                        protocol::kParseError,
                                        parse_error));
    if (!request.isObject())
        return finish(makeErrorResponse(/*has_id=*/false, 0,
                                        protocol::kInvalidRequest,
                                        "request must be a JSON object"));

    if (const JsonValue* id = request.get("id")) {
        bool ok = false;
        std::int64_t n = id->asInt(0, &ok);
        if (!ok || n < 0)
            return finish(makeErrorResponse(
                /*has_id=*/false, 0, protocol::kInvalidRequest,
                "'id' must be a non-negative integer"));
        event.id = static_cast<std::uint64_t>(n);
    }
    const std::int64_t id = static_cast<std::int64_t>(event.id);

    const JsonValue* method = request.get("method");
    if (!method || !method->isString())
        return finish(makeErrorResponse(/*has_id=*/true, id,
                                        protocol::kInvalidRequest,
                                        "'method' must be a string"));
    event.method = method->asString();

    // The request-level containment probe: an armed `server.request`
    // fault aborts this request exactly here — after decode, before any
    // state is touched — proving an error response poisons nothing.
    try {
        support::fault::probe("server.request", event.method);
    } catch (const support::InjectedFault& e) {
        return finish(makeErrorResponse(/*has_id=*/true, id,
                                        protocol::kServerError, e.what()));
    }

    // Admission control for the expensive methods: bound how many
    // check requests may be queued on the execution mutex at once.
    const bool is_check =
        event.method == "check" || event.method == "check_units";
    if (is_check) {
        unsigned in_flight =
            checks_in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (in_flight > options_.max_in_flight) {
            checks_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
            rejected_.fetch_add(1, std::memory_order_relaxed);
            support::MetricsRegistry& metrics =
                support::MetricsRegistry::global();
            if (metrics.enabled())
                metrics.counter("server.requests_rejected").add(1);
            return finish(makeErrorResponse(
                /*has_id=*/true, id, protocol::kServerBusy,
                "too many check requests in flight"));
        }
        // High-water mark of concurrently admitted checks: how close
        // the daemon has come to its admission bound.
        unsigned hwm = in_flight_hwm_.load(std::memory_order_relaxed);
        while (in_flight > hwm &&
               !in_flight_hwm_.compare_exchange_weak(
                   hwm, in_flight, std::memory_order_relaxed)) {
        }
    }

    JsonValue response;
    {
        std::lock_guard<std::mutex> lock(exec_mu_);
        try {
            response =
                dispatch(event.method, request.get("params"), event);
        } catch (const std::exception& e) {
            response = makeErrorResponse(/*has_id=*/true, id,
                                         protocol::kServerError, e.what());
            event.status = "error";
            event.exit_code = 3;
        }
    }
    if (is_check)
        checks_in_flight_.fetch_sub(1, std::memory_order_acq_rel);

    return finish(std::move(response));
}

JsonValue
Daemon::dispatch(const std::string& method, JsonValue* params,
                 support::LedgerRequestEvent& event)
{
    const std::int64_t id = static_cast<std::int64_t>(event.id);

    if (method == "check")
        return handleCheck(params, event);

    if (method == "check_units")
        return handleCheckUnits(params, event);

    if (method == "open" || method == "change" || method == "close") {
        std::string error;
        JsonValue result =
            method == "close"
                ? handleClose(params, error)
                : handleOpen(params, /*must_exist=*/method == "change",
                             error);
        if (!error.empty())
            return makeErrorResponse(/*has_id=*/true, id,
                                     protocol::kInvalidParams, error);
        event.status = "ok";
        event.exit_code = 0;
        return makeResultResponse(id, std::move(result));
    }

    if (method == "status") {
        event.status = "ok";
        event.exit_code = 0;
        return makeResultResponse(id, statusResult());
    }

    if (method == "shutdown") {
        shutdown_.store(true, std::memory_order_release);
        event.status = "ok";
        event.exit_code = 0;
        JsonValue result = JsonValue::object();
        result.set("ok", JsonValue::boolean(true));
        return makeResultResponse(id, std::move(result));
    }

    return makeErrorResponse(/*has_id=*/true, id,
                             protocol::kMethodNotFound,
                             "unknown method '" + method + "'");
}

JsonValue
Daemon::handleCheck(JsonValue* params, support::LedgerRequestEvent& event)
{
    const std::int64_t id = static_cast<std::int64_t>(event.id);

    CheckRequest request;
    std::string error;
    support::ScopedTimer decode_timer(serverTimer("server.decode"));
    const bool decoded =
        takeCheckParams(params, options_.default_jobs, request, error);
    decode_timer.stop();
    if (!decoded)
        return makeErrorResponse(/*has_id=*/true, id,
                                 protocol::kInvalidParams, error);

    // Overlay-first reads: open/changed documents shadow the disk, so
    // an editor can check unsaved buffers through the same pipeline.
    request.read_file = [this](const std::string& path,
                               std::string& contents, std::string& err) {
        return resident_.readFile(path, contents, err);
    };

    const Clock::time_point t0 = Clock::now();
    std::ostringstream out;
    std::ostringstream err;
    // Unit results stay resident per snapshot; only a disk cache, when
    // the daemon was given one, is a second tier behind them.
    const CheckOutcome outcome =
        runCheckRequest(request, disk_cache_.get(), &resident_, out, err);
    const double wall_ms = millisSince(t0);

    std::string stderr_text = std::move(err).str();
    if (disk_cache_) {
        if (options_.cache_limit_mb > 0)
            disk_cache_->trim(options_.cache_limit_mb * 1024ull * 1024ull);
        for (const std::string& warning : disk_cache_->takeWarnings())
            stderr_text += "mccheck: cache: " + warning + "\n";
    }
    // Building the result is the first half of encoding the response;
    // handleRequestLine's dump is the second.
    support::ScopedTimer encode_timer(serverTimer("server.encode"));

    event.status = "ok";
    event.exit_code = outcome.exit_code;
    event.units_total = outcome.units_total;
    event.units_reused = outcome.units_reused;
    event.files_reparsed = outcome.files_reparsed;
    event.program_reused = outcome.program_reused;

    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter("server.checks").add(1);
        metrics.counter("server.units_total").add(outcome.units_total);
        metrics.counter("server.units_reused").add(outcome.units_reused);
        metrics.counter("server.files_reparsed")
            .add(outcome.files_reparsed);
        if (outcome.program_reused)
            metrics.counter("server.programs_reused").add(1);
    }

    JsonValue stats = JsonValue::object();
    stats.set("units_total", uintNumber(outcome.units_total));
    stats.set("units_reused", uintNumber(outcome.units_reused));
    stats.set("files_reparsed", uintNumber(outcome.files_reparsed));
    stats.set("program_reused", JsonValue::boolean(outcome.program_reused));
    stats.set("wall_ms", JsonValue::number(wall_ms));

    JsonValue result = JsonValue::object();
    result.set("exit_code",
               JsonValue::number(static_cast<std::int64_t>(
                   outcome.exit_code)));
    result.set("errors", JsonValue::number(
                             static_cast<std::int64_t>(outcome.errors)));
    result.set("warnings",
               JsonValue::number(
                   static_cast<std::int64_t>(outcome.warnings)));
    // Moved, not copied: the response dump is the output's one copy.
    result.set("output", JsonValue::string(std::move(out).str()));
    result.set("stderr", JsonValue::string(std::move(stderr_text)));
    result.set("stats", std::move(stats));
    return makeResultResponse(id, std::move(result));
}

JsonValue
Daemon::handleCheckUnits(const JsonValue* params,
                         support::LedgerRequestEvent& event)
{
    const std::int64_t id = static_cast<std::int64_t>(event.id);

    CheckRequest request;
    std::vector<std::uint64_t> units;
    std::string error;
    if (!parseCheckUnitsParams(params, options_.default_jobs, request,
                               units, error))
        return makeErrorResponse(/*has_id=*/true, id,
                                 protocol::kInvalidParams, error);

    request.read_file = [this](const std::string& path,
                               std::string& contents, std::string& err) {
        return resident_.readFile(path, contents, err);
    };

    // Unlike handleCheck this may throw (unknown protocol, out-of-range
    // unit): the dispatch-level catch renders it as a kServerError
    // response, which the shard coordinator treats as fatal.
    JsonValue result = runCheckUnits(request, units, &resident_);

    event.status = "ok";
    event.exit_code = 0;
    event.units_total = units.size();

    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter("server.unit_requests").add(1);
        metrics.counter("server.units_total").add(units.size());
    }
    return makeResultResponse(id, std::move(result));
}

JsonValue
Daemon::handleOpen(JsonValue* params, bool must_exist, std::string& error)
{
    std::string path;
    std::string text;
    if (!takeString(params, "path", path, error) ||
        !takeString(params, "text", text, error))
        return JsonValue();
    if (must_exist && !resident_.hasDocument(path)) {
        error = "no open document '" + path + "'";
        return JsonValue();
    }
    resident_.openDocument(path, std::move(text));
    JsonValue result = JsonValue::object();
    result.set("ok", JsonValue::boolean(true));
    result.set("documents", uintNumber(resident_.documentCount()));
    return result;
}

JsonValue
Daemon::handleClose(JsonValue* params, std::string& error)
{
    std::string path;
    if (!takeString(params, "path", path, error))
        return JsonValue();
    const bool existed = resident_.closeDocument(path);
    JsonValue result = JsonValue::object();
    result.set("ok", JsonValue::boolean(existed));
    result.set("documents", uintNumber(resident_.documentCount()));
    return result;
}

JsonValue
Daemon::statusResult()
{
    // Callers hold exec_mu_, so recent_/handled_/errors_ reads are safe.
    JsonValue requests = JsonValue::object();
    requests.set("handled", uintNumber(handled_));
    requests.set("errors", uintNumber(errors_));
    requests.set("max_in_flight", uintNumber(options_.max_in_flight));
    requests.set("rejected",
                 uintNumber(rejected_.load(std::memory_order_relaxed)));
    requests.set("in_flight_hwm",
                 uintNumber(in_flight_hwm_.load(
                     std::memory_order_relaxed)));
    JsonValue recent = JsonValue::array();
    for (const RequestRecord& record : recent_) {
        JsonValue entry = JsonValue::object();
        entry.set("id", uintNumber(record.id));
        entry.set("method", JsonValue::string(record.method));
        entry.set("status", JsonValue::string(record.status));
        entry.set("wall_ms", JsonValue::number(record.wall_ms));
        recent.push(std::move(entry));
    }
    requests.set("recent", std::move(recent));

    JsonValue resident = JsonValue::object();
    resident.set("file_snapshots",
                 uintNumber(resident_.fileSnapshotCount()));
    resident.set("protocol_snapshots",
                 uintNumber(resident_.protocolSnapshotCount()));
    resident.set("metal_programs",
                 uintNumber(resident_.metalProgramCount()));
    resident.set("functions", uintNumber(resident_.residentFunctionCount()));
    resident.set("cfgs", uintNumber(resident_.residentCfgCount()));
    resident.set("units", uintNumber(resident_.residentUnitCount()));
    resident.set("arena_waste_bytes",
                 uintNumber(resident_.arenaWasteBytes()));

    cache::AnalysisCache& store = cache();
    const cache::CacheStats cs = store.stats();
    JsonValue cache_info = JsonValue::object();
    cache_info.set("memory", JsonValue::boolean(store.memoryBacked()));
    cache_info.set("dir", JsonValue::string(store.dir()));
    cache_info.set("readonly", JsonValue::boolean(store.readonly()));
    cache_info.set("entries", uintNumber(store.entryCount()));
    if (store.memoryBacked())
        cache_info.set("resident_bytes", uintNumber(store.residentBytes()));
    cache_info.set("hits", uintNumber(cs.hits));
    cache_info.set("misses", uintNumber(cs.misses));
    cache_info.set("stores", uintNumber(cs.stores));
    cache_info.set("evictions", uintNumber(cs.evictions));

    JsonValue result = JsonValue::object();
    result.set("tool", JsonValue::string(support::kToolName));
    result.set("version", JsonValue::string(support::kToolVersion));
    result.set("requests", std::move(requests));
    result.set("documents", uintNumber(resident_.documentCount()));
    result.set("resident", std::move(resident));
    result.set("cache", std::move(cache_info));
    return result;
}

int
Daemon::serveStream(std::istream& in, std::ostream& out)
{
    std::string line;
    while (!shutdownRequested() && std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.find_first_not_of(" \t") == std::string::npos)
            continue;
        out << handleRequestLine(line) << '\n' << std::flush;
    }
    return 0;
}

} // namespace mc::server
