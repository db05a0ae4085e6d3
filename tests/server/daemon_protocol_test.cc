/**
 * @file
 * Protocol robustness tests for the checking daemon: every malformed,
 * oversized, unknown, or fault-injected request must yield a structured
 * error response — and must NOT poison the daemon, which is proved by
 * following each failure with a healthy request. Also pins the
 * open/change/close document semantics and the admission-control and
 * shutdown behavior of the wire loop, and that the daemon's phase
 * timers account for a re-check's wall time.
 */
#include "server/daemon.h"

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "server/protocol.h"
#include "support/fault_injection.h"
#include "support/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>

namespace mc::server {
namespace {

/** Parse a response line the daemon produced (must be valid JSON). */
JsonValue
response(Daemon& daemon, const std::string& line)
{
    std::string out = daemon.handleRequestLine(line);
    JsonValue v;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(out, v, error)) << out;
    EXPECT_TRUE(v.isObject()) << out;
    EXPECT_NE(v.get("id"), nullptr) << out;
    return v;
}

/** The error code of a response, or 0 if it succeeded. */
int
errorCode(const JsonValue& resp)
{
    const JsonValue* error = resp.get("error");
    if (!error)
        return 0;
    EXPECT_NE(error->get("code"), nullptr);
    EXPECT_NE(error->get("message"), nullptr);
    EXPECT_FALSE(error->get("message")->asString().empty());
    return static_cast<int>(error->get("code")->asInt());
}

/** A `status` request must succeed — the daemon is healthy. */
void
expectHealthy(Daemon& daemon)
{
    JsonValue resp =
        response(daemon, R"({"id": 900, "method": "status"})");
    ASSERT_EQ(errorCode(resp), 0) << resp.dump();
    const JsonValue* result = resp.get("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->get("tool")->asString(), "mccheck");
}

TEST(DaemonProtocol, MalformedJsonIsAParseError)
{
    Daemon daemon({});
    JsonValue resp = response(daemon, "{nope");
    EXPECT_EQ(errorCode(resp), protocol::kParseError);
    // A request that never parsed has no id to echo.
    EXPECT_TRUE(resp.get("id")->isNull());
    expectHealthy(daemon);
}

TEST(DaemonProtocol, NonObjectRequestsAreInvalid)
{
    Daemon daemon({});
    EXPECT_EQ(errorCode(response(daemon, "42")),
              protocol::kInvalidRequest);
    EXPECT_EQ(errorCode(response(daemon, "[]")),
              protocol::kInvalidRequest);
    EXPECT_EQ(errorCode(response(daemon, "null")),
              protocol::kInvalidRequest);
    expectHealthy(daemon);
}

TEST(DaemonProtocol, MissingOrBadMethodIsInvalid)
{
    Daemon daemon({});
    EXPECT_EQ(errorCode(response(daemon, R"({"id": 1})")),
              protocol::kInvalidRequest);
    EXPECT_EQ(errorCode(response(daemon, R"({"id": 1, "method": 7})")),
              protocol::kInvalidRequest);
    expectHealthy(daemon);
}

TEST(DaemonProtocol, BadIdsAreInvalid)
{
    Daemon daemon({});
    EXPECT_EQ(
        errorCode(response(daemon,
                           R"({"id": -1, "method": "status"})")),
        protocol::kInvalidRequest);
    EXPECT_EQ(
        errorCode(response(daemon,
                           R"({"id": 1.5, "method": "status"})")),
        protocol::kInvalidRequest);
    EXPECT_EQ(
        errorCode(response(daemon,
                           R"({"id": "seven", "method": "status"})")),
        protocol::kInvalidRequest);
    expectHealthy(daemon);
}

TEST(DaemonProtocol, UnknownMethodNamesTheMethod)
{
    Daemon daemon({});
    JsonValue resp =
        response(daemon, R"({"id": 3, "method": "recheck"})");
    EXPECT_EQ(errorCode(resp), protocol::kMethodNotFound);
    EXPECT_NE(resp.get("error")->get("message")->asString().find(
                  "recheck"),
              std::string::npos);
    expectHealthy(daemon);
}

TEST(DaemonProtocol, RequestsWithoutIdGetSequenceNumbers)
{
    Daemon daemon({});
    JsonValue first = response(daemon, R"({"method": "status"})");
    JsonValue second = response(daemon, R"({"method": "status"})");
    ASSERT_TRUE(first.get("id")->isIntegral());
    ASSERT_TRUE(second.get("id")->isIntegral());
    EXPECT_LT(first.get("id")->asInt(), second.get("id")->asInt());
}

TEST(DaemonProtocol, OversizedRequestsAreRejectedNotExecuted)
{
    DaemonOptions options;
    options.max_request_bytes = 128;
    Daemon daemon(options);
    std::string big = R"({"id": 5, "method": "status", "params": {"x": ")";
    big.append(512, 'a');
    big += "\"}}";
    JsonValue resp = response(daemon, big);
    EXPECT_EQ(errorCode(resp), protocol::kRequestTooLarge);
    // The line is rejected before parsing — no id is echoed.
    EXPECT_TRUE(resp.get("id")->isNull());
    expectHealthy(daemon);
}

TEST(DaemonProtocol, InvalidCheckParamsNameTheOffender)
{
    Daemon daemon({});
    // Unknown key.
    JsonValue resp = response(
        daemon,
        R"({"id": 1, "method": "check", "params": {"protocl": "sci"}})");
    EXPECT_EQ(errorCode(resp), protocol::kInvalidParams);
    EXPECT_NE(resp.get("error")->get("message")->asString().find(
                  "protocl"),
              std::string::npos);
    // Wrong type.
    EXPECT_EQ(errorCode(response(
                  daemon,
                  R"({"id": 2, "method": "check", )"
                  R"("params": {"files": "a.c"}})")),
              protocol::kInvalidParams);
    // Bad enum value.
    EXPECT_EQ(errorCode(response(
                  daemon,
                  R"({"id": 3, "method": "check", )"
                  R"("params": {"protocol": "sci", "format": "yaml"}})")),
              protocol::kInvalidParams);
    // Fractional jobs.
    EXPECT_EQ(errorCode(response(
                  daemon,
                  R"({"id": 4, "method": "check", )"
                  R"("params": {"protocol": "sci", "jobs": 1.5}})")),
              protocol::kInvalidParams);
    expectHealthy(daemon);
}

TEST(DaemonProtocol, UnknownProtocolIsAFailedCheckNotACrash)
{
    Daemon daemon({});
    JsonValue resp = response(
        daemon,
        R"({"id": 1, "method": "check", )"
        R"("params": {"protocol": "no_such_protocol"}})");
    // The check ran and failed the batch way: exit 3, error on stderr.
    ASSERT_EQ(errorCode(resp), 0) << resp.dump();
    const JsonValue* result = resp.get("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->get("exit_code")->asInt(), 3);
    EXPECT_NE(result->get("stderr")->asString().find("no_such_protocol"),
              std::string::npos);
    expectHealthy(daemon);
}

TEST(DaemonProtocol, AdmissionControlRejectsWhenSaturated)
{
    DaemonOptions options;
    options.max_in_flight = 0; // reject every check, deterministically
    Daemon daemon(options);
    JsonValue resp = response(
        daemon,
        R"({"id": 1, "method": "check", "params": {"protocol": "sci"}})");
    EXPECT_EQ(errorCode(resp), protocol::kServerBusy);
    // Only `check` is admission-controlled; status still serves.
    expectHealthy(daemon);
}

TEST(DaemonProtocol, DocumentLifecycleIsStrict)
{
    Daemon daemon({});
    // change before open: the document must already exist.
    EXPECT_EQ(errorCode(response(
                  daemon,
                  R"({"id": 1, "method": "change", )"
                  R"("params": {"path": "u.c", "text": "x"}})")),
              protocol::kInvalidParams);
    // open, then change, then close.
    JsonValue opened = response(
        daemon,
        R"({"id": 2, "method": "open", )"
        R"("params": {"path": "u.c", "text": "void f(void) {}"}})");
    ASSERT_EQ(errorCode(opened), 0) << opened.dump();
    EXPECT_EQ(opened.get("result")->get("documents")->asInt(), 1);
    EXPECT_TRUE(daemon.resident().hasDocument("u.c"));

    EXPECT_EQ(errorCode(response(
                  daemon,
                  R"({"id": 3, "method": "change", )"
                  R"("params": {"path": "u.c", "text": "int g;"}})")),
              0);
    JsonValue closed = response(
        daemon, R"({"id": 4, "method": "close", "params": {"path": "u.c"}})");
    ASSERT_EQ(errorCode(closed), 0);
    EXPECT_TRUE(closed.get("result")->get("ok")->asBool());
    EXPECT_EQ(closed.get("result")->get("documents")->asInt(), 0);
    // close of a document that is not open reports ok: false.
    JsonValue reclosed = response(
        daemon, R"({"id": 5, "method": "close", "params": {"path": "u.c"}})");
    ASSERT_EQ(errorCode(reclosed), 0);
    EXPECT_FALSE(reclosed.get("result")->get("ok")->asBool());
    // Missing params entirely.
    EXPECT_EQ(errorCode(response(daemon, R"({"id": 6, "method": "open"})")),
              protocol::kInvalidParams);
    expectHealthy(daemon);
}

TEST(DaemonProtocol, OverlayDocumentsAreCheckedWithoutDiskFiles)
{
    Daemon daemon({});
    response(daemon,
             R"({"id": 1, "method": "open", )"
             R"("params": {"path": "overlay_only.c", )"
             R"("text": "void f(void) { x = 1; }"}})");
    JsonValue resp = response(
        daemon,
        R"({"id": 2, "method": "check", )"
        R"("params": {"files": ["overlay_only.c"], "format": "json"}})");
    ASSERT_EQ(errorCode(resp), 0) << resp.dump();
    const JsonValue* result = resp.get("result");
    // The path exists only as an overlay; the check must see it (a
    // bare routine trips exec_restrict's missing-hook rule, proving the
    // overlay text — not the filesystem — was analyzed).
    EXPECT_EQ(result->get("exit_code")->asInt(), 1) << resp.dump();
    EXPECT_NE(result->get("output")->asString().find("overlay_only.c"),
              std::string::npos);
    EXPECT_NE(result->get("output")->asString().find("missing-hook"),
              std::string::npos);
}

TEST(DaemonProtocol, StatusReflectsHandledAndErroredRequests)
{
    Daemon daemon({});
    response(daemon, "{bad");
    response(daemon, R"({"id": 1, "method": "status"})");
    JsonValue resp = response(daemon, R"({"id": 2, "method": "status"})");
    const JsonValue* requests = resp.get("result")->get("requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->get("handled")->asInt(), 2);
    EXPECT_EQ(requests->get("errors")->asInt(), 1);
    ASSERT_GE(requests->get("recent")->items().size(), 2u);
}

#if defined(MCHECK_FAULT_INJECTION)
TEST(DaemonProtocol, InjectedRequestFaultIsContained)
{
    Daemon daemon({});
    // 1-in-1: every keyed probe fires while armed.
    ASSERT_TRUE(support::fault::arm("server.request:1"));
    JsonValue resp =
        response(daemon, R"({"id": 1, "method": "status"})");
    support::fault::disarm();
    EXPECT_EQ(errorCode(resp), protocol::kServerError);
    EXPECT_NE(resp.get("error")->get("message")->asString().find(
                  "server.request"),
              std::string::npos);
    // The fault was contained: the very next request is served.
    expectHealthy(daemon);
}
#endif

TEST(DaemonProtocol, ServeStreamAnswersEveryLineAndStopsOnShutdown)
{
    Daemon daemon({});
    std::istringstream in("{\"id\": 1, \"method\": \"status\"}\n"
                          "\n"
                          "{broken\n"
                          "{\"id\": 2, \"method\": \"shutdown\"}\n"
                          "{\"id\": 3, \"method\": \"status\"}\n");
    std::ostringstream out;
    EXPECT_EQ(daemon.serveStream(in, out), 0);
    EXPECT_TRUE(daemon.shutdownRequested());

    // Blank lines are skipped; everything after shutdown is unread.
    std::istringstream lines(out.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        JsonValue v;
        std::string error;
        ASSERT_TRUE(JsonValue::parse(line, v, error)) << line;
        ++count;
    }
    EXPECT_EQ(count, 3);
}

TEST(DaemonProtocol, ShutdownAcknowledges)
{
    Daemon daemon({});
    JsonValue resp =
        response(daemon, R"({"id": 1, "method": "shutdown"})");
    ASSERT_EQ(errorCode(resp), 0);
    EXPECT_TRUE(resp.get("result")->get("ok")->asBool());
    EXPECT_TRUE(daemon.shutdownRequested());
}

/** A document request line for `method` ("open" or "change"). */
std::string
documentLine(const char* method, const std::string& path,
             const std::string& text)
{
    JsonValue params = JsonValue::object();
    params.set("path", JsonValue::string(path));
    params.set("text", JsonValue::string(text));
    JsonValue request = JsonValue::object();
    request.set("method", JsonValue::string(method));
    request.set("params", std::move(params));
    return request.dump();
}

TEST(DaemonProtocol, PhaseTimersAddUpToTheRecheckWallTime)
{
    // The daemon's top-level phase timers are disjoint and, together,
    // cover a re-check: over 200 one-file dyn_ptr re-checks they must
    // account for the wall time of handleRequestLine within 15%.
    static const char* const kTopLevel[] = {
        "server.decode",      "server.prepare", "resident.lookup",
        "phase.units",        "phase.merge",    "phase.program_pass",
        "phase.emit",         "server.encode"};
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    const bool was_enabled = metrics.enabled();
    metrics.setEnabled(true);
    auto timed = [&metrics] {
        std::uint64_t ns = 0;
        for (const char* name : kTopLevel)
            ns += metrics.timer(name).totalNanos();
        return ns;
    };

    const corpus::GeneratedProtocol gen =
        corpus::generateProtocol(corpus::profileByName("dyn_ptr"));
    DaemonOptions options;
    options.default_jobs = 1;
    Daemon daemon(options);
    JsonValue files = JsonValue::array();
    for (const corpus::GeneratedFile& file : gen.files) {
        ASSERT_EQ(errorCode(response(
                      daemon, documentLine("open", file.name, file.source))),
                  0);
        files.push(JsonValue::string(file.name));
    }
    JsonValue params = JsonValue::object();
    params.set("files", std::move(files));
    params.set("format", JsonValue::string("json"));
    JsonValue request = JsonValue::object();
    request.set("method", JsonValue::string("check"));
    request.set("params", std::move(params));
    const std::string check = request.dump();
    const JsonValue cold = response(daemon, check);
    ASSERT_EQ(errorCode(cold), 0);

    using Clock = std::chrono::steady_clock;
    std::uint64_t wall_ns = 0;
    std::uint64_t timed_ns = 0;
    for (int edit = 1; edit <= 200; ++edit) {
        const corpus::GeneratedFile& file =
            gen.files[static_cast<std::size_t>(edit * 37) % gen.files.size()];
        daemon.handleRequestLine(documentLine(
            "change", file.name,
            file.source + "\nextern int timer_edit_" +
                std::to_string(edit) + ";\n"));
        const std::uint64_t before = timed();
        const Clock::time_point t0 = Clock::now();
        const std::string line = daemon.handleRequestLine(check);
        wall_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        timed_ns += timed() - before;
        ASSERT_NE(line.find("\"exit_code\": 1"), std::string::npos);
    }
    metrics.setEnabled(was_enabled);

    ASSERT_GT(wall_ns, 0u);
    const double covered =
        static_cast<double>(timed_ns) / static_cast<double>(wall_ns);
    EXPECT_GE(covered, 0.85) << timed_ns << " of " << wall_ns << " ns";
    EXPECT_LE(covered, 1.0) << timed_ns << " of " << wall_ns << " ns";
}

} // namespace
} // namespace mc::server
