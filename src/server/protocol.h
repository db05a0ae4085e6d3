#ifndef MCHECK_SERVER_PROTOCOL_H
#define MCHECK_SERVER_PROTOCOL_H

#include "server/check_request.h"
#include "server/json.h"

#include <cstdint>
#include <string>

namespace mc::server {

/**
 * The mccheckd wire protocol: one JSON object per line, LSP-flavored.
 *
 * Requests carry an optional integral `id`, a `method`, and (for
 * methods that take arguments) a `params` object:
 *
 *     {"id": 1, "method": "check", "params": {"protocol": "sci",
 *                                             "format": "json"}}
 *     {"id": 2, "method": "open", "params": {"path": "h.c",
 *                                            "text": "void f() {}"}}
 *     {"id": 3, "method": "change", "params": {"path": "h.c",
 *                                              "text": "..."}}
 *     {"id": 4, "method": "close", "params": {"path": "h.c"}}
 *     {"id": 5, "method": "status"}
 *     {"id": 6, "method": "shutdown"}
 *     {"id": 7, "method": "check_units", "params": {"protocol": "sci",
 *                                                   "units": [0, 9]}}
 *
 * `check_units` is the shard-worker method: it takes the `check`
 * params (minus output formatting concerns) plus an explicit list of
 * (function x checker) unit ids, and answers with per-unit encoded
 * results instead of rendered findings. The `mccheck --shards N`
 * coordinator speaks it to `mccheck --shard-worker` processes.
 *
 * Responses echo the id with either a `result` object or an `error`
 * object ({"code": <int>, "message": <string>}). Requests without an id
 * are assigned the daemon's next sequence number, which the response
 * carries. The full shape is frozen in tools/daemon_protocol_schema.json
 * and documented in docs/daemon.md.
 *
 * Error codes follow JSON-RPC where a standard code exists.
 */
namespace protocol {

inline constexpr int kParseError = -32700;
inline constexpr int kInvalidRequest = -32600;
inline constexpr int kMethodNotFound = -32601;
inline constexpr int kInvalidParams = -32602;
/** An internal failure (injected fault, escaped exception). */
inline constexpr int kServerError = -32000;
/** Request line exceeded the daemon's size bound. */
inline constexpr int kRequestTooLarge = -32001;
/** Admission control: too many check requests in flight. */
inline constexpr int kServerBusy = -32002;

} // namespace protocol

/** {"id": <id>, "error": {"code": ..., "message": ...}} (id null when
 *  the request never yielded one). */
JsonValue makeErrorResponse(bool has_id, std::int64_t id, int code,
                            const std::string& message);

/** {"id": <id>, "result": <result>} */
JsonValue makeResultResponse(std::int64_t id, JsonValue result);

/**
 * Decode a `check` request's params into a CheckRequest: `files` plus
 * the keyed rows of requestOptions(). Strict: any unknown key, wrong
 * type, or out-of-range value is rejected with a message naming the
 * offender (the daemon returns it as an InvalidParams error).
 * `default_jobs` fills `jobs` when absent.
 */
bool parseCheckParams(const JsonValue* params, unsigned default_jobs,
                      CheckRequest& out, std::string& error);

/**
 * The inverse of parseCheckParams (with `default_jobs` 0): the target,
 * its files, and every keyed row whose value differs from a default
 * CheckRequest's. CLI-only rows and in-process fields stay out.
 */
JsonValue encodeCheckParams(const CheckRequest& request);

/**
 * Decode a `check_units` request's params: the `units` array of
 * non-negative unit ids is split off, everything else must satisfy
 * parseCheckParams. Unit ids are NOT range-checked here — the handler
 * knows the grid size.
 */
bool parseCheckUnitsParams(const JsonValue* params, unsigned default_jobs,
                           CheckRequest& out,
                           std::vector<std::uint64_t>& units,
                           std::string& error);

} // namespace mc::server

#endif // MCHECK_SERVER_PROTOCOL_H
