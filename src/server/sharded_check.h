#ifndef MCHECK_SERVER_SHARDED_CHECK_H
#define MCHECK_SERVER_SHARDED_CHECK_H

#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "server/check_request.h"

#include <string>
#include <vector>

namespace mc::server {

/**
 * Multi-process drop-in for runCheckersParallel: same inputs, same
 * bytes in the sink at any shard count — including `--shards 1`, which
 * still crosses a process boundary and therefore exercises the whole
 * worker protocol.
 *
 * (function x checker) units are batched in deterministic order and
 * dispatched by a shard::Supervisor to `request.shards` worker
 * processes (`request.shard_worker_argv`) speaking the mccheckd line
 * protocol's `check_units` method over socketpairs. This is the shard
 * executor of checkers::runUnitPipeline: cache lookup, merge, ledger,
 * metrics and health are the pipeline's, shared with the in-process
 * runner. Each worker runs its units through checkers::runUnit and
 * returns results in the analysis cache's encoded form; the coordinator
 * replays them (replayUnit) into the pipeline's result slots, so the
 * shared sink cannot tell a sharded run from an in-process one.
 *
 * Robustness: a worker that crashes, EOFs, stalls past the heartbeat
 * activity window, or blows the per-batch deadline is killed and
 * respawned with capped exponential backoff; its un-acked units are
 * requeued as singleton batches. A unit that kills workers
 * crashes_to_quarantine times *alone* is quarantined: it merges as a
 * contained "analysis incomplete" unit failure (engine/unit-failure
 * warning, degraded exit code 2), identical bytes at any shard count.
 *
 * `checkers[i]` is an instance of `defs[i]`, which must be the
 * registered built-in definitions the workers rebuild from the request
 * (makeAllCheckers order). Of `options`, the cache, fail_fast and
 * health apply here; the request carries the per-unit budget to the
 * workers, which build their own CFGs.
 *
 * Throws std::runtime_error when no worker can be kept alive, when a
 * worker answers with a protocol error or undecodable payload, or on
 * the first failure under fail_fast (a failed or quarantined unit, in
 * merge order) — all rendered by runCheckRequest as the fatal
 * "mccheck: <what>" line (exit 3).
 */
std::vector<checkers::CheckerRunStats>
runCheckersSharded(const lang::Program& program,
                   const flash::ProtocolSpec& spec,
                   const std::vector<checkers::Checker*>& checkers,
                   const std::vector<const checkers::CheckerDef*>& defs,
                   support::DiagnosticSink& sink,
                   const CheckRequest& request,
                   const checkers::ParallelRunOptions& options);

/**
 * Decode one worker's `check_units` response line into the result
 * slots of `units` (the batch it was sent, in order): failure, budget
 * stop, wall time, walk tallies, worker `slot` and dispatch `attempts`,
 * and the unit's decoded wire payload. Does not replay the payload.
 *
 * Anything malformed is fatal and throws std::runtime_error: a line
 * that is not a JSON object, an error response, a batch not covered
 * unit for unit in order, a negative or non-integral count, a wall
 * time outside [0, 1 day], or undecodable `data`. The worker is alive
 * but talking nonsense, which retrying cannot fix. `results` must have
 * a slot for every id in `units`.
 */
void absorbWorkerResponse(const std::vector<std::uint64_t>& units,
                          const std::string& line, unsigned slot,
                          const std::vector<unsigned>& attempts,
                          std::vector<checkers::UnitResult>& results);

} // namespace mc::server

#endif // MCHECK_SERVER_SHARDED_CHECK_H
