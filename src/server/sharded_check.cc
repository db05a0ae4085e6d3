/**
 * @file
 * The coordinator's half of sharded checking.
 *
 * Determinism is the whole design: every decision that shapes output
 * bytes — unit enumeration, batch membership, cache keys, quarantine
 * thresholds, merge order — is a pure function of unit identity, never
 * of scheduling, worker count, or wall-clock time. Workers only ever
 * influence *when* a result arrives, not *what* it says, and the unit
 * pipeline's merge replays results in the sequential visit order
 * regardless of arrival order. The compare_shards differential suite
 * pins this: shards 1/2/4 must be byte-identical, clean and under
 * injected worker kills alike.
 */
#include "server/sharded_check.h"

#include "checkers/registry.h"
#include "server/protocol.h"
#include "shard/supervisor.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/thread_pool.h"
#include "support/trace.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

namespace mc::server {

namespace {

/** The BudgetStop a worker spelled with budgetStopName. */
support::BudgetStop
parseBudgetStop(const std::string& name)
{
    for (support::BudgetStop stop :
         {support::BudgetStop::Deadline, support::BudgetStop::Steps,
          support::BudgetStop::Bytes})
        if (name == support::budgetStopName(stop))
            return stop;
    return support::BudgetStop::None;
}

/** The longest wall time a worker may report for one unit. */
constexpr double kMaxUnitWallMs = 24.0 * 60 * 60 * 1000;

/** Where unit `u` sits in the ascending unit list `todo`. */
std::size_t
positionIn(const std::vector<std::size_t>& todo, std::uint64_t u)
{
    auto it = std::lower_bound(todo.begin(), todo.end(), u);
    if (it == todo.end() || *it != u)
        throw std::runtime_error("shard batch names a unit the run did "
                                 "not dispatch");
    return static_cast<std::size_t>(it - todo.begin());
}

} // namespace

std::string
makeCheckUnitsRequest(const CheckRequest& request,
                      const std::vector<std::uint64_t>& units,
                      std::uint64_t id)
{
    JsonValue params = encodeCheckParams(request);
    JsonValue ids = JsonValue::array();
    for (std::uint64_t u : units)
        ids.push(JsonValue::number(u));
    params.set("units", std::move(ids));

    JsonValue line = JsonValue::object();
    line.set("id", JsonValue::number(id));
    line.set("method", JsonValue::string("check_units"));
    line.set("params", std::move(params));
    return line.dump();
}

void
absorbWorkerResponse(const std::vector<std::uint64_t>& units,
                     const std::string& line, unsigned slot,
                     const std::vector<unsigned>& attempts,
                     const std::vector<std::size_t>& todo,
                     std::vector<checkers::UnitResult>& results)
{
    JsonValue response;
    std::string parse_error;
    if (!JsonValue::parse(line, response, parse_error) ||
        !response.isObject())
        throw std::runtime_error(
            "shard worker sent a malformed response: " + parse_error);
    if (const JsonValue* error = response.get("error")) {
        const JsonValue* message = error->get("message");
        throw std::runtime_error(
            "shard worker error: " +
            (message && message->isString() ? message->asString()
                                            : error->dump()));
    }
    const JsonValue* result = response.get("result");
    const JsonValue* entries = result ? result->get("units") : nullptr;
    if (!entries || !entries->isArray() ||
        entries->items().size() != units.size())
        throw std::runtime_error(
            "shard worker response does not cover its batch");
    for (std::size_t i = 0; i < units.size(); ++i) {
        const JsonValue& entry = entries->items()[i];
        const JsonValue* unit_id = entry.get("unit");
        if (!unit_id ||
            static_cast<std::uint64_t>(unit_id->asInt(-1)) != units[i])
            throw std::runtime_error(
                "shard worker response units out of order");
        checkers::UnitResult& r = results[positionIn(todo, units[i])];
        auto count = [&](const char* key) -> std::uint64_t {
            const JsonValue* v = entry.get(key);
            if (!v)
                return 0;
            bool ok = false;
            const std::int64_t n = v->asInt(0, &ok);
            if (!ok || n < 0)
                throw std::runtime_error(
                    std::string("shard worker sent a bad '") + key + "'");
            return static_cast<std::uint64_t>(n);
        };
        const JsonValue* failed = entry.get("failed");
        r.failed = failed && failed->asBool();
        if (const JsonValue* error = entry.get("error"))
            r.error = error->asString();
        if (const JsonValue* stop = entry.get("budget_stop"))
            r.budget_stop = parseBudgetStop(stop->asString());
        if (const JsonValue* ms = entry.get("wall_ms")) {
            // A day bounds any unit's wall time and keeps the
            // conversion to the clock's integer ticks in range.
            const double wall_ms = ms->asDouble(-1.0);
            if (!(wall_ms >= 0.0 && wall_ms <= kMaxUnitWallMs))
                throw std::runtime_error(
                    "shard worker sent a bad 'wall_ms'");
            r.wall = std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(wall_ms));
        }
        r.stats.visits = count("visits");
        r.stats.pruned_edges = count("pruned_edges");
        r.stats.prune_cache_hits = count("prune_cache_hits");
        r.stats.prune_skipped_nary = count("prune_skipped_nary");
        r.worker = static_cast<int>(slot);
        r.attempts = i < attempts.size() ? attempts[i] : 1;
        const JsonValue* data = entry.get("data");
        std::string decode_error;
        cache::CachedUnit unit;
        if (!data || !data->isString() ||
            !cache::AnalysisCache::decodeUnit(data->asString(), unit,
                                              decode_error))
            throw std::runtime_error(
                "shard worker returned an undecodable unit result: " +
                decode_error);
        r.wire = std::move(unit);
    }
}

std::vector<checkers::CheckerRunStats>
runCheckersSharded(const lang::Program& program,
                   const flash::ProtocolSpec& spec,
                   const std::vector<checkers::Checker*>& checkers,
                   const std::vector<const checkers::CheckerDef*>& defs,
                   support::DiagnosticSink& sink,
                   const CheckRequest& request,
                   const checkers::ParallelRunOptions& options)
{
    // Units run in the workers, so the plan's budget and CFGs stay
    // unused here; the request carries the budget to them. The merge
    // probes the coordinator's fault site over every unit (cache hits
    // and resident units included).
    const checkers::UnitPlan plan{program, spec, defs, {},
                                  options.fail_fast, nullptr,
                                  "shard.merge", options.spec_fingerprint};
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.gauge("shard.workers").observe(request.shards);
        metrics.counter("shard.work_units").add(plan.units());
    }
    support::RunLedger& ledger = support::RunLedger::global();
    const std::map<std::string, std::int32_t> file_ids =
        cache::AnalysisCache::fileIdsByName(program.sourceManager());

    auto execute = [&](const std::vector<std::size_t>& todo,
                       std::vector<checkers::UnitResult>& results,
                       const std::function<void(std::size_t)>& done) {
        std::vector<char> quarantined(todo.size(), 0);
        if (!todo.empty()) {
            shard::SupervisorOptions sopts;
            sopts.workers = request.shards;
            sopts.worker_argv = request.shard_worker_argv;
            sopts.batch_units = request.shard_batch_units;
            sopts.batch_timeout_ms = request.shard_batch_timeout_ms;
            sopts.backoff_base_ms = request.shard_backoff_ms;

            shard::SupervisorHooks hooks;
            std::uint64_t seq = 0;
            hooks.make_request =
                [&](const std::vector<std::uint64_t>& units) {
                    return makeCheckUnitsRequest(request, units, ++seq);
                };
            hooks.on_result = [&](const std::vector<std::uint64_t>& units,
                                  const std::string& line, unsigned slot,
                                  const std::vector<unsigned>& attempts) {
                absorbWorkerResponse(units, line, slot, attempts, todo,
                                     results);
            };
            hooks.on_quarantine = [&](std::uint64_t unit,
                                      unsigned crashes) {
                const std::size_t i = positionIn(todo, unit);
                quarantined[i] = 1;
                results[i].attempts = crashes;
            };
            hooks.on_event = [&](unsigned slot, const char* action,
                                 std::uint64_t detail) {
                if (ledger.enabled())
                    ledger.worker(slot, action, detail);
            };

            support::TraceRecorder& tracer = support::TraceRecorder::global();
            support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                    "shard.supervise", "shard");
            const std::vector<std::uint64_t> units(todo.begin(), todo.end());
            shard::Supervisor(sopts).run(units, hooks);
        }

        // Replay worker results into the pipeline's result slots, as
        // cache hits are. Replay failures are fatal, not demotable: the
        // unit already ran, and silently re-running it could mask a
        // determinism bug.
        for (std::size_t i = 0; i < todo.size(); ++i) {
            const std::size_t u = todo[i];
            checkers::UnitResult& r = results[i];
            if (quarantined[i]) {
                // Synthesized locally, byte-for-byte the shape of every
                // other contained unit failure — and a pure function of
                // unit identity, so any shard count quarantines the same
                // units with the same bytes.
                checkers::failUnit(plan, u, r,
                                   "shard worker crashed; unit quarantined");
                continue;
            }
            if (!r.wire)
                throw std::runtime_error("shard run left unit '" +
                                         plan.label(u) + "' unresolved");
            r.checker = checkers::replayUnit(plan.def(u), plan.function(u).name,
                                             *r.wire, file_ids, r.sink);
            if (!r.checker)
                throw std::runtime_error(
                    "shard worker returned an unreplayable result for '" +
                    plan.label(u) + "'");
            done(i);
        }
    };
    // Lookups run on the coordinator's thread, in unit order.
    support::ThreadPool pool(1);
    return checkers::runUnitPipeline(plan, checkers, sink, options.cache,
                                     options.resident, options.health, pool,
                                     execute);
}

} // namespace mc::server
