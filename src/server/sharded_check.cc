/**
 * @file
 * The coordinator's half of sharded checking.
 *
 * Determinism is the whole design: every decision that shapes output
 * bytes — unit enumeration, batch membership, cache keys, quarantine
 * thresholds, merge order — is a pure function of unit identity, never
 * of scheduling, worker count, or wall-clock time. Workers only ever
 * influence *when* a result arrives, not *what* it says, and the merge
 * below replays results in the sequential visit order regardless of
 * arrival order. The compare_shards differential suite pins this:
 * shards 1/2/4 must be byte-identical, clean and under injected
 * worker kills alike.
 */
#include "server/sharded_check.h"

#include "checkers/registry.h"
#include "checkers/unit_guard.h"
#include "flash/protocol_spec.h"
#include "lang/fingerprint.h"
#include "metal/feasibility.h"
#include "server/json.h"
#include "shard/supervisor.h"
#include "support/fault_injection.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/trace.h"
#include "support/witness.h"

#include <chrono>
#include <map>
#include <set>
#include <stdexcept>

namespace mc::server {

namespace {

/** Per-unit outcome as reported by a worker (or synthesized locally
 *  for quarantined units). */
struct UnitResult
{
    bool resolved = false;
    bool failed = false;
    std::string error;
    /** budgetStopName spelling: "none", "deadline", "steps", "bytes". */
    std::string budget_stop = "none";
    double wall_ms = 0.0;
    std::uint64_t visits = 0;
    std::uint64_t pruned_edges = 0;
    std::uint64_t prune_cache_hits = 0;
    std::uint64_t prune_skipped_nary = 0;
    int worker = -1;
    std::uint64_t attempts = 0;
    /** The decoded wire payload (state + diags), for cache stores. */
    cache::CachedUnit payload;
};

/**
 * Render one check_units request line. The vocabulary is the `check`
 * params that shape analysis *results*; presentation knobs (format,
 * jobs) and containment policy (fail_fast — workers always contain,
 * the coordinator enforces the policy at merge) stay home.
 */
std::string
makeCheckUnitsRequest(const CheckRequest& request,
                      const std::vector<std::uint64_t>& units,
                      std::uint64_t id)
{
    JsonValue params = JsonValue::object();
    if (request.mode == CheckRequest::Mode::Protocol) {
        params.set("protocol", JsonValue::string(request.protocol));
    } else {
        JsonValue files = JsonValue::array();
        for (const std::string& f : request.files)
            files.push(JsonValue::string(f));
        params.set("files", std::move(files));
    }
    params.set("prune_paths",
               JsonValue::string(
                   metal::pruneStrategyName(request.prune_strategy)));
    params.set("match_strategy",
               JsonValue::string(request.match_strategy ==
                                         metal::MatchStrategy::Legacy
                                     ? "legacy"
                                     : "table"));
    params.set("witness", JsonValue::boolean(request.witness));
    if (request.witness_limit != 0)
        params.set("witness_limit",
                   JsonValue::number(
                       static_cast<std::uint64_t>(request.witness_limit)));
    if (request.unit_timeout_ms != 0)
        params.set("unit_timeout_ms",
                   JsonValue::number(static_cast<std::uint64_t>(
                       request.unit_timeout_ms)));
    if (request.unit_max_steps != 0)
        params.set("unit_max_steps",
                   JsonValue::number(static_cast<std::uint64_t>(
                       request.unit_max_steps)));
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

/** Decode one worker response line into per-unit results. Anything
 *  malformed is fatal: the worker is alive but talking nonsense, which
 *  retrying cannot fix. */
void
absorbWorkerResponse(const std::vector<std::uint64_t>& units,
                     const std::string& line, unsigned slot,
                     const std::vector<unsigned>& attempts,
                     std::vector<UnitResult>& results)
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
        UnitResult& r = results[units[i]];
        r.resolved = true;
        const JsonValue* failed = entry.get("failed");
        r.failed = failed && failed->asBool();
        if (const JsonValue* error = entry.get("error"))
            r.error = error->asString();
        if (const JsonValue* stop = entry.get("budget_stop"))
            r.budget_stop = stop->asString();
        if (const JsonValue* ms = entry.get("wall_ms"))
            r.wall_ms = ms->asDouble();
        if (const JsonValue* v = entry.get("visits"))
            r.visits = static_cast<std::uint64_t>(v->asInt());
        if (const JsonValue* v = entry.get("pruned_edges"))
            r.pruned_edges = static_cast<std::uint64_t>(v->asInt());
        if (const JsonValue* v = entry.get("prune_cache_hits"))
            r.prune_cache_hits = static_cast<std::uint64_t>(v->asInt());
        if (const JsonValue* v = entry.get("prune_skipped_nary"))
            r.prune_skipped_nary = static_cast<std::uint64_t>(v->asInt());
        r.worker = static_cast<int>(slot);
        r.attempts = i < attempts.size() ? attempts[i] : 1;
        const JsonValue* data = entry.get("data");
        std::string decode_error;
        if (!data || !data->isString() ||
            !cache::AnalysisCache::decodeUnit(data->asString(), r.payload,
                                              decode_error))
            throw std::runtime_error(
                "shard worker returned an undecodable unit result: " +
                decode_error);
    }
}

} // namespace

std::vector<checkers::CheckerRunStats>
runCheckersSharded(const lang::Program& program,
                   const flash::ProtocolSpec& spec,
                   const std::vector<checkers::Checker*>& checkers,
                   support::DiagnosticSink& sink,
                   const CheckRequest& request,
                   const ShardRunOptions& options)
{
    // Sharding rides on the shared checker definitions exactly as the
    // in-process unit machinery does: a checker without one cannot be
    // replayed from a worker's serialized state either.
    std::vector<const checkers::CheckerDef*> defs;
    for (checkers::Checker* checker : checkers) {
        defs.push_back(
            checkers::checkerDef(checker->name(), options.checker_options));
        if (!defs.back())
            return checkers::runCheckers(program, spec, checkers, sink);
    }

    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    using Clock = std::chrono::steady_clock;

    const std::vector<const lang::FunctionDecl*>& fns =
        program.functions();
    const std::size_t nfns = fns.size();
    const std::size_t ncheckers = checkers.size();
    const std::size_t nunits = nfns * ncheckers;

    std::vector<int> base_errors;
    std::vector<int> base_warnings;
    for (checkers::Checker* checker : checkers) {
        checker->reset();
        base_errors.push_back(sink.countForChecker(
            checker->name(), support::Severity::Error));
        base_warnings.push_back(sink.countForChecker(
            checker->name(), support::Severity::Warning));
    }

    if (metrics.enabled()) {
        metrics.gauge("shard.workers").observe(request.shards);
        metrics.counter("shard.work_units").add(nunits);
        metrics.counter("engine.unit_failures").add(0);
        metrics.counter("budget.truncations").add(0);
        metrics.counter("witness.truncations").add(0);
        metrics.counter("ledger.events").add(0);
        metrics.histogram("unit.wall_ns");
        metrics.histogram("unit.visits");
    }

    std::vector<std::unique_ptr<checkers::Checker>> unit_checkers(nunits);
    std::vector<support::DiagnosticSink> unit_sinks(nunits);
    std::vector<char> unit_hit(nunits, 0);
    std::vector<std::uint64_t> unit_keys(nunits, 0);

    const std::map<std::string, std::int32_t> file_ids =
        cache::AnalysisCache::fileIdsByName(program.sourceManager());

    // Phase 0: sequential cache lookup, same keys and same demote-to-miss
    // rules as runCheckersParallel — a hit replays locally and its unit
    // never reaches a worker.
    if (cache::AnalysisCache* cache = options.cache) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                "cache.lookup", "cache");
        support::ScopedTimer timer(
            metrics.enabled() ? &metrics.timer("cache.lookup") : nullptr);
        std::map<std::string, std::uint64_t> fn_fps =
            lang::fingerprintFunctions(program);
        std::uint64_t spec_fp = flash::specFingerprint(spec);
        std::vector<support::Fnv1a> key_prefixes;
        for (const checkers::CheckerDef* def : defs)
            key_prefixes.push_back(checkers::unitCacheKeyPrefix(*def));
        for (std::size_t u = 0; u < nunits; ++u) {
            std::size_t f = u / ncheckers;
            std::size_t c = u % ncheckers;
            auto fp = fn_fps.find(fns[f]->name);
            if (fp == fn_fps.end())
                continue;
            unit_keys[u] = checkers::unitCacheKey(key_prefixes[c], spec_fp,
                                                  fp->second);
            std::shared_ptr<const cache::CachedUnit> unit =
                cache->lookup(unit_keys[u]);
            if (!unit)
                continue;
            unit_checkers[u] = checkers::replayUnit(
                *defs[c], fns[f]->name, *unit, file_ids, unit_sinks[u]);
            unit_hit[u] = unit_checkers[u] != nullptr;
        }
    }

    std::vector<std::uint64_t> misses;
    for (std::size_t u = 0; u < nunits; ++u)
        if (!unit_hit[u])
            misses.push_back(u);

    std::vector<UnitResult> results(nunits);
    std::vector<char> quarantined(nunits, 0);
    support::RunLedger& ledger = support::RunLedger::global();

    if (!misses.empty()) {
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
            absorbWorkerResponse(units, line, slot, attempts, results);
        };
        hooks.on_quarantine = [&](std::uint64_t unit, unsigned crashes) {
            quarantined[unit] = 1;
            results[unit].resolved = true;
            results[unit].attempts = crashes;
        };
        hooks.on_event = [&](unsigned slot, const char* action,
                             std::uint64_t detail) {
            if (ledger.enabled())
                ledger.worker(slot, action, detail);
        };

        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                "shard.supervise", "shard");
        shard::Supervisor(sopts).run(misses, hooks);
    }

    // Replay worker results into the same per-unit (checker, sink) slots
    // phase 0 fills for hits — from here on the merge cannot tell a
    // cache hit from a worker result from an in-process unit. Replay
    // failures are fatal, not demotable: the unit already ran, and
    // silently re-running it could mask a determinism bug.
    for (std::uint64_t u : misses) {
        const std::size_t f = static_cast<std::size_t>(u) / ncheckers;
        const std::size_t c = static_cast<std::size_t>(u) % ncheckers;
        UnitResult& r = results[u];
        if (!r.resolved)
            throw std::runtime_error("shard run left unit '" +
                                     fns[f]->name + "/" +
                                     checkers[c]->name() + "' unresolved");
        if (quarantined[u]) {
            // Synthesized locally, byte-for-byte the shape of every
            // other contained unit failure — and a pure function of
            // unit identity, so any shard count quarantines the same
            // units with the same bytes.
            r.failed = true;
            r.error = "shard worker crashed; unit quarantined";
            unit_checkers[u] = defs[c]->instantiate();
            checkers::warnUnitFailed(unit_sinks[u], fns[f]->loc,
                                     checkers[c]->name(), fns[f]->name,
                                     r.error);
            continue;
        }
        unit_checkers[u] = checkers::replayUnit(
            *defs[c], fns[f]->name, r.payload, file_ids, unit_sinks[u]);
        if (!unit_checkers[u])
            throw std::runtime_error(
                "shard worker returned an unreplayable result for '" +
                fns[f]->name + "/" + checkers[c]->name() + "'");
        if (options.cache && !options.cache->readonly() &&
            unit_keys[u] != 0 && !r.failed && r.budget_stop == "none")
            options.cache->store(unit_keys[u], r.payload);
    }

    // Sequential merge in the sequential runner's visit order — the
    // same loop as runCheckersParallel, with worker-reported timing and
    // walk stats standing in for locally measured ones.
    std::set<std::int32_t> degraded_files;
    if (ledger.enabled())
        for (const lang::TranslationUnit& tu : program.units())
            if (!tu.issues.empty())
                degraded_files.insert(tu.file_id);
    std::vector<Clock::duration> elapsed(ncheckers,
                                         Clock::duration::zero());
    std::uint64_t failures = 0;
    std::uint64_t truncations = 0;
    std::uint64_t witness_truncations = 0;
    for (std::size_t u = 0; u < nunits; ++u) {
        std::size_t f = u / ncheckers;
        std::size_t c = u % ncheckers;
        const std::string label =
            fns[f]->name + "/" + checkers[c]->name();
        UnitResult& r = results[u];
        // On an injected merge fault the unit's sink is *replaced*, not
        // appended to — a failed unit contributes no partial findings,
        // exactly like every other contained unit failure. The sink
        // holds a mutex (not assignable), so replacement is a local.
        support::DiagnosticSink fault_sink;
        support::DiagnosticSink* merged = &unit_sinks[u];
        try {
            // Keyed by unit identity: the same units fault at any shard
            // count, and the containment below is the standard unit
            // failure, so injected merge faults stay byte-deterministic.
            support::fault::probe("shard.merge", label);
        } catch (const support::InjectedFault& e) {
            r.failed = true;
            r.error = e.what();
            unit_hit[u] = 0;
            unit_checkers[u] = defs[c]->instantiate();
            checkers::warnUnitFailed(fault_sink, fns[f]->loc,
                                     checkers[c]->name(), fns[f]->name,
                                     r.error);
            merged = &fault_sink;
        }
        bool unit_failed = !unit_hit[u] && r.failed;
        bool truncated = !unit_hit[u] && r.budget_stop != "none";
        if (options.fail_fast && unit_failed)
            throw std::runtime_error("unit '" + label +
                                     "' failed: " + r.error);
        checkers[c]->absorb(*unit_checkers[u]);
        elapsed[c] += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(r.wall_ms));
        for (const support::Diagnostic& d : merged->diagnostics()) {
            witness_truncations += d.witness.truncated ? 1 : 0;
            sink.report(d);
        }
        failures += unit_failed ? 1 : 0;
        truncations += truncated ? 1 : 0;
        if (ledger.enabled()) {
            support::LedgerUnitEvent event;
            event.function = fns[f]->name;
            event.checker = checkers[c]->name();
            event.wall_ms = r.wall_ms;
            event.visits = r.visits;
            event.pruned_edges = r.pruned_edges;
            event.prune_cache_hits = r.prune_cache_hits;
            event.prune_skipped_nary = r.prune_skipped_nary;
            event.cache =
                !options.cache ? "off" : unit_hit[u] ? "hit" : "miss";
            event.budget_stop =
                unit_hit[u] ? "none" : r.budget_stop.c_str();
            event.truncated = truncated;
            event.failed = unit_failed;
            event.degraded_parse =
                degraded_files.count(fns[f]->loc.file_id) != 0;
            event.worker = unit_hit[u] ? -1 : r.worker;
            event.attempts = unit_hit[u] ? 0 : r.attempts;
            ledger.unit(event);
        }
        if (metrics.enabled() && !unit_hit[u]) {
            metrics.histogram("unit.wall_ns")
                .observe(static_cast<std::uint64_t>(r.wall_ms * 1e6));
            metrics.histogram("unit.visits").observe(r.visits);
        }
    }
    if (options.health) {
        options.health->unit_failures += failures;
        options.health->budget_truncations += truncations;
    }
    if (metrics.enabled()) {
        metrics.counter("engine.unit_failures").add(failures);
        metrics.counter("budget.truncations").add(truncations);
        metrics.counter("witness.truncations").add(witness_truncations);
    }

    checkers::CheckContext ctx{program, spec, sink};
    for (std::size_t i = 0; i < ncheckers; ++i) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                checkers[i]->name() + ".program",
                                "checker");
        Clock::time_point t0 = Clock::now();
        checkers[i]->checkProgram(ctx);
        elapsed[i] += Clock::now() - t0;
    }

    std::vector<checkers::CheckerRunStats> stats;
    for (std::size_t i = 0; i < ncheckers; ++i) {
        checkers::CheckerRunStats s;
        s.checker = checkers[i]->name();
        s.errors = sink.countForChecker(s.checker,
                                        support::Severity::Error) -
                   base_errors[i];
        s.warnings = sink.countForChecker(s.checker,
                                          support::Severity::Warning) -
                     base_warnings[i];
        s.applied = checkers[i]->applied();
        s.wall_ms =
            std::chrono::duration<double, std::milli>(elapsed[i]).count();
        if (metrics.enabled()) {
            metrics.timer("checker." + s.checker)
                .add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    elapsed[i]));
            metrics.counter("checker." + s.checker + ".errors")
                .add(static_cast<std::uint64_t>(s.errors));
            metrics.counter("checker." + s.checker + ".warnings")
                .add(static_cast<std::uint64_t>(s.warnings));
            metrics.counter("checker." + s.checker + ".applied")
                .add(static_cast<std::uint64_t>(s.applied));
        }
        stats.push_back(std::move(s));
    }
    return stats;
}

} // namespace mc::server
