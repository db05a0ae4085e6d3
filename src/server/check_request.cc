/**
 * @file
 * The checking pipeline shared by mccheck (batch) and mccheckd (daemon).
 *
 * This code moved here from the batch driver so both front ends execute
 * the same functions against the same streams: every byte a daemon
 * `check` response carries was produced by the code that produces batch
 * stdout, which is what the daemon-vs-batch differential suite pins.
 *
 * Output is deterministic for any jobs value, warm or cold cache, and
 * one-shot or resident program state: diagnostics are ordered by (file,
 * line, column, checker, rule) at emission, the parallel runner merges
 * worker results in the sequential visit order, cached units replay
 * their stored diagnostics and checker state through that same merge
 * path, and resident programs keep their file ids stable across
 * in-place re-parses so emission order cannot drift.
 */
#include "server/check_request.h"

#include "cfg/cfg.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "checkers/unit_guard.h"
#include "corpus/generator.h"
#include "flash/protocol_spec.h"
#include "lang/fingerprint.h"
#include "metal/metal_parser.h"
#include "server/check_units.h"
#include "server/resident.h"
#include "server/sharded_check.h"
#include "support/budget.h"
#include "support/fault_injection.h"
#include "support/hash.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/text.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "support/version.h"
#include "support/witness.h"

#include <cctype>
#include <chrono>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

namespace mc::server {

namespace {

/** Per-unit resource limits from the request's budget knobs. */
support::BudgetLimits
unitBudget(const CheckRequest& req)
{
    support::BudgetLimits limits;
    limits.deadline = std::chrono::milliseconds(req.unit_timeout_ms);
    limits.max_steps = req.unit_max_steps;
    return limits;
}

/**
 * Map a finished run to the documented exit scheme: degraded (2) wins
 * over findings (1) — an incomplete analysis can neither prove nor
 * refute cleanliness, and the caller must not mistake "no errors
 * reported" for "no errors present".
 */
int
exitCode(bool degraded, const support::DiagnosticSink& sink)
{
    if (degraded)
        return 2;
    return sink.count(support::Severity::Error) > 0 ? 1 : 0;
}

/**
 * Surface recovered frontend failures (parse/lex errors that poisoned a
 * declaration) as ordinary diagnostics so they reach every output
 * format, SARIF included, through the same sorted emission path.
 */
void
reportFrontendIssues(const lang::Program& program,
                     support::DiagnosticSink& sink)
{
    for (const lang::TranslationUnit& unit : program.units())
        for (const lang::ParseIssue& issue : unit.issues)
            sink.error(issue.loc, "frontend", issue.rule, issue.message);
}

/** Render run stats + diagnostics in the selected format. */
void
emitFindings(const CheckRequest& req,
             const support::DiagnosticSink& sink,
             const support::SourceManager* sm,
             const std::vector<checkers::CheckerRunStats>* stats,
             std::ostream& out, CheckOutcome& outcome)
{
    outcome.errors = sink.count(support::Severity::Error);
    outcome.warnings = sink.count(support::Severity::Warning);
    if (req.format == support::OutputFormat::Text) {
        sink.print(out, sm);
        if (stats) {
            out << '\n';
            std::vector<std::vector<std::string>> rows;
            for (const auto& s : *stats) {
                std::ostringstream ms;
                ms.precision(2);
                ms << std::fixed << s.wall_ms;
                rows.push_back({s.checker, std::to_string(s.errors),
                                std::to_string(s.warnings),
                                std::to_string(s.applied), ms.str()});
            }
            out << support::formatTable(
                {"checker", "errors", "warnings", "applied", "wall_ms"},
                rows);
        }
    } else {
        sink.write(out, req.format, sm);
    }
}

FileReader
sourceReader(const CheckRequest& req)
{
    return req.read_file ? req.read_file : FileReader(readDiskFile);
}

/**
 * Run the checker set in-process or — when the request asks for shards
 * — across supervised worker processes. Both paths produce identical
 * sink bytes; only the execution substrate differs.
 */
std::vector<checkers::CheckerRunStats>
runCheckerSet(const CheckRequest& req, cache::AnalysisCache* cache,
              const lang::Program& program,
              const flash::ProtocolSpec& spec,
              const std::vector<checkers::Checker*>& checkers,
              support::DiagnosticSink& sink,
              const checkers::CheckerSetOptions& copts,
              checkers::RunHealth& health, checkers::CfgCache* cfgs)
{
    if (req.shards > 0) {
        ShardRunOptions srun;
        srun.checker_options = copts;
        srun.cache = cache;
        srun.fail_fast = req.fail_fast;
        srun.health = &health;
        return runCheckersSharded(program, spec, checkers, sink, req,
                                  srun);
    }
    checkers::ParallelRunOptions prun;
    prun.jobs = req.jobs;
    prun.cache = cache;
    prun.unit_budget = unitBudget(req);
    prun.fail_fast = req.fail_fast;
    prun.health = &health;
    prun.checker_options = copts;
    prun.cfg_cache = cfgs;
    return checkers::runCheckersParallel(program, spec, checkers, sink,
                                         prun);
}

PreparedProgram
prepareSources(const CheckRequest& req, ResidentState* resident)
{
    if (resident)
        return resident->prepareFiles(req.files, sourceReader(req));
    return buildProgramOneShot(req.files, sourceReader(req));
}

int
checkProtocol(const CheckRequest& req, cache::AnalysisCache* cache,
              ResidentState* resident, std::ostream& out,
              CheckOutcome& outcome)
{
    corpus::LoadedProtocol local;
    corpus::LoadedProtocol* loaded = &local;
    checkers::CfgCache* cfgs = nullptr;
    bool reused = false;
    if (resident) {
        loaded = &resident->protocolSnapshot(req.protocol, cfgs, reused);
    } else {
        local = corpus::loadProtocol(corpus::profileByName(req.protocol));
    }
    outcome.program_reused = reused;
    outcome.files_reparsed = reused ? 0 : loaded->gen.files.size();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                            "protocol:" + req.protocol, "driver");
    checkers::CheckerSetOptions copts;
    copts.prune_strategy = req.prune_strategy;
    auto set = checkers::makeAllCheckers(copts);
    support::DiagnosticSink sink;
    reportFrontendIssues(*loaded->program, sink);
    checkers::RunHealth health;
    auto stats =
        runCheckerSet(req, cache, *loaded->program, loaded->gen.spec,
                      set.pointers(), sink, copts, health, cfgs);
    span.finish();
    outcome.units_total =
        loaded->program->functions().size() * set.pointers().size();
    emitFindings(req, sink, &loaded->program->sourceManager(), &stats,
                 out, outcome);
    return exitCode(loaded->program->degraded() ||
                        health.unit_failures > 0 ||
                        health.budget_truncations > 0,
                    sink);
}

/** Run one user-written metal checker over dialect sources. */
int
runMetalChecker(const CheckRequest& req, cache::AnalysisCache* cache,
                ResidentState* resident, std::ostream& out,
                std::ostream& err, CheckOutcome& outcome)
{
    std::string metal_source;
    {
        std::string error;
        if (!sourceReader(req)(req.metal_path, metal_source, error)) {
            // The batch loadMetalFile error line, byte for byte.
            err << "mccheck: cannot open metal file: " << req.metal_path
                << '\n';
            return 3;
        }
    }
    metal::MetalProgram local_checker;
    const metal::MetalProgram* checker = &local_checker;
    try {
        if (resident) {
            checker =
                &resident->metalProgram(metal_source, req.metal_path);
        } else {
            local_checker =
                metal::parseMetal(metal_source, req.metal_path);
        }
    } catch (const metal::MetalParseError& e) {
        err << "mccheck: " << e.what() << '\n';
        return 3;
    }
    // Compile once, before the fan-out, so no unit compiles the machine.
    checker->sm->compiled();

    PreparedProgram prepared = prepareSources(req, resident);
    if (!prepared.ok) {
        err << prepared.error << '\n';
        return 3;
    }
    lang::Program& program = *prepared.program;
    outcome.files_reparsed = prepared.files_reparsed;
    outcome.program_reused = prepared.reused;

    // Fan functions out across the pool, each into a private sink; merge
    // in program function order so the shared sink sees the same
    // diagnostic sequence a sequential loop would produce. The parsed
    // state machine is shared read-only across lanes. Each function runs
    // under a UnitGuard with the request budget, mirroring the parallel
    // checker runner's containment: a walk that throws is replaced by an
    // "analysis incomplete" warning and the run degrades instead of
    // dying.
    //
    // With a cache, each function's walk outcome (its private sink's
    // diagnostics) is keyed by the metal source text plus the function's
    // token-stream fingerprint, so re-checks after an edit replay every
    // untouched function. Functions in degraded units have no
    // fingerprint and bypass the cache entirely.
    const std::vector<const lang::FunctionDecl*>& fns =
        program.functions();
    const std::string unit_checker = "metal:" + checker->name;
    using Clock = std::chrono::steady_clock;
    std::vector<support::DiagnosticSink> fn_sinks(fns.size());
    std::vector<char> fn_failed(fns.size(), 0);
    std::vector<char> fn_hit(fns.size(), 0);
    std::vector<Clock::duration> fn_elapsed(fns.size(),
                                            Clock::duration::zero());
    std::vector<support::LedgerUnitStats> fn_walk_stats(fns.size());
    std::vector<support::BudgetStop> fn_stop(fns.size(),
                                             support::BudgetStop::None);
    std::map<std::string, std::uint64_t> fn_fps;
    std::map<std::string, std::int32_t> file_ids;
    std::vector<std::uint64_t> keys(fns.size(), 0);
    // Witness capture changes the cached bytes, so witness-on and
    // witness-off runs (and different caps) key separately. Everything
    // but the function fingerprint is hashed once, not once per unit.
    support::Fnv1a key_prefix;
    if (cache) {
        fn_fps = lang::fingerprintFunctions(program);
        file_ids =
            cache::AnalysisCache::fileIdsByName(program.sourceManager());
        key_prefix.i64(cache::kCacheFormatVersion)
            .str(support::kToolVersion)
            .str(unit_checker)
            .str(metal_source)
            .u8(support::witnessEnabled() ? 1 : 0)
            .u64(support::witnessLimit())
            .u8(static_cast<std::uint8_t>(req.prune_strategy));
    }
    checkers::CfgCache* cfg_cache = prepared.cfg_cache;
    support::ThreadPool pool(req.jobs);
    pool.parallelFor(fns.size(), [&](std::size_t f) {
        Clock::time_point t0 = Clock::now();
        auto fp = fn_fps.find(fns[f]->name);
        if (cache && fp != fn_fps.end()) {
            keys[f] = support::Fnv1a(key_prefix).u64(fp->second).value();
            std::shared_ptr<const cache::CachedUnit> unit =
                cache->lookup(keys[f]);
            if (unit && unit->function == fns[f]->name) {
                bool ok = true;
                std::vector<support::Diagnostic> replayed;
                for (const cache::CachedDiagnostic& cached : unit->diags) {
                    support::Diagnostic d;
                    if (!cache::AnalysisCache::fromCached(cached, file_ids,
                                                          d)) {
                        ok = false;
                        break;
                    }
                    replayed.push_back(std::move(d));
                }
                if (ok) {
                    for (support::Diagnostic& d : replayed)
                        fn_sinks[f].report(std::move(d));
                    fn_hit[f] = 1;
                    fn_elapsed[f] = Clock::now() - t0;
                    return;
                }
            }
        }
        const std::string label = fns[f]->name + "/" + unit_checker;
        support::DiagnosticSink scratch;
        support::LedgerUnitStats unit_stats;
        support::LedgerUnitScope stats_scope(&unit_stats);
        checkers::UnitGuard guard(label, unitBudget(req),
                                  req.fail_fast);
        checkers::UnitOutcome outcome_u = guard.run([&] {
            support::fault::probe("checker.unit", label);
            // Resident CFGs: look up by declaration pointer, build and
            // publish (backEdges pre-warmed while single-owner) on miss.
            // One-shot runs build locally exactly as batch always did.
            const cfg::Cfg* cfg = nullptr;
            cfg::Cfg local_cfg;
            if (cfg_cache) {
                {
                    std::lock_guard<std::mutex> lock(cfg_cache->mu);
                    auto it = cfg_cache->cfgs.find(fns[f]);
                    if (it != cfg_cache->cfgs.end())
                        cfg = &it->second;
                }
                if (!cfg) {
                    cfg::Cfg built = cfg::CfgBuilder::build(*fns[f]);
                    built.backEdges();
                    std::lock_guard<std::mutex> lock(cfg_cache->mu);
                    cfg = &cfg_cache->cfgs
                               .emplace(fns[f], std::move(built))
                               .first->second;
                }
            } else {
                local_cfg = cfg::CfgBuilder::build(*fns[f]);
                cfg = &local_cfg;
            }
            metal::SmRunOptions run_options;
            run_options.prune_strategy = req.prune_strategy;
            metal::runStateMachine(*checker->sm, *cfg, scratch,
                                   run_options);
        });
        fn_elapsed[f] = Clock::now() - t0;
        fn_walk_stats[f] = unit_stats;
        fn_stop[f] = outcome_u.budget_stop;
        if (outcome_u.failed) {
            fn_failed[f] = 1;
            checkers::warnUnitFailed(fn_sinks[f], fns[f]->loc, unit_checker,
                                     fns[f]->name, outcome_u.error);
            return;
        }
        for (const support::Diagnostic& d : scratch.diagnostics())
            fn_sinks[f].report(d);
        if (outcome_u.budget_stop != support::BudgetStop::None)
            checkers::warnUnitTruncated(fn_sinks[f], fns[f]->loc,
                                        unit_checker, fns[f]->name,
                                        outcome_u.budget_stop);
        if (cache && !cache->readonly() && keys[f] != 0 &&
            outcome_u.budget_stop == support::BudgetStop::None) {
            cache::CachedUnit unit;
            unit.checker = unit_checker;
            unit.function = fns[f]->name;
            for (const support::Diagnostic& d : fn_sinks[f].diagnostics())
                unit.diags.push_back(cache::AnalysisCache::toCached(
                    d, program.sourceManager()));
            cache->store(keys[f], unit);
        }
    });
    support::DiagnosticSink sink;
    reportFrontendIssues(program, sink);
    support::RunLedger& ledger = support::RunLedger::global();
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    std::set<std::int32_t> degraded_files;
    if (ledger.enabled())
        for (const lang::TranslationUnit& tu : program.units())
            if (!tu.issues.empty())
                degraded_files.insert(tu.file_id);
    std::uint64_t failures = 0;
    std::uint64_t truncations = 0;
    std::uint64_t witness_truncations = 0;
    for (std::size_t f = 0; f < fns.size(); ++f) {
        for (const support::Diagnostic& d : fn_sinks[f].diagnostics()) {
            witness_truncations += d.witness.truncated ? 1 : 0;
            sink.report(d);
        }
        failures += fn_failed[f] ? 1 : 0;
        truncations +=
            fn_stop[f] != support::BudgetStop::None ? 1 : 0;
        if (ledger.enabled()) {
            support::LedgerUnitEvent event;
            event.function = fns[f]->name;
            event.checker = unit_checker;
            event.wall_ms = std::chrono::duration<double, std::milli>(
                                fn_elapsed[f])
                                .count();
            event.visits = fn_walk_stats[f].visits;
            event.pruned_edges = fn_walk_stats[f].pruned_edges;
            event.prune_cache_hits = fn_walk_stats[f].prune_cache_hits;
            event.prune_skipped_nary =
                fn_walk_stats[f].prune_skipped_nary;
            event.cache = !cache ? "off" : fn_hit[f] ? "hit" : "miss";
            event.budget_stop = support::budgetStopName(fn_stop[f]);
            event.truncated = fn_stop[f] != support::BudgetStop::None;
            event.failed = fn_failed[f] != 0;
            event.degraded_parse =
                degraded_files.count(fns[f]->loc.file_id) != 0;
            ledger.unit(event);
        }
        if (metrics.enabled() && !fn_hit[f]) {
            metrics.histogram("unit.wall_ns")
                .observe(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        fn_elapsed[f])
                        .count()));
            metrics.histogram("unit.visits")
                .observe(fn_walk_stats[f].visits);
        }
    }
    if (metrics.enabled()) {
        metrics.counter("engine.unit_failures").add(failures);
        metrics.counter("budget.truncations").add(truncations);
        metrics.counter("witness.truncations").add(witness_truncations);
    }
    outcome.units_total = fns.size();
    emitFindings(req, sink, &program.sourceManager(), nullptr, out,
                 outcome);
    if (req.format == support::OutputFormat::Text)
        out << "sm '" << checker->name << "': "
            << sink.count(support::Severity::Error) << " error(s), "
            << sink.count(support::Severity::Warning)
            << " warning(s)\n";
    return exitCode(program.degraded() || failures > 0 ||
                        truncations > 0,
                    sink);
}

int
checkFiles(const CheckRequest& req, cache::AnalysisCache* cache,
           ResidentState* resident, std::ostream& out, std::ostream& err,
           CheckOutcome& outcome)
{
    PreparedProgram prepared = prepareSources(req, resident);
    if (!prepared.ok) {
        err << prepared.error << '\n';
        return 3;
    }
    lang::Program& program = *prepared.program;
    outcome.files_reparsed = prepared.files_reparsed;
    outcome.program_reused = prepared.reused;

    // The (function name -> handler kind) classification lives in
    // cliFilesSpec so shard workers classify identically to this
    // in-process path.
    flash::ProtocolSpec spec = cliFilesSpec(program);

    checkers::CheckerSetOptions copts;
    copts.prune_strategy = req.prune_strategy;
    auto set = checkers::makeAllCheckers(copts);
    support::DiagnosticSink sink;
    reportFrontendIssues(program, sink);
    checkers::RunHealth health;
    auto stats = runCheckerSet(req, cache, program, spec, set.pointers(),
                               sink, copts, health, prepared.cfg_cache);
    outcome.units_total =
        program.functions().size() * set.pointers().size();
    emitFindings(req, sink, &program.sourceManager(), nullptr, out,
                 outcome);
    if (req.format == support::OutputFormat::Text)
        out << sink.count(support::Severity::Error) << " error(s), "
            << sink.count(support::Severity::Warning)
            << " warning(s)\n";
    (void)stats;
    return exitCode(program.degraded() || health.unit_failures > 0 ||
                        health.budget_truncations > 0,
                    sink);
}

std::uint64_t
cacheHits(cache::AnalysisCache* cache)
{
    return cache ? cache->stats().hits : 0;
}

} // namespace

CheckOutcome
runCheckRequest(const CheckRequest& request, cache::AnalysisCache* cache,
                ResidentState* resident, std::ostream& out,
                std::ostream& err)
{
    CheckOutcome outcome;
    // Per-run process-global configuration. Both are folded into every
    // cache key (witness) or proven byte-neutral (match strategy), so a
    // resident cache can never leak one configuration's results into
    // another's run.
    support::setWitnessConfig(request.witness, request.witness_limit);
    metal::setDefaultMatchStrategy(request.match_strategy);
    const std::uint64_t hits_before = cacheHits(cache);
    try {
        switch (request.mode) {
          case CheckRequest::Mode::Protocol:
            outcome.exit_code =
                checkProtocol(request, cache, resident, out, outcome);
            break;
          case CheckRequest::Mode::Metal:
            outcome.exit_code = runMetalChecker(request, cache, resident,
                                                out, err, outcome);
            break;
          case CheckRequest::Mode::Files:
            outcome.exit_code =
                checkFiles(request, cache, resident, out, err, outcome);
            break;
        }
    } catch (const std::exception& e) {
        // Anything that escapes containment — unknown protocol names,
        // --fail-fast rethrows, fault-injection probes outside any
        // UnitGuard — is fatal, rendered exactly as the batch driver
        // renders it.
        err << "mccheck: " << e.what() << '\n';
        outcome.exit_code = 3;
    }
    outcome.units_reused = cacheHits(cache) - hits_before;
    return outcome;
}

} // namespace mc::server
