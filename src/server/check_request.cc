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
 * worker results in the sequential visit order, resident and cached
 * units feed their stored diagnostics and checker state through that
 * same merge path, and resident programs keep their file ids stable
 * across in-place re-parses so emission order cannot drift.
 */
#include "server/check_request.h"

#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "metal/metal_parser.h"
#include "server/check_units.h"
#include "server/resident.h"
#include "server/sharded_check.h"
#include "support/text.h"
#include "support/trace.h"
#include "support/witness.h"

#include <chrono>
#include <ostream>
#include <sstream>

namespace mc::server {

support::BudgetLimits
unitBudget(const CheckRequest& request)
{
    support::BudgetLimits limits;
    limits.deadline = std::chrono::milliseconds(request.unit_timeout_ms);
    limits.max_steps = request.unit_max_steps;
    return limits;
}

namespace {

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

/**
 * Metal mode's one user checker, parsed from `req.metal_path` (or
 * reused from `resident`). Returns nullptr after writing the batch
 * error line to `err` when the file cannot be read or parsed.
 */
const checkers::CheckerDef*
loadMetalChecker(const CheckRequest& req, ResidentState* resident,
                 const checkers::CheckerSetOptions& copts,
                 std::unique_ptr<const checkers::CheckerDef>& owned,
                 std::ostream& err)
{
    const FileReader reader =
        req.read_file ? req.read_file : FileReader(readDiskFile);
    std::string source;
    std::string error;
    if (!reader(req.metal_path, source, error)) {
        err << "mccheck: cannot open metal file: " << req.metal_path
            << '\n';
        return nullptr;
    }
    try {
        if (resident)
            return &resident->metalChecker(source, req.metal_path, copts);
        owned = checkers::CheckerDef::fromMetal(std::move(source),
                                                req.metal_path, copts);
        return owned.get();
    } catch (const metal::MetalParseError& e) {
        err << "mccheck: " << e.what() << '\n';
        return nullptr;
    }
}

/**
 * Check the request's target with its checker set — the paper's nine,
 * or metal mode's one user checker — in-process or, when the request
 * asks for shards, across supervised worker processes (both produce
 * identical sink bytes), and render the findings.
 */
int
check(const CheckRequest& req, cache::AnalysisCache* cache,
      ResidentState* resident, std::ostream& out, std::ostream& err,
      CheckOutcome& outcome)
{
    const bool metal = req.mode == CheckRequest::Mode::Metal;
    checkers::CheckerSetOptions copts;
    copts.prune_strategy = req.prune_strategy;
    std::unique_ptr<const checkers::CheckerDef> metal_def;
    std::vector<const checkers::CheckerDef*> defs;
    if (metal) {
        defs.push_back(loadMetalChecker(req, resident, copts, metal_def, err));
        if (!defs.back())
            return 3;
    } else {
        for (const std::string& name : checkers::allCheckerNames())
            defs.push_back(checkers::checkerDef(name, copts));
    }

    CheckTarget target;
    const std::string error = loadTarget(req, resident, target);
    if (!error.empty()) {
        err << error << '\n';
        return 3;
    }
    const lang::Program& program = *target.program;
    outcome.files_reparsed = target.files_reparsed;
    outcome.program_reused = target.reused;
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    support::TraceSpan span(
        tracer.enabled() && req.mode == CheckRequest::Mode::Protocol
            ? &tracer
            : nullptr,
        "protocol:" + req.protocol, "driver");

    std::vector<std::unique_ptr<checkers::Checker>> owned;
    std::vector<checkers::Checker*> masters;
    for (const checkers::CheckerDef* def : defs) {
        owned.push_back(def->instantiate());
        masters.push_back(owned.back().get());
    }
    support::DiagnosticSink sink;
    reportFrontendIssues(program, sink);
    checkers::RunHealth health;
    checkers::ParallelRunOptions prun;
    prun.jobs = req.jobs;
    prun.cache = cache;
    prun.unit_budget = unitBudget(req);
    prun.fail_fast = req.fail_fast;
    prun.health = &health;
    prun.checker_options = copts;
    prun.cfg_cache = target.cfgs;
    prun.resident = target.units;
    const std::vector<checkers::CheckerRunStats> stats =
        req.shards > 0
            ? runCheckersSharded(program, *target.spec, masters, defs, sink,
                                 req, prun)
            : checkers::runCheckersParallel(program, *target.spec, masters,
                                            defs, sink, prun);
    span.finish();
    outcome.units_total = program.functions().size() * masters.size();
    outcome.units_reused = target.units ? target.units->reused : 0;

    // Protocol runs append the per-checker table; the others a summary.
    const bool table = req.mode == CheckRequest::Mode::Protocol;
    emitFindings(req, sink, &program.sourceManager(),
                 table ? &stats : nullptr, out, outcome);
    if (!table && req.format == support::OutputFormat::Text) {
        if (metal)
            out << "sm '" << defs[0]->metal()->name << "': ";
        out << sink.count(support::Severity::Error) << " error(s), "
            << sink.count(support::Severity::Warning) << " warning(s)\n";
    }
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
        outcome.exit_code = check(request, cache, resident, out, err, outcome);
    } catch (const std::exception& e) {
        // Anything that escapes containment — unknown protocol names,
        // --fail-fast rethrows, fault-injection probes outside any
        // UnitGuard — is fatal, rendered exactly as the batch driver
        // renders it.
        err << "mccheck: " << e.what() << '\n';
        outcome.exit_code = 3;
    }
    outcome.units_reused += cacheHits(cache) - hits_before;
    return outcome;
}

} // namespace mc::server
