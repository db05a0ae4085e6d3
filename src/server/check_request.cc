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
#include "support/metrics.h"
#include "support/text.h"
#include "support/trace.h"
#include "support/witness.h"

#include <charconv>
#include <chrono>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>

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

using Kind = RequestOption::Kind;
using Mode = CheckRequest::Mode;

/** Durations and step budgets: what std::chrono::milliseconds holds. */
constexpr std::uint64_t kMaxBudget =
    std::numeric_limits<std::int64_t>::max();

template <auto Member>
std::uint64_t
getMember(const CheckRequest& request)
{
    return static_cast<std::uint64_t>(request.*Member);
}

template <auto Member>
void
setMember(CheckRequest& request, std::uint64_t value)
{
    using T = std::remove_cvref_t<decltype(request.*Member)>;
    request.*Member = static_cast<T>(value);
}

template <auto Member>
constexpr RequestOption
countRow(const char* flag, const char* key, std::uint64_t max,
         const char* what, const char* help)
{
    return {.flag = flag, .key = key, .kind = Kind::Count,
            .metavar = "<n>", .what = what, .help = help, .max = max,
            .get = getMember<Member>, .set = setMember<Member>};
}

template <auto Member>
constexpr RequestOption
flagRow(const char* flag, const char* key, const char* help,
        bool bare_value = true)
{
    return {.flag = flag, .key = key, .kind = Kind::Bool, .help = help,
            .bare_value = bare_value, .get = getMember<Member>,
            .set = setMember<Member>};
}

template <auto Member>
constexpr RequestOption
choiceRow(const char* flag, const char* key, const char* metavar,
          std::span<const char* const> choices, const char* help)
{
    return {.flag = flag, .key = key, .kind = Kind::Enum,
            .metavar = metavar, .help = help, .choices = choices,
            .get = getMember<Member>, .set = setMember<Member>};
}

constexpr RequestOption
targetRow(const char* flag, const char* key, const char* metavar,
          const char* what, std::string CheckRequest::*text, Mode mode,
          const char* help)
{
    return {.flag = flag, .key = key, .kind = Kind::String,
            .metavar = metavar, .what = what, .help = help, .text = text,
            .mode = mode};
}

// Indexed by the enums' values (support::OutputFormat,
// metal::PruneStrategy; the latter as metal::pruneStrategyName spells
// them).
constexpr const char* kFormats[] = {"text", "json", "sarif"};
constexpr const char* kPruneStrategies[] = {"off", "correlated",
                                            "constraints"};

const RequestOption kRequestOptions[] = {
    targetRow("--protocol", "protocol", "<name>", "a protocol name",
              &CheckRequest::protocol, Mode::Protocol,
              "generate and check a paper protocol"),
    targetRow("--metal", "metal", "<c.metal>", "a .metal file",
              &CheckRequest::metal_path, Mode::Metal,
              "run a user metal checker over the\n"
              "source files"),
    choiceRow<&CheckRequest::format>("--format", "format",
                                     "<text|json|sarif>", kFormats,
                                     "diagnostic output encoding"),
    countRow<&CheckRequest::jobs>("--jobs", "jobs", kMaxJobs,
                                  "a thread count",
                                  "run checkers on n threads (default:\n"
                                  "hardware concurrency; output is\n"
                                  "byte-identical for any n)"),
    choiceRow<&CheckRequest::prune_strategy>(
        "--prune-paths", "prune_paths", "<s>", kPruneStrategies,
        "path-feasibility pruning: 'off'\n"
        "(the default; walk every syntactic\n"
        "path like the paper's tool),\n"
        "'correlated' (re-tests of the same\n"
        "condition take the same edge), or\n"
        "'constraints' (adds a semantic value\n"
        "domain: x == 5 then x > 10 prunes);\n"
        "each strategy's output is\n"
        "byte-identical for any --jobs value,\n"
        "warm or cold cache"),
    flagRow<&CheckRequest::witness>("--witness", "witness",
                                    "record each finding's provenance: the\n"
                                    "SM transitions and CFG block path that\n"
                                    "led to it (text back-trace, JSON\n"
                                    "'witness', SARIF codeFlows); output is\n"
                                    "byte-identical for any --jobs value,\n"
                                    "warm or cold cache"),
    countRow<&CheckRequest::witness_limit>(
        "--witness-limit", "witness_limit", 1u << 20,
        "a positive step count",
        "cap witness steps/blocks per finding\n"
        "(default 16; truncation is marked)"),
    countRow<&CheckRequest::unit_timeout_ms>(
        "--unit-timeout-ms", "unit_timeout_ms", kMaxBudget,
        "a positive duration in milliseconds",
        "wall-clock budget per (function,\n"
        "checker) unit; exhausted units are\n"
        "truncated, not killed"),
    countRow<&CheckRequest::unit_max_steps>(
        "--unit-max-steps", "unit_max_steps", kMaxBudget,
        "a positive step count", "path-walker step budget per unit"),
    flagRow<&CheckRequest::fail_fast>("--fail-fast", "fail_fast",
                                      "abort on the first unit failure\n"
                                      "(exit 3) instead of containing it"),
    flagRow<&CheckRequest::fail_fast>("--keep-going", nullptr,
                                      "contain unit failures and keep\n"
                                      "checking (default)",
                                      /*bare_value=*/false),
    countRow<&CheckRequest::shards>(
        "--shards", nullptr, 64, "a worker count",
        "run (function, checker) units in n\n"
        "supervised worker processes; output\n"
        "is byte-identical to an in-process\n"
        "run at any n, even when workers crash\n"
        "and are respawned (--protocol and\n"
        "file checking; see docs/sharding.md)"),
    countRow<&CheckRequest::shard_batch_units>(
        "--shard-batch-units", nullptr, 4096, "a unit count",
        "units per shard work batch\n"
        "(default 16)"),
    countRow<&CheckRequest::shard_batch_timeout_ms>(
        "--shard-batch-timeout-ms", nullptr, kMaxBudget,
        "a positive duration in milliseconds",
        "kill + respawn a worker holding one\n"
        "batch longer than n ms (default: no\n"
        "deadline; heartbeat supervision still\n"
        "applies)"),
    countRow<&CheckRequest::shard_backoff_ms>(
        "--shard-backoff-ms", nullptr, kMaxBudget,
        "a positive duration in milliseconds",
        "worker respawn backoff base, doubled\n"
        "per consecutive crash and capped\n"
        "(default 50; timing only, never\n"
        "output bytes)"),
};

/** "<flag> needs <needs>[, got '<text>']" */
std::string
usage(std::string_view flag, const std::string& needs,
      const std::string* text)
{
    std::string message = std::string(flag) + " needs " + needs;
    if (text)
        message += ", got '" + *text + "'";
    return message;
}

std::string
countNeeds(std::string_view what, std::uint64_t max)
{
    return std::string(what) + " (1.." + std::to_string(max) + ")";
}

} // namespace

std::span<const RequestOption>
requestOptions()
{
    return kRequestOptions;
}

std::string
choiceList(const RequestOption& row)
{
    std::string list;
    for (std::size_t k = 0; k < row.choices.size(); ++k) {
        if (k > 0)
            list += k + 1 == row.choices.size() ? " or " : ", ";
        list += "'" + std::string(row.choices[k]) + "'";
    }
    return list;
}

std::optional<std::uint64_t>
parseCount(std::string_view text, std::uint64_t max)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string_view::npos)
        return std::nullopt;
    std::uint64_t value = 0;
    if (std::from_chars(text.data(), text.data() + text.size(), value).ec !=
            std::errc() ||
        value < 1 || value > max)
        return std::nullopt;
    return value;
}

std::optional<std::uint64_t>
parseCountArg(std::string_view flag, std::string_view what,
              std::uint64_t max, const std::string* text, std::string& error)
{
    std::optional<std::uint64_t> value;
    if (text)
        value = parseCount(*text, max);
    if (!value)
        error = usage(flag, countNeeds(what, max), text);
    return value;
}

bool
applyRequestValue(const RequestOption& row, const std::string& text,
                  CheckRequest& request)
{
    switch (row.kind) {
      case Kind::Count:
        if (const std::optional<std::uint64_t> n =
                parseCount(text, row.max)) {
            row.set(request, *n);
            return true;
        }
        return false;
      case Kind::Enum:
        for (std::size_t k = 0; k < row.choices.size(); ++k)
            if (text == row.choices[k]) {
                row.set(request, k);
                return true;
            }
        return false;
      case Kind::String:
        request.*(row.text) = text;
        request.mode = row.mode;
        return true;
      case Kind::Bool:
        break;
    }
    return false;
}

const RequestOption*
parseRequestArg(const std::vector<std::string>& args, std::size_t& i,
                CheckRequest& request, std::string& error)
{
    const RequestOption* row = nullptr;
    for (const RequestOption& r : kRequestOptions)
        if (args[i] == r.flag)
            row = &r;
    if (!row)
        return nullptr;
    if (row->kind == Kind::Bool) {
        row->set(request, row->bare_value);
        return row;
    }
    const std::string* text = i + 1 < args.size() ? &args[++i] : nullptr;
    if (text && applyRequestValue(*row, *text, request))
        return row;
    std::string needs = row->what;
    if (row->kind == Kind::Count)
        needs = countNeeds(row->what, row->max);
    else if (row->kind == Kind::Enum)
        needs = "one of " + choiceList(*row);
    error = usage(row->flag, needs, text);
    return row;
}

std::string
requestOptionsHelp()
{
    // Two spaces, then the flag and placeholder in a 28-column field
    // (plus one space when they overflow it), then the help text.
    constexpr std::size_t kLabelWidth = 28;
    std::string out;
    for (const RequestOption& row : kRequestOptions) {
        std::string label = row.flag;
        if (*row.metavar)
            label += std::string(" ") + row.metavar;
        out += "  " + label;
        out.append(label.size() < kLabelWidth ? kLabelWidth - label.size()
                                              : 1,
                   ' ');
        for (const char* c = row.help; *c; ++c) {
            out += *c;
            if (*c == '\n')
                out.append(kLabelWidth + 2, ' ');
        }
        out += '\n';
    }
    return out;
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
    prun.spec_fingerprint = target.spec_fingerprint;
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
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::ScopedTimer emit_timer(
        metrics.enabled() ? &metrics.timer("phase.emit") : nullptr);
    const bool table = req.mode == CheckRequest::Mode::Protocol;
    emitFindings(req, sink, &program.sourceManager(),
                 table ? &stats : nullptr, out, outcome);
    if (!table && req.format == support::OutputFormat::Text) {
        if (metal)
            out << "sm '" << defs[0]->metal()->name << "': ";
        out << sink.count(support::Severity::Error) << " error(s), "
            << sink.count(support::Severity::Warning) << " warning(s)\n";
    }
    emit_timer.stop();
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
    // Per-run process-global configuration. It is folded into every
    // cache key, so a resident cache can never leak one configuration's
    // results into another's run.
    support::setWitnessConfig(request.witness, request.witness_limit);
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
