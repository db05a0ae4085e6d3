#include "checkers/checker.h"

#include "support/metrics.h"
#include "support/trace.h"

#include <chrono>
#include <istream>
#include <ostream>

namespace mc::checkers {

void
Checker::saveState(std::ostream& os) const
{
    os << "applied " << applied_ << '\n';
}

bool
Checker::loadState(std::istream& is)
{
    std::string tag;
    int n = 0;
    if (!(is >> tag >> n) || tag != "applied" || n < 0)
        return false;
    applied_ = n;
    return true;
}

void
registerRunMetrics()
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (!metrics.enabled())
        return;
    for (const char* name :
         {"engine.unit_failures", "engine.runs", "engine.visits",
          "engine.cache_hits", "engine.cache_misses", "engine.pruned_paths",
          "engine.sm_transitions", "engine.truncations",
          "engine.rule_firings", "engine.table_memo_hits",
          "engine.table_memo_misses", "budget.truncations",
          "witness.steps", "witness.truncations", "ledger.events",
          "walker.visits", "walker.infeasible_pruned",
          "walker.prune_cache_hits", "walker.prune_skipped_nary"})
        metrics.counter(name).add(0);
    metrics.gauge("engine.peak_frontier");
    // Fed by Program::addSource/updateSource, before any checker runs.
    metrics.timer("lang.parse");
    metrics.gauge("lang.ast_nodes");
    metrics.gauge("lang.arena_bytes");
    metrics.histogram("unit.wall_ns");
    metrics.histogram("unit.visits");
}

RunBaseline
beginRun(const std::vector<Checker*>& checkers,
         const support::DiagnosticSink& sink)
{
    RunBaseline base;
    for (Checker* checker : checkers) {
        checker->reset();
        base.errors.push_back(sink.countForChecker(
            checker->name(), support::Severity::Error));
        base.warnings.push_back(sink.countForChecker(
            checker->name(), support::Severity::Warning));
    }
    registerRunMetrics();
    return base;
}

std::vector<CheckerRunStats>
finishRun(const std::vector<Checker*>& checkers,
          const support::DiagnosticSink& sink, const RunBaseline& base,
          const std::vector<std::chrono::steady_clock::duration>& elapsed)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    std::vector<CheckerRunStats> stats;
    for (std::size_t i = 0; i < checkers.size(); ++i) {
        CheckerRunStats s;
        s.checker = checkers[i]->name();
        s.errors = sink.countForChecker(s.checker,
                                        support::Severity::Error) -
                   base.errors[i];
        s.warnings = sink.countForChecker(s.checker,
                                          support::Severity::Warning) -
                     base.warnings[i];
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

std::vector<CheckerRunStats>
runCheckers(const lang::Program& program, const flash::ProtocolSpec& spec,
            const std::vector<Checker*>& checkers,
            support::DiagnosticSink& sink)
{
    CheckContext ctx{program, spec, sink};
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    const RunBaseline base = beginRun(checkers, sink);

    // Per-checker wall time, accumulated across every function pass plus
    // the program-level pass. One steady_clock read per (function,
    // checker) pair — microseconds against the checking work itself.
    using Clock = std::chrono::steady_clock;
    std::vector<Clock::duration> elapsed(checkers.size(),
                                         Clock::duration::zero());

    for (const lang::FunctionDecl* fn : program.functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        for (std::size_t i = 0; i < checkers.size(); ++i) {
            support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                    checkers[i]->name(), "checker");
            if (tracer.enabled())
                span.arg("function", std::string(fn->name));
            Clock::time_point t0 = Clock::now();
            checkers[i]->checkFunction(*fn, cfg, ctx);
            elapsed[i] += Clock::now() - t0;
        }
    }
    for (std::size_t i = 0; i < checkers.size(); ++i) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                checkers[i]->name() + ".program",
                                "checker");
        Clock::time_point t0 = Clock::now();
        checkers[i]->checkProgram(ctx);
        elapsed[i] += Clock::now() - t0;
    }
    return finishRun(checkers, sink, base, elapsed);
}

} // namespace mc::checkers
