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

std::vector<CheckerRunStats>
runCheckers(const lang::Program& program, const flash::ProtocolSpec& spec,
            const std::vector<Checker*>& checkers,
            support::DiagnosticSink& sink)
{
    CheckContext ctx{program, spec, sink};
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();

    // Pre-registered to match the parallel runner's report: the
    // sequential runner has no unit containment, so both are honestly
    // zero — but the key set must not depend on which runner ran.
    if (metrics.enabled()) {
        metrics.counter("engine.unit_failures").add(0);
        metrics.counter("budget.truncations").add(0);
        metrics.counter("engine.table_memo_hits").add(0);
        metrics.counter("engine.table_memo_misses").add(0);
    }

    // Baseline per-checker counts, so stats reflect only this run even if
    // the sink already held diagnostics.
    std::vector<int> base_errors;
    std::vector<int> base_warnings;
    for (Checker* checker : checkers) {
        checker->reset();
        base_errors.push_back(sink.countForChecker(
            checker->name(), support::Severity::Error));
        base_warnings.push_back(sink.countForChecker(
            checker->name(), support::Severity::Warning));
    }

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
                span.arg("function", fn->name);
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

    std::vector<CheckerRunStats> stats;
    for (std::size_t i = 0; i < checkers.size(); ++i) {
        CheckerRunStats s;
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

} // namespace mc::checkers
