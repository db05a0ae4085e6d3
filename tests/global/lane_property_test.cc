/**
 * @file
 * Property tests for the lanes pass's pruning over random summary
 * graphs: self and mutual recursion, unresolved callees, duplicate
 * names (the first summary wins), lane -1 sends, LaneWaits and lane
 * sends. A handler the pass skips must be one analyzeLanes finds
 * nothing in, and LanesChecker's diagnostics must equal those of a loop
 * that analyzes every handler.
 */
#include "checkers/lanes.h"
#include "flash/protocol_spec.h"
#include "global/callgraph.h"
#include "global/flowgraph.h"
#include "lang/program.h"
#include "support/diagnostics.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace mc::global {
namespace {

/** Names summaries and calls draw from; "ext" never gets a summary. */
const std::vector<std::string> kNames = {"H0", "H1", "H2", "h3", "h4",
                                         "ext"};

struct RandomProgram
{
    std::vector<FunctionSummary> summaries;
    flash::ProtocolSpec spec;
};

RandomProgram
randomProgram(std::mt19937& rng)
{
    auto pick = [&rng](int n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };
    RandomProgram out;
    const int nfns = 2 + pick(6);
    for (int f = 0; f < nfns; ++f) {
        FunctionSummary fn;
        // Every name but "ext"; repeats make duplicate names.
        fn.name = kNames[static_cast<std::size_t>(pick(5))];
        const int nblocks = 1 + pick(4);
        fn.entry = 0;
        fn.exit = nblocks - 1;
        fn.blocks.resize(static_cast<std::size_t>(nblocks));
        for (int b = 0; b < nblocks; ++b) {
            FunctionSummary::Block& bb = fn.blocks[static_cast<std::size_t>(b)];
            if (b != fn.exit) {
                bb.succs.push_back(b + 1);
                if (pick(3) == 0)
                    bb.succs.push_back(pick(nblocks)); // loops included
            }
            const int nevents = pick(4);
            for (int e = 0; e < nevents; ++e) {
                Event ev;
                ev.loc = {1, 10 * f + b, e + 1};
                switch (pick(4)) {
                  case 0:
                    ev.kind = Event::Kind::Send;
                    ev.lane = pick(3) == 0 ? pick(kLanes) : -1;
                    break;
                  case 1:
                    ev.kind = Event::Kind::LaneWait;
                    ev.lane = pick(kLanes + 1) - 1;
                    break;
                  default:
                    // Self calls, mutual calls and "ext" (unresolved).
                    ev.kind = Event::Kind::Call;
                    ev.callee = kNames[static_cast<std::size_t>(
                        pick(static_cast<int>(kNames.size())))];
                    break;
                }
                bb.events.push_back(std::move(ev));
            }
        }
        out.summaries.push_back(std::move(fn));
    }
    for (const std::string& name : kNames) {
        flash::HandlerSpec hs;
        hs.name = name;
        hs.kind = static_cast<flash::HandlerKind>(pick(3));
        for (int& allowance : hs.lane_allowance)
            allowance = pick(3);
        out.spec.addHandler(hs);
    }
    return out;
}

std::vector<const FunctionSummary*>
pointers(const RandomProgram& program)
{
    std::vector<const FunctionSummary*> out;
    for (const FunctionSummary& fn : program.summaries)
        out.push_back(&fn);
    return out;
}

/** The cone of `name` by brute force: does it reach a lane send? */
bool
coneSendsOnLane(const CallGraph& graph, const std::string& name)
{
    std::set<std::string> seen;
    std::vector<std::string> work{name};
    while (!work.empty()) {
        const std::string fn_name = work.back();
        work.pop_back();
        const FunctionSummary* fn = graph.find(fn_name);
        if (!fn || !seen.insert(fn_name).second)
            continue;
        for (const FunctionSummary::Block& bb : fn->blocks) {
            for (const Event& ev : bb.events) {
                if (ev.kind == Event::Kind::Send && ev.lane >= 0 &&
                    ev.lane < kLanes)
                    return true;
                if (ev.kind == Event::Kind::Call)
                    work.push_back(ev.callee);
            }
        }
    }
    return false;
}

LaneCounts
allowanceOf(const flash::HandlerSpec& spec)
{
    LaneCounts allowance{};
    for (int lane = 0; lane < kLanes; ++lane)
        allowance[static_cast<std::size_t>(lane)] =
            spec.lane_allowance[static_cast<std::size_t>(lane)];
    return allowance;
}

std::vector<std::string>
rendered(const support::DiagnosticSink& sink)
{
    std::vector<std::string> out;
    for (const support::Diagnostic& d : sink.diagnostics()) {
        std::ostringstream os;
        os << d.rule << '@' << d.loc.file_id << ':' << d.loc.line << ':'
           << d.loc.column << ' ' << d.message;
        for (const std::string& frame : d.trace)
            os << " | " << frame;
        out.push_back(os.str());
    }
    return out;
}

TEST(LaneAnalysis, SkippedHandlersHaveNoFindings)
{
    std::mt19937 rng(2026);
    int skipped = 0;
    int analyzed_with_findings = 0;
    for (int round = 0; round < 500; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const RandomProgram program = randomProgram(rng);
        const CallGraph graph(pointers(program));
        for (const auto& [name, spec] : program.spec.handlers()) {
            ASSERT_EQ(graph.sendsOnLane(name), coneSendsOnLane(graph, name))
                << name;
            const LaneAnalysisResult result =
                analyzeLanes(graph, name, allowanceOf(spec));
            const bool findings = !result.violations.empty() ||
                                  !result.recursion_warnings.empty();
            if (!graph.sendsOnLane(name)) {
                ++skipped;
                EXPECT_FALSE(findings) << name;
            } else if (findings) {
                ++analyzed_with_findings;
            }
        }
    }
    // Neither side of the property is vacuous.
    EXPECT_GT(skipped, 100);
    EXPECT_GT(analyzed_with_findings, 100);
}

TEST(LaneAnalysis, CheckerMatchesAnalyzingEveryHandler)
{
    std::mt19937 rng(17);
    lang::Program program;
    int diagnostics = 0;
    for (int round = 0; round < 300; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const RandomProgram random = randomProgram(rng);

        // The checker gets the summaries the way a shard worker's
        // results deliver them: through loadState.
        std::stringstream state;
        checkers::LanesChecker().saveState(state);
        for (const FunctionSummary& fn : random.summaries)
            writeSummary(state, fn);
        checkers::LanesChecker checker;
        ASSERT_TRUE(checker.loadState(state));
        support::DiagnosticSink pruned;
        checkers::CheckContext ctx{program, random.spec, pruned};
        checker.checkProgram(ctx);

        // Every hardware and software handler with a summary, no
        // pruning, reported the way the checker reports.
        support::DiagnosticSink every;
        const CallGraph graph(pointers(random));
        LocDescriber describe = [&program](const support::SourceLoc& loc) {
            return program.sourceManager().describe(loc);
        };
        for (const auto& [name, spec] : random.spec.handlers()) {
            if (spec.kind == flash::HandlerKind::Normal || !graph.find(name))
                continue;
            const LaneAnalysisResult result =
                analyzeLanes(graph, name, allowanceOf(spec), describe);
            for (const LaneViolation& v : result.violations) {
                support::Diagnostic diag;
                diag.loc = v.loc;
                diag.checker = "lanes";
                diag.rule = "quota-exceeded";
                diag.message = "handler '" + name + "' can send " +
                               std::to_string(v.count) + " messages on lane " +
                               std::to_string(v.lane) +
                               " but its allowance is " +
                               std::to_string(v.allowance) +
                               " (no WAIT_FOR_SPACE in between)";
                diag.trace = v.trace;
                every.report(std::move(diag));
            }
            for (const LaneRecursionWarning& w : result.recursion_warnings) {
                support::Diagnostic diag;
                diag.severity = support::Severity::Warning;
                diag.checker = "lanes";
                diag.rule = "sending-cycle";
                diag.message = "cycle through '" + w.function +
                               "' sends messages; static send bound unknown";
                diag.trace = w.trace;
                every.report(std::move(diag));
            }
        }
        ASSERT_EQ(rendered(pruned), rendered(every));
        diagnostics += static_cast<int>(every.diagnostics().size());
    }
    EXPECT_GT(diagnostics, 100);
}

} // namespace
} // namespace mc::global
