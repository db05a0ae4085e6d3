#include "checkers/lanes.h"

#include "flash/macros.h"
#include "global/callgraph.h"

#include <limits>
#include <sstream>

namespace mc::checkers {

using namespace mc::lang;
using flash::MacroKind;

void
LanesChecker::checkFunction(const FunctionDecl& fn, const cfg::Cfg& cfg,
                            CheckContext& ctx)
{
    // Local pass: annotate sends with lanes and record calls.
    auto extract = [&](const Stmt& stmt, std::vector<global::Event>& out) {
        forEachTopLevelExpr(stmt, [&](const Expr& top) {
            forEachSubExpr(top, [&](const Expr& e) {
                const CallExpr* call = asCall(e);
                if (!call)
                    return;
                std::string callee(call->calleeName());
                MacroKind kind = flash::classifyMacro(callee);

                if (kind == MacroKind::SendNi) {
                    global::Event ev;
                    ev.kind = global::Event::Kind::Send;
                    auto opcode = flash::niSendOpcode(*call);
                    ev.lane = opcode ? ctx.spec.laneOf(*opcode) : -1;
                    ev.loc = e.loc;
                    out.push_back(std::move(ev));
                    ++applied_;
                    return;
                }
                if (kind == MacroKind::WaitForSpace) {
                    global::Event ev;
                    ev.kind = global::Event::Kind::LaneWait;
                    auto opcode = flash::waitForSpaceOpcode(*call);
                    ev.lane = opcode ? ctx.spec.laneOf(*opcode) : -1;
                    ev.loc = e.loc;
                    out.push_back(std::move(ev));
                    return;
                }
                if (kind == MacroKind::None && !callee.empty() &&
                    ctx.program.findFunction(callee)) {
                    global::Event ev;
                    ev.kind = global::Event::Kind::Call;
                    ev.callee = callee;
                    ev.loc = e.loc;
                    out.push_back(std::move(ev));
                }
            });
        });
    };
    summaries_.push_back(
        global::summarize(std::string(fn.name), cfg, extract));
}

void
LanesChecker::checkProgram(CheckContext& ctx)
{
    // The paper's local passes write their annotated flow graphs to
    // files which the global pass reads back; optionally exercise that
    // exact pipeline.
    std::vector<global::FunctionSummary> summaries;
    if (options_.roundtrip_through_text) {
        std::stringstream file;
        global::writeSummaries(file, summaries_);
        summaries = global::readSummaries(file);
    } else {
        summaries = summaries_;
    }

    // Global pass: link all emitted summaries and traverse from each
    // handler.
    global::CallGraph graph(summaries);

    global::LocDescriber describe =
        [&ctx](const support::SourceLoc& loc) {
            return ctx.program.sourceManager().describe(loc);
        };

    for (const auto& [fn_name, spec] : ctx.spec.handlers()) {
        if (spec.kind == flash::HandlerKind::Normal)
            continue;
        if (!graph.find(fn_name))
            continue;

        global::LaneCounts allowance;
        for (int lane = 0; lane < global::kLanes; ++lane)
            allowance[static_cast<std::size_t>(lane)] =
                spec.lane_allowance[static_cast<std::size_t>(lane)];

        global::LaneAnalysisResult result =
            global::analyzeLanes(graph, fn_name, allowance, describe);

        for (const global::LaneViolation& v : result.violations) {
            std::ostringstream msg;
            msg << "handler '" << fn_name << "' can send " << v.count
                << " messages on lane " << v.lane << " but its allowance is "
                << v.allowance << " (no WAIT_FOR_SPACE in between)";
            support::Diagnostic diag;
            diag.severity = support::Severity::Error;
            diag.loc = v.loc;
            diag.checker = name();
            diag.rule = "quota-exceeded";
            diag.message = msg.str();
            diag.trace = v.trace;
            ctx.sink.report(std::move(diag));
        }
        for (const global::LaneRecursionWarning& w :
             result.recursion_warnings) {
            support::Diagnostic diag;
            diag.severity = support::Severity::Warning;
            diag.loc = {};
            diag.checker = name();
            diag.rule = "sending-cycle";
            diag.message = "cycle through '" + w.function +
                           "' sends messages; static send bound unknown";
            diag.trace = w.trace;
            ctx.sink.report(std::move(diag));
        }
    }
}

void
LanesChecker::saveState(std::ostream& os) const
{
    Checker::saveState(os);
    global::writeSummaries(os, summaries_);
}

bool
LanesChecker::loadState(std::istream& is)
{
    if (!Checker::loadState(is))
        return false;
    // Skip the newline the base reader leaves behind, then hand the rest
    // of the stream to the flow-graph parser (it reads to EOF).
    is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    try {
        summaries_ = global::readSummaries(is);
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

} // namespace mc::checkers
