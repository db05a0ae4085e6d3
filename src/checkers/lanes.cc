#include "checkers/lanes.h"

#include "cfg/flat_cfg.h"
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
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
    auto extract = [&](const Stmt&, std::uint32_t row,
                       std::vector<global::Event>& out) {
        for (const cfg::CallRow& c : flat.calls(row)) {
            const MacroKind kind = flash::macroKind(c.callee);
            global::Event ev;
            ev.loc = c.call->loc;
            if (kind == MacroKind::SendNi) {
                ev.kind = global::Event::Kind::Send;
                ev.lane = ctx.spec.laneOf(flash::niSendOpcode(*c.call));
                ++applied_;
            } else if (kind == MacroKind::WaitForSpace) {
                ev.kind = global::Event::Kind::LaneWait;
                ev.lane = ctx.spec.laneOf(flash::waitForSpaceOpcode(*c.call));
            } else if (kind == MacroKind::None &&
                       ctx.program.findFunction(c.call->calleeName())) {
                ev.kind = global::Event::Kind::Call;
                ev.callee = c.call->calleeName();
            } else {
                continue;
            }
            out.push_back(std::move(ev));
        }
    };
    own(global::summarize(std::string(fn.name), cfg, extract));
}

namespace {

/** Sends on a known lane in `summary`. */
std::size_t
laneSendsIn(const global::FunctionSummary& summary)
{
    std::size_t n = 0;
    for (const global::FunctionSummary::Block& bb : summary.blocks)
        for (const global::Event& ev : bb.events)
            if (ev.kind == global::Event::Kind::Send && ev.lane >= 0 &&
                ev.lane < global::kLanes)
                ++n;
    return n;
}

/** Whether the global pass analyzes the handler `name` over `graph`. */
bool
analyzes(const global::CallGraph& graph, const std::string& name,
         const flash::HandlerSpec& spec)
{
    return spec.kind != flash::HandlerKind::Normal &&
           graph.sendsOnLane(name);
}

} // namespace

void
LanesChecker::own(global::FunctionSummary summary)
{
    lane_sends_ += laneSendsIn(summary);
    owned_.push_back(
        std::make_unique<const global::FunctionSummary>(std::move(summary)));
    summaries_.push_back(owned_.back().get());
}

void
LanesChecker::releaseAbsorbed()
{
    summaries_.clear();
    lane_sends_ = 0;
    for (const auto& summary : owned_) {
        summaries_.push_back(summary.get());
        lane_sends_ += laneSendsIn(*summary);
    }
}

std::vector<std::string>
LanesChecker::analyzedHandlers(const flash::ProtocolSpec& spec) const
{
    const global::CallGraph graph(summaries_);
    std::vector<std::string> out;
    for (const auto& [fn_name, handler] : spec.handlers())
        if (analyzes(graph, fn_name, handler))
            out.push_back(fn_name);
    return out;
}

void
LanesChecker::checkProgram(CheckContext& ctx)
{
    // Global pass: link all emitted summaries and traverse from each
    // handler whose call cone sends on a lane. With no lane send at all
    // (files mode) no cone qualifies, so there is no graph to build.
    if (lane_sends_ == 0)
        return;
    const global::CallGraph graph(summaries_);

    global::LocDescriber describe =
        [&ctx](const support::SourceLoc& loc) {
            return ctx.program.sourceManager().describe(loc);
        };

    for (const auto& [fn_name, spec] : ctx.spec.handlers()) {
        if (!analyzes(graph, fn_name, spec))
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
    for (const global::FunctionSummary* summary : summaries_)
        global::writeSummary(os, *summary);
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
        for (global::FunctionSummary& summary : global::readSummaries(is))
            own(std::move(summary));
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

} // namespace mc::checkers
