#include "metal/engine.h"
#include "metal/metal_parser.h"

#include "cfg/cfg.h"
#include "lang/program.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "support/witness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace mc::metal {
namespace {

const char* kWaitForDb = R"metal(
sm wait_for_db {
    decl { scalar } addr, buf;
    start:
        { WAIT_FOR_DB_FULL(addr); } ==> stop
      | { MISCBUS_READ_DB(addr, buf); } ==>
            { err("Buffer not synchronized"); }
      ;
}
)metal";

const char* kMsgLen = R"metal(
sm msglen_check {
    pat zero_assign = { len = LEN_NODATA } ;
    pat nonzero_assign = { len = LEN_WORD } | { len = LEN_CACHELINE } ;
    decl { unsigned } keep;
    pat send_data = { PI_SEND(F_DATA, keep) } ;
    pat send_nodata = { PI_SEND(F_NODATA, keep) } ;
    all:
        zero_assign ==> zero_len
      | nonzero_assign ==> nonzero_len
      ;
    zero_len:
        send_data ==> { err("data send, zero len"); } ;
    nonzero_len:
        send_nodata ==> { err("nodata send, nonzero len"); } ;
}
)metal";

struct Run
{
    lang::Program program;
    support::DiagnosticSink sink;
    SmRunResult result;
};

std::unique_ptr<Run>
run(const char* metal_src, const std::string& body)
{
    auto r = std::make_unique<Run>();
    MetalProgram mp = parseMetal(metal_src);
    r->program.addSource("t.c", "void f(void) {" + body + "}");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*r->program.findFunction("f"));
    r->result = runStateMachine(*mp.sm, cfg, r->sink);
    return r;
}

TEST(Engine, ReadAfterWaitIsClean)
{
    auto r = run(kWaitForDb,
                 "WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 0);
}

TEST(Engine, ReadWithoutWaitIsError)
{
    auto r = run(kWaitForDb, "MISCBUS_READ_DB(a, b);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 1);
    EXPECT_EQ(r->sink.diagnostics()[0].message, "Buffer not synchronized");
}

TEST(Engine, ErrorOnlyOnUnsynchronizedPath)
{
    // One path waits, the other does not: the read is an error because
    // SOME path reaches it without the wait.
    auto r = run(kWaitForDb,
                 "if (c) { WAIT_FOR_DB_FULL(a); } MISCBUS_READ_DB(a, b);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 1);
}

TEST(Engine, StopStateEndsPathChecking)
{
    // After the wait, later reads are fine even when followed by more
    // reads on the same path.
    auto r = run(kWaitForDb,
                 "WAIT_FOR_DB_FULL(a);"
                 "MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(a, c);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 0);
}

TEST(Engine, ContinuesInStateAfterError)
{
    // Figure 2: the error rule has no transition, so it keeps checking
    // and flags further reads on the same path.
    auto r = run(kWaitForDb,
                 "MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(a2, b2);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 2);
}

TEST(Engine, ReadInsideLoopChecked)
{
    auto r = run(kWaitForDb, "while (c) { MISCBUS_READ_DB(a, b); }");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 1);
}

TEST(Engine, ReadBuriedInConditionChecked)
{
    auto r = run(kWaitForDb, "if (MISCBUS_READ_DB(a, b)) { x = 1; }");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 1);
}

TEST(Engine, MsgLenZeroThenDataSendIsError)
{
    auto r = run(kMsgLen, "len = LEN_NODATA; PI_SEND(F_DATA, k);");
    ASSERT_EQ(r->sink.count(support::Severity::Error), 1);
    EXPECT_EQ(r->sink.diagnostics()[0].message, "data send, zero len");
}

TEST(Engine, MsgLenNonzeroThenNodataSendIsError)
{
    auto r = run(kMsgLen, "len = LEN_CACHELINE; PI_SEND(F_NODATA, k);");
    ASSERT_EQ(r->sink.count(support::Severity::Error), 1);
    EXPECT_EQ(r->sink.diagnostics()[0].message, "nodata send, nonzero len");
}

TEST(Engine, MsgLenConsistentPairsAreClean)
{
    auto r = run(kMsgLen,
                 "len = LEN_WORD; PI_SEND(F_DATA, k);"
                 "len = LEN_NODATA; PI_SEND(F_NODATA, k);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 0);
}

TEST(Engine, MsgLenSendsBeforeAnyAssignIgnored)
{
    // The SM starts in `all`: sends with unknown initial length are
    // deliberately not flagged (the checker "does not warn about any
    // message sends" in its start state).
    auto r = run(kMsgLen, "PI_SEND(F_DATA, k); PI_SEND(F_NODATA, k);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 0);
}

TEST(Engine, MsgLenAllRulesApplyInEveryState)
{
    // zero -> send ok -> reassign nonzero -> bad nodata send.
    auto r = run(kMsgLen,
                 "len = LEN_NODATA; PI_SEND(F_NODATA, k);"
                 "len = LEN_WORD; PI_SEND(F_NODATA, k);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 1);
}

TEST(Engine, MsgLenErrorOnlyOnBadPath)
{
    // Error reachable only along the else path.
    auto r = run(kMsgLen,
                 "if (c) { len = LEN_WORD; } else { len = LEN_NODATA; }"
                 "PI_SEND(F_DATA, k);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 1);
}

TEST(Engine, FiringsCountedPerRule)
{
    auto r = run(kWaitForDb,
                 "MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(c, d);");
    int total = 0;
    for (const auto& [rule, n] : r->result.firings)
        total += n;
    EXPECT_EQ(total, 2);
}

TEST(Engine, BlockStateCachingTerminatesOnBigFunctions)
{
    // 2^30 paths; the (block, state) cache must keep this linear.
    std::string body;
    for (int i = 0; i < 30; ++i)
        body += "if (c" + std::to_string(i) + ") { x = 1; } else "
                "{ x = 2; }\n";
    body += "MISCBUS_READ_DB(a, b);";
    auto r = run(kWaitForDb, body);
    EXPECT_EQ(r->sink.count(support::Severity::Error), 1);
    EXPECT_FALSE(r->result.truncated);
    EXPECT_LT(r->result.visits, 1000u);
}

TEST(Engine, WarnActionReportsWarningSeverity)
{
    auto r = run("sm t { s: { RISKY(); } ==> { warn(\"sketchy\"); } ; }",
                 "RISKY();");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 0);
    EXPECT_EQ(r->sink.count(support::Severity::Warning), 1);
}

TEST(Engine, PruningRemovesCorrelatedBranchFalsePositive)
{
    // The coma shape: length and flag chosen by the same condition.
    const std::string body =
        "if (use_data == 1) { len = LEN_WORD; }"
        "else { len = LEN_NODATA; }"
        "if (use_data == 1) { PI_SEND(F_DATA, k); }"
        "else { PI_SEND(F_NODATA, k); }";

    // Without pruning: two impossible-path reports.
    auto base = run(kMsgLen, body);
    EXPECT_EQ(base->sink.count(support::Severity::Error), 2);

    // With pruning: silent.
    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kMsgLen);
    program.addSource("t.c", "void f(void) {" + body + "}");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    SmRunOptions options;
    options.prune_strategy = PruneStrategy::Correlated;
    auto result = runStateMachine(*mp.sm, cfg, sink, options);
    EXPECT_EQ(sink.count(support::Severity::Error), 0);
    EXPECT_GE(result.visits, 1u);
}

TEST(Engine, PruningKeepsRealErrors)
{
    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kMsgLen);
    program.addSource("t.c",
                      "void f(void) {"
                      "  len = LEN_NODATA;"
                      "  if (q) { PI_SEND(F_DATA, k); }"
                      "}");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    SmRunOptions options;
    options.prune_strategy = PruneStrategy::Correlated;
    runStateMachine(*mp.sm, cfg, sink, options);
    EXPECT_EQ(sink.count(support::Severity::Error), 1);
}

TEST(Engine, RunResultCarriesWalkerObservability)
{
    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kWaitForDb);
    // Two independent diamonds: paths re-converge in the same SM state,
    // so the (block, state) cache must fold them (cache_hits > 0), and
    // the pending-path frontier must have exceeded one entry.
    program.addSource("t.c",
                      "void f(void) {"
                      "  if (a) { x = 1; } else { x = 2; }"
                      "  if (b) { y = 1; } else { y = 2; }"
                      "  WAIT_FOR_DB_FULL(p);"
                      "  MISCBUS_READ_DB(p, q);"
                      "}");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    auto result = runStateMachine(*mp.sm, cfg, sink);
    EXPECT_GT(result.cache_hits, 0u);
    EXPECT_GE(result.peak_frontier, 2u);
    // WAIT_FOR_DB_FULL transitions start -> stop.
    EXPECT_GE(result.transitions, 1u);
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(sink.count(support::Severity::Error), 0);
}

TEST(Engine, PublishesMetricsWhenRegistryEnabled)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    metrics.clear();
    metrics.setEnabled(true);

    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kWaitForDb);
    program.addSource("t.c",
                      "void f(void) { MISCBUS_READ_DB(a, b); }");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    auto result = runStateMachine(*mp.sm, cfg, sink);

    EXPECT_EQ(metrics.counterValue("engine.runs"), 1u);
    EXPECT_EQ(metrics.counterValue("engine.visits"), result.visits);
    EXPECT_EQ(metrics.counterValue("engine.rule_firings"), 1u);
    EXPECT_GE(metrics.gaugeValue("engine.peak_frontier"), 1u);
    EXPECT_EQ(metrics.timers().count("engine.sm.wait_for_db"), 1u);

    metrics.setEnabled(false);
    metrics.clear();
}

TEST(Engine, PublishesTraceSpanWhenRecorderEnabled)
{
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    tracer.clear();
    tracer.setEnabled(true);

    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kWaitForDb);
    program.addSource("t.c",
                      "void handler(void) { WAIT_FOR_DB_FULL(a); }");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("handler"));
    runStateMachine(*mp.sm, cfg, sink);

    std::vector<support::TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 1u);
    const support::TraceEvent& e = events[0];
    EXPECT_EQ(e.name, "wait_for_db");
    EXPECT_EQ(e.category, "engine");
    ASSERT_FALSE(e.args.empty());
    EXPECT_EQ(e.args[0].first, "function");
    EXPECT_EQ(e.args[0].second, "handler");

    tracer.setEnabled(false);
    tracer.clear();
}

TEST(Engine, NothingPublishedWhenDisabled)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    metrics.clear();
    tracer.clear();
    ASSERT_FALSE(metrics.enabled());
    ASSERT_FALSE(tracer.enabled());

    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kWaitForDb);
    program.addSource("t.c",
                      "void f(void) { MISCBUS_READ_DB(a, b); }");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    runStateMachine(*mp.sm, cfg, sink);

    EXPECT_TRUE(metrics.counters().empty());
    EXPECT_TRUE(tracer.events().empty());
}

/** Enables witness capture for one test, restoring the off default. */
struct WitnessGuard
{
    explicit WitnessGuard(unsigned limit = support::kDefaultWitnessLimit)
    {
        support::setWitnessConfig(true, limit);
    }
    ~WitnessGuard() { support::setWitnessConfig(false, 0); }
};

TEST(EngineWitness, OffByDefaultRecordsNothing)
{
    auto r = run(kWaitForDb, "MISCBUS_READ_DB(a, b);");
    EXPECT_EQ(r->result.witness_steps, 0u);
    ASSERT_EQ(r->sink.count(support::Severity::Error), 1);
    EXPECT_TRUE(r->sink.diagnostics()[0].witness.empty());
}

TEST(EngineWitness, FindingCarriesTransitionHistoryAndBlockPath)
{
    WitnessGuard guard;
    // The wait on one branch transitions start -> stop; the unguarded
    // branch reaches the read still in start.
    auto r = run(kWaitForDb,
                 "if (c) { WAIT_FOR_DB_FULL(a); } MISCBUS_READ_DB(a, b);");
    EXPECT_GE(r->result.witness_steps, 2u);
    ASSERT_EQ(r->sink.count(support::Severity::Error), 1);
    const support::Witness& w = r->sink.diagnostics()[0].witness;
    ASSERT_FALSE(w.empty());
    EXPECT_FALSE(w.blocks.empty());
    ASSERT_FALSE(w.steps.empty());
    // The finding's own firing is the last step on its path.
    const support::WitnessStep& last = w.steps.back();
    EXPECT_EQ(last.from_state, "start");
    EXPECT_EQ(last.to_state, "start");
    EXPECT_NE(last.note.find("rule"), std::string::npos);
    // Bound wildcards render into the note ("addr = a").
    EXPECT_NE(last.note.find("addr = a"), std::string::npos);
    EXPECT_FALSE(w.truncated);
}

TEST(EngineWitness, TransitionStepsRecordedEvenWithoutFindings)
{
    WitnessGuard guard;
    // No error: the wait's start -> stop transition is still a step.
    auto r = run(kWaitForDb, "WAIT_FOR_DB_FULL(a);");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 0);
    EXPECT_GE(r->result.witness_steps, 1u);
}

TEST(EngineWitness, LimitCapsStepsAndMarksTruncation)
{
    WitnessGuard guard(1);
    // Two firings on one path; the second exceeds the 1-step cap.
    auto r = run(kWaitForDb,
                 "MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(c, d);");
    ASSERT_EQ(r->sink.count(support::Severity::Error), 2);
    EXPECT_EQ(r->result.witness_steps, 1u);
    const support::Witness& second = r->sink.diagnostics()[1].witness;
    EXPECT_EQ(second.steps.size(), 1u);
    EXPECT_TRUE(second.truncated);
}

TEST(EngineWitness, PrunedEdgesAnnotateTheSurvivingPath)
{
    WitnessGuard guard;
    // Under constraint pruning the inner `x > 10` true edge contradicts
    // `x == 5`; the surviving path notes the pruned edge so a finding's
    // provenance explains why a branch was never explored.
    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kMsgLen);
    program.addSource("t.c",
                      "void f(void) {"
                      "  len = LEN_NODATA;"
                      "  if (x == 5) { if (x > 10) { a(); }"
                      "    PI_SEND(F_DATA, k); }"
                      "}");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    SmRunOptions options;
    options.prune_strategy = PruneStrategy::Constraints;
    auto result = runStateMachine(*mp.sm, cfg, sink, options);
    EXPECT_EQ(result.pruned_edges, 1u);
    ASSERT_EQ(sink.count(support::Severity::Error), 1);
    const support::Witness& w = sink.diagnostics()[0].witness;
    ASSERT_FALSE(w.steps.empty());
    bool noted = false;
    for (const support::WitnessStep& step : w.steps)
        if (step.from_state == "path" && step.to_state == "pruned" &&
            step.note.find("infeasible edge") != std::string::npos &&
            step.note.find("cannot be true") != std::string::npos)
            noted = true;
    EXPECT_TRUE(noted);
}

// A send that must be answered: the end-of-path rule reports at the
// remembered send when a path leaves the function still waiting.
const char* kPairing = R"metal(
sm pairing {
    decl { any } x;
    start:
        { SEND(x) } ==> waiting
      | { REPLY() } ==> { err("reply-without-send", "reply, no send"); }
      ;
    waiting:
        { REPLY() } ==> start
      | { SEND(x) } ==> waiting
      | { RESET() } ==> idle
      | end_of_path ==> { err("missing-reply", "send never answered"); }
      ;
    idle:
        { SEND(x) } ==> waiting
      ;
}
)metal";

std::vector<int>
errorLines(const support::DiagnosticSink& sink, const std::string& rule)
{
    std::vector<int> lines;
    for (const support::Diagnostic& d : sink.diagnostics())
        if (d.rule == rule)
            lines.push_back(d.loc.line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

TEST(EngineEndOfPath, ReportsAtTheRememberedLocation)
{
    auto r = run(kPairing, "\n"
                           "SEND(1);\n"
                           "if (c) { REPLY(); }\n");
    EXPECT_EQ(errorLines(r->sink, "missing-reply"), std::vector<int>{2});
    EXPECT_EQ(r->sink.diagnostics()[0].message, "send never answered");
    EXPECT_EQ(r->result.firings.at("missing-reply"), 1);
}

TEST(EngineEndOfPath, RememberedLocationIsPartOfTheVisitedKey)
{
    // Both branches reach the join in `waiting`, each remembering its
    // own send; folding them on state alone would lose one report.
    auto r = run(kPairing, "\n"
                           "if (c) {\n"
                           "  SEND(1);\n"
                           "} else {\n"
                           "  SEND(2);\n"
                           "}\n"
                           "x = 0;\n");
    EXPECT_EQ(errorLines(r->sink, "missing-reply"), (std::vector<int>{3, 5}));
}

TEST(EngineEndOfPath, ARetargetedRuleRemembersItsOwnMatch)
{
    auto r = run(kPairing, "\n"
                           "SEND(1);\n"
                           "SEND(2);\n");
    EXPECT_EQ(errorLines(r->sink, "missing-reply"), std::vector<int>{3});
}

TEST(EngineEndOfPath, StatesWithoutTheRuleReportNothing)
{
    auto r = run(kPairing, "SEND(1); RESET();");
    EXPECT_EQ(r->sink.count(support::Severity::Error), 0);
}

TEST(EngineEndOfPath, OptionTurnsTheRulesOff)
{
    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kPairing);
    program.addSource("t.c", "void f(void) { SEND(1); }");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    SmRunOptions options;
    options.end_of_path = false;
    runStateMachine(*mp.sm, cfg, sink, options);
    EXPECT_EQ(sink.count(support::Severity::Error), 0);
    runStateMachine(*mp.sm, cfg, sink);
    EXPECT_EQ(sink.count(support::Severity::Error), 1);
}

TEST(EngineEndOfPath, WitnessEndsWithTheReportingRule)
{
    WitnessGuard guard;
    auto r = run(kPairing, "SEND(1); if (c) { REPLY(); }");
    ASSERT_EQ(r->sink.count(support::Severity::Error), 1);
    const support::Witness& w = r->sink.diagnostics()[0].witness;
    ASSERT_GE(w.steps.size(), 2u);
    EXPECT_EQ(w.steps.front().to_state, "waiting");
    EXPECT_EQ(w.steps.back().note, "rule missing-reply");
    EXPECT_TRUE(w.steps.back().loc == r->sink.diagnostics()[0].loc);
}

TEST(Engine, FindingReportsAtTheMatchedCall)
{
    // The read is a subexpression: the finding points at the call, not
    // at the statement that starts at `v`.
    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kWaitForDb);
    program.addSource("proto.c", "void f(void) {\n"
                                 "  v =\n"
                                 "    MISCBUS_READ_DB(a, b);\n"
                                 "}\n");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    runStateMachine(*mp.sm, cfg, sink);
    ASSERT_EQ(sink.count(support::Severity::Error), 1);
    EXPECT_EQ(sink.diagnostics()[0].loc.line, 3);
}

TEST(Engine, CallTestsMatchTheFirstAcceptedCall)
{
    const char* metal = R"metal(
sm marks {
    extern marked;
    start:
        marked ==> { err("marked-call", "a marked call"); } ;
}
)metal";
    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(metal);
    program.addSource("t.c", "void f(void) {\n"
                             "  x = g(1) +\n"
                             "      mark(2);\n"
                             "  mark(3);\n"
                             "}\n");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    const support::SymbolId mark =
        support::SymbolInterner::global().intern("mark");
    const std::vector<CallTest> tests = {
        [mark](const cfg::CallRow& c) { return c.callee == mark; }};

    // Unbound, the test accepts nothing.
    runStateMachine(*mp.sm, cfg, sink);
    EXPECT_EQ(sink.count(support::Severity::Error), 0);

    SmRunOptions options;
    options.call_tests = tests;
    runStateMachine(*mp.sm, cfg, sink, options);
    EXPECT_EQ(errorLines(sink, "marked-call"), (std::vector<int>{3, 4}));
}

TEST(Engine, DiagnosticLocationPointsAtOffendingRead)
{
    lang::Program program;
    support::DiagnosticSink sink;
    MetalProgram mp = parseMetal(kWaitForDb);
    program.addSource("proto.c",
                      "void f(void) {\n"
                      "  x = 1;\n"
                      "  MISCBUS_READ_DB(a, b);\n"
                      "}\n");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    runStateMachine(*mp.sm, cfg, sink);
    ASSERT_EQ(sink.count(support::Severity::Error), 1);
    EXPECT_EQ(sink.diagnostics()[0].loc.line, 3);
}

} // namespace
} // namespace mc::metal
