#include "checkers/lanes.h"
#include "checkers/parallel.h"
#include "tests/checkers/harness.h"

#include <gtest/gtest.h>

#include <sstream>

namespace mc::checkers {
namespace {

using flash::HandlerKind;
using testing::Harness;

/** Register opcodes on lanes 0..3. */
void
setupLanes(Harness& h)
{
    h.spec.setLane("MSG_GET", 0);
    h.spec.setLane("MSG_PUT", 1);
    h.spec.setLane("MSG_ACK", 2);
    h.spec.setLane("MSG_INVAL", 3);
}

void
addLaneHandler(Harness& h, const std::string& name,
               const std::string& body, std::array<int, 4> allowance)
{
    flash::HandlerSpec hs;
    hs.name = name;
    hs.kind = HandlerKind::Hardware;
    hs.lane_allowance = allowance;
    h.spec.addHandler(hs);
    h.addSource(name + ".c", "void " + name + "(void) {" + body + "}");
}

TEST(Lanes, WithinAllowanceClean)
{
    Harness h;
    setupLanes(h);
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "NI_SEND(MSG_PUT, F_DATA, k, w, d, n);",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(Lanes, ExceedingAllowanceFlagged)
{
    Harness h;
    setupLanes(h);
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 1);
    EXPECT_TRUE(h.hasErrorRule("quota-exceeded"));
}

TEST(Lanes, WaitForSpaceResetsBudget)
{
    Harness h;
    setupLanes(h);
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "WAIT_FOR_SPACE(MSG_GET);"
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(Lanes, InterproceduralSendCounted)
{
    // The paper's first lanes bug: a workaround inserted by a
    // non-author added a send inside a helper, blowing the quota.
    Harness h;
    setupLanes(h);
    h.addSource("helper.c",
                "void hw_workaround(void) {"
                "  NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                "}");
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "hw_workaround();",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    ASSERT_EQ(h.errors(), 1);
    // The back-trace names the call chain.
    const auto& diag = h.sink.diagnostics()[0];
    ASSERT_GE(diag.trace.size(), 2u);
    EXPECT_NE(diag.trace[0].find("handler H"), std::string::npos);
    bool mentions_helper = false;
    for (const auto& frame : diag.trace)
        mentions_helper |= frame.find("hw_workaround") != std::string::npos;
    EXPECT_TRUE(mentions_helper);
}

TEST(Lanes, BranchesTakeMaximum)
{
    // Max over paths matters: one branch is fine, the other overflows.
    Harness h;
    setupLanes(h);
    addLaneHandler(h, "H",
                   "if (c) {"
                   "  NI_SEND(MSG_ACK, F_NODATA, k, w, d, n);"
                   "} else {"
                   "  NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "  NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "}",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(Lanes, NonSendingCycleIsFixedPoint)
{
    // "cycles that do not send ... the extension can safely ignore them."
    Harness h;
    setupLanes(h);
    h.addSource("helper.c",
                "void spin(void) { if (busy) { spin(); } }");
    addLaneHandler(h, "H",
                   "spin();"
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
    EXPECT_EQ(h.warnings(), 0);
}

TEST(Lanes, SendingCycleWarned)
{
    Harness h;
    setupLanes(h);
    h.addSource("helper.c",
                "void pump(void) {"
                "  NI_SEND(MSG_PUT, F_DATA, k, w, d, n);"
                "  if (more) { pump(); }"
                "}");
    addLaneHandler(h, "H", "pump();", {4, 4, 4, 4});
    LanesChecker checker;
    h.run(checker);
    EXPECT_GE(h.warnings(), 1);
    bool has_cycle_warning = false;
    for (const auto& d : h.sink.diagnostics())
        has_cycle_warning |= d.rule == "sending-cycle";
    EXPECT_TRUE(has_cycle_warning);
}

TEST(Lanes, LoopWithoutSendsInsideHandlerIgnored)
{
    Harness h;
    setupLanes(h);
    addLaneHandler(h, "H",
                   "while (pending) { step(); }"
                   "NI_SEND(MSG_INVAL, F_NODATA, k, w, d, n);",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(Lanes, PerLaneBudgetsIndependent)
{
    Harness h;
    setupLanes(h);
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "NI_SEND(MSG_PUT, F_DATA, k, w, d, n);"
                   "NI_SEND(MSG_ACK, F_NODATA, k, w, d, n);"
                   "NI_SEND(MSG_INVAL, F_NODATA, k, w, d, n);",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(Lanes, AllowanceOfTwoPermitsTwoSends)
{
    Harness h;
    setupLanes(h);
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);",
                   {2, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(Lanes, WaitForSpaceInsideCalleeResetsCallerBudget)
{
    // The space check may live in a helper; the traversal must apply it
    // to the inter-procedural path.
    Harness h;
    setupLanes(h);
    h.addSource("helper.c", "void drain_get_lane(void) {"
                            "  WAIT_FOR_SPACE(MSG_GET);"
                            "}");
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "drain_get_lane();"
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(Lanes, DeepCallChainTraversed)
{
    Harness h;
    setupLanes(h);
    h.addSource("c1.c", "void level1(void) { level2(); }");
    h.addSource("c2.c", "void level2(void) { level3(); }");
    h.addSource("c3.c", "void level3(void) {"
                        "  NI_SEND(MSG_PUT, F_DATA, k, w, d, n);"
                        "}");
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_PUT, F_DATA, k, w, d, n);"
                   "level1();",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    ASSERT_EQ(h.errors(), 1);
    // The back-trace walks all three frames.
    const auto& trace = h.sink.diagnostics()[0].trace;
    EXPECT_GE(trace.size(), 4u);
}

TEST(Lanes, UnknownOpcodeSendIgnored)
{
    Harness h;
    setupLanes(h);
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_UNMAPPED, F_NODATA, k, w, d, n);"
                   "NI_SEND(MSG_UNMAPPED, F_NODATA, k, w, d, n);",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0); // no lane assignment -> not counted
}

TEST(Lanes, TextRoundtripGivesIdenticalResults)
{
    // The paper's pipeline writes flow graphs to files and reads them
    // back; the shard wire does exactly that through saveState and
    // loadState. A global pass over the reloaded summaries must report
    // what a global pass over the live ones does.
    auto setup = [](Harness& h) {
        setupLanes(h);
        h.addSource("helper.c",
                    "void send_one(void) {"
                    "  NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                    "}");
        addLaneHandler(h, "B",
                       "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                       "send_one();",
                       {1, 1, 1, 1});
    };
    auto rendered = [](const Harness& h) {
        std::vector<std::string> out;
        for (const auto& d : h.sink.diagnostics())
            out.push_back(d.rule + "@" + std::to_string(d.loc.line));
        return out;
    };

    Harness live;
    setup(live);
    LanesChecker checker;
    live.run(checker);

    Harness wire;
    setup(wire);
    CheckContext ctx{wire.program, wire.spec, wire.sink};
    LanesChecker local;
    for (const lang::FunctionDecl* fn : wire.program.functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        local.checkFunction(*fn, cfg, ctx);
    }
    std::stringstream file;
    local.saveState(file);
    LanesChecker global;
    ASSERT_TRUE(global.loadState(file));
    global.checkProgram(ctx);

    EXPECT_EQ(rendered(live), rendered(wire));
    EXPECT_EQ(global.applied(), checker.applied());
    EXPECT_FALSE(rendered(wire).empty());
    // The pass skips the same handlers over reloaded summaries.
    EXPECT_EQ(global.analyzedHandlers(wire.spec),
              local.analyzedHandlers(wire.spec));
    EXPECT_EQ(global.analyzedHandlers(wire.spec),
              checker.analyzedHandlers(live.spec));
    EXPECT_EQ(global.analyzedHandlers(wire.spec),
              std::vector<std::string>{"B"});
}

TEST(Lanes, RestoredUnitWithALaneSendIsStillAnalyzed)
{
    // A unit replayed through loadState (a cache hit, a shard worker's
    // result) carries its lane sends into the master's tally, so the
    // global pass does not take the no-lane-send exit and the handler is
    // analyzed as if the unit had run in place.
    Harness h;
    setupLanes(h);
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);",
                   {1, 1, 1, 1});
    CheckContext ctx{h.program, h.spec, h.sink};
    LanesChecker unit;
    for (const lang::FunctionDecl* fn : h.program.functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        unit.checkFunction(*fn, cfg, ctx);
    }
    std::stringstream state;
    unit.saveState(state);
    LanesChecker restored;
    ASSERT_TRUE(restored.loadState(state));
    EXPECT_EQ(restored.laneSends(), 2u);

    LanesChecker master;
    master.absorb(restored);
    EXPECT_EQ(master.laneSends(), 2u);
    EXPECT_TRUE(master.hasRunState());
    master.checkProgram(ctx);
    EXPECT_EQ(h.errors(), 1);
    EXPECT_EQ(master.analyzedHandlers(h.spec),
              std::vector<std::string>{"H"});
}

TEST(Lanes, PipelineMasterKeepsNoAbsorbedSummaryAfterTheRun)
{
    // A unit pipeline master borrows its unit instances' summaries, and
    // those die with the run (or with the resident store that keeps
    // them). Once the run returns, the master's reads see only its own
    // state, never the freed summaries; under ASan a borrowed pointer
    // left behind fails this test.
    auto setup = [](Harness& h) {
        setupLanes(h);
        addLaneHandler(h, "H",
                       "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                       "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);",
                       {1, 1, 1, 1});
    };
    Harness sequential;
    setup(sequential);
    LanesChecker reference;
    sequential.run(reference);

    for (const bool with_store : {false, true}) {
        SCOPED_TRACE(with_store ? "resident store" : "no store");
        Harness h;
        setup(h);
        LanesChecker master;
        {
            ResidentUnits store;
            ParallelRunOptions options;
            options.jobs = 2;
            options.resident = with_store ? &store : nullptr;
            runCheckersParallel(h.program, h.spec, {&master}, h.sink,
                                options);
        }
        EXPECT_EQ(h.errors(), sequential.errors());
        EXPECT_EQ(master.applied(), reference.applied());
        EXPECT_EQ(master.laneSends(), 0u);
        EXPECT_FALSE(master.hasRunState());
        EXPECT_TRUE(master.analyzedHandlers(h.spec).empty());
        std::stringstream state;
        master.saveState(state);
        LanesChecker restored;
        ASSERT_TRUE(restored.loadState(state));
        EXPECT_FALSE(restored.hasRunState());
    }
}

TEST(Lanes, NoLaneTableMeansNoGlobalPass)
{
    // Files mode: the spec maps no opcode to a lane, so every summarized
    // send has lane -1, the tally stays 0 and checkProgram returns
    // before linking a call graph, with nothing to report.
    Harness h;
    addLaneHandler(h, "H",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "helper();",
                   {1, 1, 1, 1});
    h.addSource("helper.c",
                "void helper(void) {"
                "  NI_SEND(MSG_PUT, F_NODATA, k, w, d, n);"
                "}");
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(checker.laneSends(), 0u);
    EXPECT_EQ(checker.applied(), 3);
    EXPECT_TRUE(checker.hasRunState());
    EXPECT_EQ(h.errors(), 0);
    EXPECT_EQ(h.warnings(), 0);
    EXPECT_TRUE(checker.analyzedHandlers(h.spec).empty());
}

TEST(Lanes, SharedHelperAnalyzedPerCallingContext)
{
    // The helper is fine from A (fresh budget) but overflows from B
    // (budget already spent).
    Harness h;
    setupLanes(h);
    h.addSource("helper.c",
                "void send_one(void) {"
                "  NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                "}");
    addLaneHandler(h, "A", "send_one();", {1, 1, 1, 1});
    addLaneHandler(h, "B",
                   "NI_SEND(MSG_GET, F_NODATA, k, w, d, n);"
                   "send_one();",
                   {1, 1, 1, 1});
    LanesChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 1);
}

} // namespace
} // namespace mc::checkers
