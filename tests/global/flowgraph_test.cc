#include "global/callgraph.h"
#include "global/flowgraph.h"

#include "lang/program.h"

#include <gtest/gtest.h>

#include <sstream>

namespace mc::global {
namespace {

FunctionSummary
makeSummary(const std::string& name)
{
    FunctionSummary fn;
    fn.name = name;
    fn.entry = 0;
    fn.exit = 1;
    fn.blocks.resize(2);
    fn.blocks[0].succs = {1};
    Event call;
    call.kind = Event::Kind::Call;
    call.callee = "helper";
    call.loc = {1, 10, 3};
    Event send;
    send.kind = Event::Kind::Send;
    send.lane = 2;
    send.loc = {1, 11, 3};
    fn.blocks[0].events = {call, send};
    return fn;
}

TEST(FlowGraph, WriteReadRoundtrip)
{
    std::vector<FunctionSummary> in = {makeSummary("HandlerA"),
                                       makeSummary("HandlerB")};
    std::ostringstream os;
    for (const FunctionSummary& fn : in)
        writeSummary(os, fn);

    std::istringstream is(os.str());
    std::vector<FunctionSummary> out = readSummaries(is);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].name, "HandlerA");
    EXPECT_EQ(out[0].entry, 0);
    EXPECT_EQ(out[0].exit, 1);
    ASSERT_EQ(out[0].blocks.size(), 2u);
    ASSERT_EQ(out[0].blocks[0].events.size(), 2u);
    EXPECT_EQ(out[0].blocks[0].events[0].kind, Event::Kind::Call);
    EXPECT_EQ(out[0].blocks[0].events[0].callee, "helper");
    EXPECT_EQ(out[0].blocks[0].events[1].kind, Event::Kind::Send);
    EXPECT_EQ(out[0].blocks[0].events[1].lane, 2);
    EXPECT_EQ(out[0].blocks[0].events[1].loc.line, 11);
    EXPECT_EQ(out[0].blocks[0].succs, std::vector<int>{1});
}

TEST(FlowGraph, ReadRejectsGarbage)
{
    std::istringstream is("nonsense line\n");
    EXPECT_THROW(readSummaries(is), std::runtime_error);
}

TEST(FlowGraph, ReadRejectsEventOutsideBlock)
{
    std::istringstream is("fn f entry 0 exit 1 blocks 2\nsend 1 1 2 3\n");
    EXPECT_THROW(readSummaries(is), std::runtime_error);
}

TEST(FlowGraph, SummarizeExtractsEventsPerBlock)
{
    lang::Program program;
    program.addSource("t.c",
                      "void f(void) { if (c) { helper(); } other(); }");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));

    FunctionSummary fn = summarize("f", cfg, [](const lang::Stmt& stmt,
                                                std::uint32_t,
                                                std::vector<Event>& out) {
        if (const lang::CallExpr* call = lang::stmtAsCall(stmt)) {
            Event ev;
            ev.kind = Event::Kind::Call;
            ev.callee = std::string(call->calleeName());
            ev.loc = stmt.loc;
            out.push_back(std::move(ev));
        }
    });

    int calls = 0;
    for (const auto& bb : fn.blocks)
        calls += static_cast<int>(bb.events.size());
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(fn.blocks.size(),
              static_cast<std::size_t>(cfg.blockCount()));
}

TEST(CallGraph, FindAndCallees)
{
    // A calls the send-free helper and sends on lane 2 itself; Outer
    // reaches that send through A; Quiet reaches only the helper.
    const FunctionSummary a = makeSummary("A");
    FunctionSummary helper;
    helper.name = "helper";
    helper.blocks.resize(1);
    FunctionSummary quiet = helper;
    quiet.name = "Quiet";
    Event call;
    call.kind = Event::Kind::Call;
    call.callee = "helper";
    quiet.blocks[0].events = {call};
    FunctionSummary outer = quiet;
    outer.name = "Outer";
    outer.blocks[0].events[0].callee = "A";

    CallGraph graph({&a, &helper, &quiet, &outer});
    EXPECT_EQ(graph.find("A"), &a);
    EXPECT_EQ(graph.find("Z"), nullptr);
    EXPECT_TRUE(graph.sendsOnLane("A"));
    EXPECT_TRUE(graph.sendsOnLane("Outer"));
    EXPECT_FALSE(graph.sendsOnLane("Quiet"));
    EXPECT_FALSE(graph.sendsOnLane("helper"));
    EXPECT_FALSE(graph.sendsOnLane("Z"));
}

TEST(LaneAnalysis, SimpleOverflowDetected)
{
    FunctionSummary fn;
    fn.name = "H";
    fn.entry = 0;
    fn.exit = 1;
    fn.blocks.resize(2);
    fn.blocks[0].succs = {1};
    for (int i = 0; i < 3; ++i) {
        Event send;
        send.kind = Event::Kind::Send;
        send.lane = 0;
        send.loc = {1, 10 + i, 1};
        fn.blocks[0].events.push_back(send);
    }
    CallGraph graph({&fn});
    auto result = analyzeLanes(graph, "H", {1, 1, 1, 1});
    // Two sends beyond the allowance of 1, each reported once.
    EXPECT_EQ(result.violations.size(), 2u);
    EXPECT_EQ(result.max_sends[0], 2); // saturated at allowance + 1
}

TEST(LaneAnalysis, LaneWaitResets)
{
    FunctionSummary fn;
    fn.name = "H";
    fn.entry = 0;
    fn.exit = 1;
    fn.blocks.resize(2);
    fn.blocks[0].succs = {1};
    Event send;
    send.kind = Event::Kind::Send;
    send.lane = 0;
    send.loc = {1, 1, 1};
    Event wait;
    wait.kind = Event::Kind::LaneWait;
    wait.lane = 0;
    wait.loc = {1, 2, 1};
    Event send2 = send;
    send2.loc = {1, 3, 1};
    fn.blocks[0].events = {send, wait, send2};
    CallGraph graph({&fn});
    auto result = analyzeLanes(graph, "H", {1, 1, 1, 1});
    EXPECT_TRUE(result.violations.empty());
}

TEST(LaneAnalysis, UnknownHandlerIsEmptyResult)
{
    CallGraph graph({});
    auto result = analyzeLanes(graph, "Nope", {1, 1, 1, 1});
    EXPECT_TRUE(result.violations.empty());
    EXPECT_TRUE(result.recursion_warnings.empty());
}

} // namespace
} // namespace mc::global
