#include "cfg/cfg.h"
#include "lang/program.h"

#include <gtest/gtest.h>

namespace mc::cfg {
namespace {

using lang::Program;

struct Built
{
    Program program;
    Cfg cfg;
};

std::unique_ptr<Built>
build(const std::string& body)
{
    auto b = std::make_unique<Built>();
    b->program.addSource("t.c", "void f(void) {" + body + "}");
    b->cfg = CfgBuilder::build(*b->program.findFunction("f"));
    return b;
}

/** Count blocks reachable from entry. */
int
reachableCount(const Cfg& cfg)
{
    std::vector<bool> seen(static_cast<std::size_t>(cfg.blockCount()));
    std::vector<int> stack{cfg.entryId()};
    seen[static_cast<std::size_t>(cfg.entryId())] = true;
    int n = 0;
    while (!stack.empty()) {
        int id = stack.back();
        stack.pop_back();
        ++n;
        for (int s : cfg.block(id).succs) {
            if (!seen[static_cast<std::size_t>(s)]) {
                seen[static_cast<std::size_t>(s)] = true;
                stack.push_back(s);
            }
        }
    }
    return n;
}

TEST(Cfg, StraightLine)
{
    auto b = build("a(); b(); c();");
    const BasicBlock& entry = b->cfg.block(b->cfg.entryId());
    EXPECT_EQ(flatCfg(b->cfg).stmts(entry.id).size(), 3u);
    ASSERT_EQ(entry.succs.size(), 1u);
    EXPECT_EQ(entry.succs[0], b->cfg.exitId());
}

TEST(Cfg, IfWithoutElseHasTwoEdges)
{
    auto b = build("if (c) a();");
    const BasicBlock& entry = b->cfg.block(b->cfg.entryId());
    EXPECT_TRUE(entry.isBranch());
    ASSERT_EQ(entry.succs.size(), 2u);
    // True edge first, then the skip edge.
    const BasicBlock& then_block = b->cfg.block(entry.succs[0]);
    EXPECT_EQ(flatCfg(b->cfg).stmts(then_block.id).size(), 1u);
}

TEST(Cfg, IfElseJoins)
{
    auto b = build("if (c) a(); else d(); e();");
    const BasicBlock& entry = b->cfg.block(b->cfg.entryId());
    ASSERT_EQ(entry.succs.size(), 2u);
    int then_id = entry.succs[0];
    int else_id = entry.succs[1];
    ASSERT_EQ(b->cfg.block(then_id).succs.size(), 1u);
    ASSERT_EQ(b->cfg.block(else_id).succs.size(), 1u);
    EXPECT_EQ(b->cfg.block(then_id).succs[0],
              b->cfg.block(else_id).succs[0]);
}

TEST(Cfg, WhileHasBackEdge)
{
    auto b = build("while (c) body();");
    EXPECT_EQ(b->cfg.backEdges().size(), 1u);
}

TEST(Cfg, DoWhileExecutesBodyFirst)
{
    auto b = build("do { body(); } while (c);");
    // Entry block's sole successor chain must hit the body before any
    // branch.
    const BasicBlock& entry = b->cfg.block(b->cfg.entryId());
    ASSERT_FALSE(entry.succs.empty());
    const BasicBlock& body = b->cfg.block(entry.succs[0]);
    ASSERT_EQ(flatCfg(b->cfg).stmts(body.id).size(), 1u);
    EXPECT_EQ(b->cfg.backEdges().size(), 1u);
}

TEST(Cfg, ForLoopStructure)
{
    auto b = build("for (i = 0; i < 4; i++) body();");
    EXPECT_EQ(b->cfg.backEdges().size(), 1u);
    // init statement lands in the entry block.
    ASSERT_FALSE(flatCfg(b->cfg).stmts(b->cfg.entryId()).empty());
}

TEST(Cfg, ForeverLoopHasNoExitEdgeFromHead)
{
    auto b = build("for (;;) { if (c) break; work(); }");
    // Function must still reach the exit via break.
    bool exit_reachable = false;
    std::vector<int> stack{b->cfg.entryId()};
    std::vector<bool> seen(static_cast<std::size_t>(b->cfg.blockCount()));
    seen[static_cast<std::size_t>(b->cfg.entryId())] = true;
    while (!stack.empty()) {
        int id = stack.back();
        stack.pop_back();
        if (id == b->cfg.exitId())
            exit_reachable = true;
        for (int s : b->cfg.block(id).succs)
            if (!seen[static_cast<std::size_t>(s)]) {
                seen[static_cast<std::size_t>(s)] = true;
                stack.push_back(s);
            }
    }
    EXPECT_TRUE(exit_reachable);
}

TEST(Cfg, BreakAndContinueEdges)
{
    auto b = build("while (c) { if (x) break; if (y) continue; w(); }");
    EXPECT_GE(b->cfg.backEdges().size(), 1u);
    EXPECT_GT(reachableCount(b->cfg), 5);
}

TEST(Cfg, ReturnConnectsToExit)
{
    auto b = build("if (c) return; a();");
    const BasicBlock& entry = b->cfg.block(b->cfg.entryId());
    int then_id = entry.succs[0];
    const BasicBlock& ret_block = b->cfg.block(then_id);
    ASSERT_EQ(ret_block.succs.size(), 1u);
    EXPECT_EQ(ret_block.succs[0], b->cfg.exitId());
}

TEST(Cfg, SwitchFanout)
{
    auto b = build("switch (op) { case 1: a(); break; "
                   "case 2: bb(); break; default: c(); }");
    const BasicBlock& entry = b->cfg.block(b->cfg.entryId());
    // One edge per case arm including default.
    EXPECT_EQ(entry.succs.size(), 3u);
}

TEST(Cfg, SwitchWithoutDefaultFallsThrough)
{
    auto b = build("switch (op) { case 1: a(); break; } z();");
    const BasicBlock& entry = b->cfg.block(b->cfg.entryId());
    // case-arm edge plus the no-default edge.
    EXPECT_EQ(entry.succs.size(), 2u);
}

TEST(Cfg, SwitchCaseFallthroughEdge)
{
    auto b = build("switch (op) { case 1: a(); case 2: bb(); }");
    // The case-1 arm must have an edge into the case-2 arm.
    const BasicBlock& entry = b->cfg.block(b->cfg.entryId());
    ASSERT_GE(entry.succs.size(), 2u);
    int case1 = entry.succs[0];
    int case2 = entry.succs[1];
    bool fallthrough = false;
    for (int s : b->cfg.block(case1).succs)
        fallthrough |= s == case2;
    EXPECT_TRUE(fallthrough);
}

TEST(Cfg, GotoForwardAndBackward)
{
    auto b = build("again: a(); if (c) goto done; if (d) goto again; "
                   "done: z();");
    // backward goto creates a cycle.
    EXPECT_GE(b->cfg.backEdges().size(), 1u);
}

TEST(Cfg, GotoUndefinedLabelThrows)
{
    lang::Program p;
    p.addSource("t.c", "void f(void) { goto nowhere; }");
    EXPECT_THROW(CfgBuilder::build(*p.findFunction("f")),
                 std::runtime_error);
}

TEST(Cfg, UnreachableCodeStillHasBlocks)
{
    auto b = build("return; dead();");
    // The dead statement exists in some block.
    bool found = false;
    for (const BasicBlock& bb : b->cfg.blocks())
        for (const lang::Stmt* stmt : flatCfg(b->cfg).stmts(bb.id))
            if (lang::stmtToString(*stmt) == "dead();")
                found = true;
    EXPECT_TRUE(found);
}

TEST(Cfg, DumpContainsBlocksAndEdges)
{
    auto b = build("if (c) a();");
    std::string dump = b->cfg.dump();
    EXPECT_NE(dump.find("cfg f"), std::string::npos);
    EXPECT_NE(dump.find("[branch c]"), std::string::npos);
}

TEST(Cfg, NestedLoopsBackEdgeCount)
{
    auto b = build("while (a) { while (bb) { w(); } }");
    EXPECT_EQ(b->cfg.backEdges().size(), 2u);
}

} // namespace
} // namespace mc::cfg
