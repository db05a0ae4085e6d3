#include "metal/path_walker.h"

#include "lang/program.h"

#include <gtest/gtest.h>

namespace mc::metal {
namespace {

/** Trivial state that records the statements visited, in order. */
struct TraceState
{
    std::shared_ptr<std::vector<std::string>> log =
        std::make_shared<std::vector<std::string>>();
    bool stop = false;

    std::string key() const { return stop ? "1" : "0"; }
    bool dead() const { return stop; }
};

struct Built
{
    lang::Program program;
    cfg::Cfg cfg;
};

std::unique_ptr<Built>
build(const std::string& body)
{
    auto b = std::make_unique<Built>();
    b->program.addSource("t.c", "void f(void) {" + body + "}");
    b->cfg = cfg::CfgBuilder::build(*b->program.findFunction("f"));
    return b;
}

TEST(PathWalker, VisitsEveryStatementOnce)
{
    auto b = build("a(); b(); c();");
    std::vector<std::string> seen;
    PathWalker<TraceState>::Hooks hooks;
    hooks.on_stmt = [&](TraceState&, const lang::Stmt& stmt, std::uint32_t) {
        seen.push_back(lang::stmtToString(stmt));
    };
    PathWalker<TraceState> walker(std::move(hooks));
    walker.walk(b->cfg, TraceState{});
    EXPECT_EQ(seen, (std::vector<std::string>{"a();", "b();", "c();"}));
}

TEST(PathWalker, ExitHookRunsPerDistinctExitState)
{
    auto b = build("if (c) { x(); }");
    int exits = 0;
    PathWalker<TraceState>::Hooks hooks;
    hooks.on_exit = [&](TraceState&) { ++exits; };
    PathWalker<TraceState> walker(std::move(hooks));
    walker.walk(b->cfg, TraceState{});
    // Both paths reach the exit in the same state: visited once.
    EXPECT_EQ(exits, 1);
}

TEST(PathWalker, BranchHookSeesBothEdges)
{
    auto b = build("if (c) { x(); } else { y(); }");
    std::vector<std::size_t> edges;
    PathWalker<TraceState>::Hooks hooks;
    hooks.on_branch = [&](TraceState&, const lang::Expr& cond,
                          std::size_t edge) {
        EXPECT_EQ(lang::exprToString(cond), "c");
        edges.push_back(edge);
    };
    PathWalker<TraceState> walker(std::move(hooks));
    walker.walk(b->cfg, TraceState{});
    ASSERT_EQ(edges.size(), 2u);
}

TEST(PathWalker, DeadStateStopsPath)
{
    auto b = build("a(); b();");
    int visited = 0;
    PathWalker<TraceState>::Hooks hooks;
    hooks.on_stmt = [&](TraceState& st, const lang::Stmt&, std::uint32_t) {
        ++visited;
        st.stop = true; // die after the first statement
    };
    PathWalker<TraceState> walker(std::move(hooks));
    walker.walk(b->cfg, TraceState{});
    EXPECT_EQ(visited, 1);
}

TEST(PathWalker, VisitCapReportsTruncation)
{
    auto b = build("if (a) x(); if (b) y(); if (c) z();");
    PathWalker<TraceState>::Hooks hooks;
    PathWalker<TraceState> walker(std::move(hooks), /*max_visits=*/2);
    auto result = walker.walk(b->cfg, TraceState{});
    EXPECT_TRUE(result.truncated);
    // A capped walk performs exactly max_visits fully-processed visits.
    // The off-by-one this pins down: counting before checking the cap
    // reported max_visits + 1, with the final visit's block never
    // actually processed.
    EXPECT_EQ(result.visits, 2u);
}

TEST(PathWalker, CapEqualToNeededVisitsDoesNotTruncate)
{
    // A cap exactly equal to the walk's natural visit count must let the
    // walk finish: every counted visit is fully processed, so nothing is
    // left when the counter reaches the cap.
    auto b = build("if (a) x(); if (b) y();");
    PathWalker<TraceState> uncapped(PathWalker<TraceState>::Hooks{});
    auto full = uncapped.walk(b->cfg, TraceState{});
    ASSERT_FALSE(full.truncated);
    ASSERT_GT(full.visits, 0u);

    PathWalker<TraceState> capped(PathWalker<TraceState>::Hooks{},
                                  /*max_visits=*/full.visits);
    auto result = capped.walk(b->cfg, TraceState{});
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.visits, full.visits);
    EXPECT_EQ(result.cache_hits, full.cache_hits);
}

/** State that counts how many times it is deep-copied. */
struct CopyCountState
{
    std::shared_ptr<int> copies = std::make_shared<int>(0);

    CopyCountState() = default;
    CopyCountState(const CopyCountState& o) : copies(o.copies)
    {
        ++*copies;
    }
    CopyCountState(CopyCountState&&) = default;
    CopyCountState&
    operator=(const CopyCountState& o)
    {
        copies = o.copies;
        ++*copies;
        return *this;
    }
    CopyCountState& operator=(CopyCountState&&) = default;

    std::string key() const { return "k"; }
    bool dead() const { return false; }
};

TEST(PathWalker, StraightLineWalkCopiesStateOnlyAtSeed)
{
    // Single-successor blocks hand their state to the successor by move;
    // the only copy is seeding the entry from the caller's initial state.
    auto b = build("a(); b(); c();");
    PathWalker<CopyCountState> walker(PathWalker<CopyCountState>::Hooks{});
    CopyCountState initial;
    auto result = walker.walk(b->cfg, initial);
    EXPECT_GT(result.visits, 0u);
    EXPECT_EQ(*initial.copies, 1);
}

TEST(PathWalker, BranchForkCopiesStateOncePerExtraEdge)
{
    // A two-way branch needs one copy (first edge); the last edge steals
    // the popped entry's state. One branch + the seed copy = 2.
    auto b = build("if (c) { x(); } else { y(); } z();");
    PathWalker<CopyCountState> walker(PathWalker<CopyCountState>::Hooks{});
    CopyCountState initial;
    auto result = walker.walk(b->cfg, initial);
    EXPECT_GT(result.visits, 0u);
    EXPECT_EQ(*initial.copies, 2);
}

// ---------------------------------------------------------------------
// Correlated-branch pruning (the Section 5 "more elaborate analysis")
// ---------------------------------------------------------------------

/** State counting how many exits were reached. */
struct CountState
{
    int marker = 0;
    std::string key() const { return std::to_string(marker); }
    bool dead() const { return false; }
};

std::uint64_t
prunedEdges(const std::string& body)
{
    auto b = build(body);
    PathWalker<CountState>::Hooks hooks;
    PathWalker<CountState>::WalkOptions options;
    options.prune_strategy = PruneStrategy::Correlated;
    PathWalker<CountState> walker(std::move(hooks), options);
    return walker.walk(b->cfg, CountState{}).pruned_edges;
}

TEST(PathWalker, ResultCountsCacheHitsAndPeakFrontier)
{
    // A diamond whose arms re-converge in the same state: the join block
    // is reached twice but visited once — the second arrival is a cache
    // hit. The branch forks two pending entries, so the frontier peaks
    // at two or more.
    auto b = build("if (c) { x(); } else { y(); } z();");
    PathWalker<TraceState> walker(PathWalker<TraceState>::Hooks{});
    auto result = walker.walk(b->cfg, TraceState{});
    EXPECT_GT(result.visits, 0u);
    EXPECT_GE(result.cache_hits, 1u);
    EXPECT_GE(result.peak_frontier, 2u);
    EXPECT_FALSE(result.truncated);
}

TEST(PathWalker, StraightLineHasNoCacheHits)
{
    auto b = build("a(); b(); c();");
    PathWalker<TraceState> walker(PathWalker<TraceState>::Hooks{});
    auto result = walker.walk(b->cfg, TraceState{});
    EXPECT_EQ(result.cache_hits, 0u);
    EXPECT_EQ(result.peak_frontier, 1u);
}

TEST(PathWalkerPruning, SameConditionTwicePrunesImpossiblePaths)
{
    // 4 static paths, 2 impossible.
    EXPECT_EQ(prunedEdges("if (c) { a(); } else { b(); }"
                          "if (c) { d(); } else { e(); }"),
              2u);
}

TEST(PathWalkerPruning, NegatedConditionCorrelates)
{
    EXPECT_EQ(prunedEdges("if (c) { a(); }"
                          "if (!c) { b(); }"),
              2u);
}

TEST(PathWalkerPruning, IndependentConditionsNotPruned)
{
    EXPECT_EQ(prunedEdges("if (c) { a(); } if (d) { b(); }"), 0u);
}

TEST(PathWalkerPruning, AssignmentInvalidatesCorrelation)
{
    // c changes between the tests: both outcomes are possible again.
    EXPECT_EQ(prunedEdges("if (c) { a(); }"
                          "c = next();"
                          "if (c) { b(); }"),
              0u);
}

TEST(PathWalkerPruning, IncrementInvalidatesCorrelation)
{
    EXPECT_EQ(prunedEdges("if (n > 3) { a(); }"
                          "n++;"
                          "if (n > 3) { b(); }"),
              0u);
}

TEST(PathWalkerPruning, CallConditionsNeverCorrelated)
{
    // MAYBE_FREE-style conditions can change value per call.
    EXPECT_EQ(prunedEdges("if (POLL()) { a(); }"
                          "if (POLL()) { b(); }"),
              0u);
}

TEST(PathWalkerPruning, CompoundConditionCorrelates)
{
    EXPECT_EQ(prunedEdges("if (a > 2 && b) { x(); }"
                          "if (a > 2 && b) { y(); } else { z(); }"),
              2u);
}

TEST(PathWalkerPruning, UnrelatedAssignmentKeepsCorrelation)
{
    EXPECT_EQ(prunedEdges("if (c) { a(); }"
                          "other = 5;"
                          "if (c) { b(); }"),
              2u);
}

TEST(PathWalkerPruning, PrefixNameDoesNotInvalidate)
{
    // Assigning `cc` must not invalidate outcomes about `c`.
    EXPECT_EQ(prunedEdges("if (c) { a(); }"
                          "cc = 5;"
                          "if (c) { b(); }"),
              2u);
}

TEST(PathWalkerPruning, OffByDefault)
{
    auto b = build("if (c) { a(); } if (c) { b(); }");
    PathWalker<CountState>::Hooks hooks;
    PathWalker<CountState> walker(std::move(hooks));
    EXPECT_EQ(walker.walk(b->cfg, CountState{}).pruned_edges, 0u);
}

} // namespace
} // namespace mc::metal
