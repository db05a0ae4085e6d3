/**
 * @file
 * Unit tests for the semantic branch-feasibility domain (PR: "kill
 * infeasible-path false positives") and its integration with the path
 * walker: the ValueFact/ConstraintSet lattice, condition
 * classification, edge pruning through PathWalker, invalidation on
 * assignment and address-taking, the n-ary skip counter, and the
 * hook-ordering regression (pruned edges must never fire on_branch).
 */
#include "metal/feasibility.h"

#include "lang/program.h"
#include "metal/path_walker.h"

#include <gtest/gtest.h>

namespace mc::metal {
namespace {

// ---------------------------------------------------------------------
// Strategy spellings
// ---------------------------------------------------------------------

TEST(PruneStrategyNames, RoundTrip)
{
    // The --prune-paths / `prune_paths` row parses these spellings by
    // index (tests/server/request_options_test.cc checks the table).
    EXPECT_STREQ(pruneStrategyName(PruneStrategy::Off), "off");
    EXPECT_STREQ(pruneStrategyName(PruneStrategy::Correlated), "correlated");
    EXPECT_STREQ(pruneStrategyName(PruneStrategy::Constraints),
                 "constraints");
}

// ---------------------------------------------------------------------
// ValueFact: the single-symbol lattice
// ---------------------------------------------------------------------

TEST(ValueFact, EqualityThenContradictingBoundIsInfeasible)
{
    ValueFact f;
    ASSERT_TRUE(f.assume(CmpOp::Eq, 5));
    EXPECT_TRUE(f.feasible(CmpOp::Eq, 5));
    EXPECT_FALSE(f.feasible(CmpOp::Gt, 10));
    EXPECT_FALSE(f.feasible(CmpOp::Ne, 5));
    EXPECT_TRUE(f.feasible(CmpOp::Le, 5));
}

TEST(ValueFact, IntervalsNarrowAndContradict)
{
    ValueFact f;
    ASSERT_TRUE(f.assume(CmpOp::Gt, 4)); // x >= 5
    ASSERT_TRUE(f.assume(CmpOp::Le, 9)); // x <= 9
    EXPECT_TRUE(f.feasible(CmpOp::Eq, 7));
    EXPECT_FALSE(f.feasible(CmpOp::Lt, 5));
    EXPECT_FALSE(f.feasible(CmpOp::Eq, 10));
    EXPECT_FALSE(f.assume(CmpOp::Gt, 9)); // empties the interval
}

TEST(ValueFact, DisequalitiesCanEmptyAnInterval)
{
    // x in [5, 6], x != 5, x != 6 -> unsatisfiable.
    ValueFact f;
    ASSERT_TRUE(f.assume(CmpOp::Ge, 5));
    ASSERT_TRUE(f.assume(CmpOp::Le, 6));
    ASSERT_TRUE(f.assume(CmpOp::Ne, 5));
    EXPECT_FALSE(f.feasible(CmpOp::Ne, 6));
    EXPECT_FALSE(f.assume(CmpOp::Ne, 6));
}

TEST(ValueFact, DisequalityOverflowDropsSoundly)
{
    // More exclusions than the cap: extras are dropped (weaker, never
    // wrong) — the fact stays satisfiable and keeps answering
    // conservatively.
    ValueFact f;
    for (std::int64_t v = 0;
         v < static_cast<std::int64_t>(ValueFact::kMaxDisequalities) + 4;
         ++v)
        ASSERT_TRUE(f.assume(CmpOp::Ne, v));
    EXPECT_LE(f.not_equal.size(), ValueFact::kMaxDisequalities);
    EXPECT_TRUE(f.feasible(CmpOp::Gt, 100));
}

TEST(ValueFact, ExtremeBoundsDoNotOverflow)
{
    ValueFact f;
    ASSERT_TRUE(f.assume(CmpOp::Le, INT64_MIN)); // x == INT64_MIN
    EXPECT_FALSE(f.feasible(CmpOp::Lt, INT64_MIN));
    ValueFact g;
    ASSERT_TRUE(g.assume(CmpOp::Ge, INT64_MAX));
    EXPECT_FALSE(g.feasible(CmpOp::Gt, INT64_MAX));
}

// ---------------------------------------------------------------------
// ConstraintSet: per-path store
// ---------------------------------------------------------------------

TEST(ConstraintSet, TracksSymbolsIndependently)
{
    support::SymbolId x = support::SymbolInterner::global().intern("x");
    support::SymbolId y = support::SymbolInterner::global().intern("y");
    ConstraintSet cs;
    ASSERT_TRUE(cs.assume(x, CmpOp::Eq, 5));
    EXPECT_FALSE(cs.feasible(x, CmpOp::Gt, 10));
    EXPECT_TRUE(cs.feasible(y, CmpOp::Gt, 10)); // y unconstrained
    cs.invalidate(x);
    EXPECT_TRUE(cs.feasible(x, CmpOp::Gt, 10));
    EXPECT_TRUE(cs.empty());
}

TEST(ConstraintSet, DigestIsCanonicalAcrossInsertionOrder)
{
    support::SymbolId x = support::SymbolInterner::global().intern("x");
    support::SymbolId y = support::SymbolInterner::global().intern("y");
    ConstraintSet a, b;
    ASSERT_TRUE(a.assume(x, CmpOp::Eq, 1));
    ASSERT_TRUE(a.assume(y, CmpOp::Gt, 2));
    ASSERT_TRUE(b.assume(y, CmpOp::Gt, 2));
    ASSERT_TRUE(b.assume(x, CmpOp::Eq, 1));
    support::Fnv1a ha, hb;
    a.hashInto(ha);
    b.hashInto(hb);
    EXPECT_EQ(ha.value(), hb.value());
}

// ---------------------------------------------------------------------
// classifyCond
// ---------------------------------------------------------------------

struct Built
{
    lang::Program program;
    cfg::Cfg cfg;
};

std::unique_ptr<Built>
build(const std::string& body, const std::string& prelude = "")
{
    auto b = std::make_unique<Built>();
    b->program.addSource("t.c",
                         prelude + "void f(void) {" + body + "}");
    b->cfg = cfg::CfgBuilder::build(*b->program.findFunction("f"));
    return b;
}

/** The condition of the first branch block in `body`. */
const lang::Expr*
firstCond(const Built& b)
{
    for (const cfg::BasicBlock& bb : b.cfg.blocks())
        if (bb.branch_cond)
            return bb.branch_cond;
    return nullptr;
}

TEST(ClassifyCond, ComparisonAgainstLiteral)
{
    auto b = build("if (x == 5) { a(); }");
    CondAtom atom = classifyCond(*firstCond(*b));
    ASSERT_TRUE(atom.supported);
    EXPECT_EQ(atom.sym, support::SymbolInterner::global().intern("x"));
    EXPECT_EQ(atom.op, CmpOp::Eq);
    EXPECT_EQ(atom.literal, 5);
    EXPECT_FALSE(atom.flip);
}

TEST(ClassifyCond, MirrorsWhenIdentOnRight)
{
    // `5 < x` is `x > 5`.
    auto b = build("if (5 < x) { a(); }");
    CondAtom atom = classifyCond(*firstCond(*b));
    ASSERT_TRUE(atom.supported);
    EXPECT_EQ(atom.op, CmpOp::Gt);
    EXPECT_EQ(atom.literal, 5);
}

TEST(ClassifyCond, BareIdentIsTruthiness)
{
    auto b = build("if (x) { a(); }");
    CondAtom atom = classifyCond(*firstCond(*b));
    ASSERT_TRUE(atom.supported);
    EXPECT_EQ(atom.op, CmpOp::Ne);
    EXPECT_EQ(atom.literal, 0);
    EXPECT_FALSE(atom.flip);
}

TEST(ClassifyCond, NotPrefixFoldsIntoFlip)
{
    auto b = build("if (!!!x) { a(); }");
    CondAtom atom = classifyCond(*firstCond(*b));
    ASSERT_TRUE(atom.supported);
    EXPECT_EQ(atom.op, CmpOp::Ne);
    EXPECT_TRUE(atom.flip);
}

TEST(ClassifyCond, NegativeAndCharLiterals)
{
    auto neg = build("if (x > -3) { a(); }");
    CondAtom a1 = classifyCond(*firstCond(*neg));
    ASSERT_TRUE(a1.supported);
    EXPECT_EQ(a1.literal, -3);

    auto ch = build("if (x == 'A') { a(); }");
    CondAtom a2 = classifyCond(*firstCond(*ch));
    ASSERT_TRUE(a2.supported);
    EXPECT_EQ(a2.literal, 'A');
}

TEST(ClassifyCond, EnumConstantsResolveToTheirValue)
{
    auto b = build("if (x == OP_PUT) { a(); }",
                   "enum Op { OP_GET, OP_PUT = 5, OP_ACK };");
    CondAtom atom = classifyCond(*firstCond(*b));
    ASSERT_TRUE(atom.supported);
    EXPECT_EQ(atom.sym, support::SymbolInterner::global().intern("x"));
    EXPECT_EQ(atom.op, CmpOp::Eq);
    EXPECT_EQ(atom.literal, 5);
}

TEST(ClassifyCond, UnsupportedShapesContributeNothing)
{
    for (const char* cond :
         {"f(x) == 5", "x + 1 == 5", "(x & 7) == 5", "x == y",
          "*p == 5", "x == 5 && y == 2"}) {
        auto b = build(std::string("if (") + cond + ") { a(); }");
        EXPECT_FALSE(classifyCond(*firstCond(*b)).supported)
            << "condition: " << cond;
    }
}

// ---------------------------------------------------------------------
// PathWalker integration
// ---------------------------------------------------------------------

/** Minimal live state (exercises the integral-key fast path too). */
struct NullState
{
    std::uint32_t key() const { return 0; }
    bool dead() const { return false; }
};

struct WalkCounts
{
    typename PathWalker<NullState>::Result result;
    /** (condition text, edge) pairs, in hook order. */
    std::vector<std::pair<std::string, std::size_t>> branches;
    std::vector<std::string> stmts;
};

WalkCounts
walkWith(const Built& b, PruneStrategy strategy)
{
    WalkCounts out;
    typename PathWalker<NullState>::Hooks hooks;
    hooks.on_branch = [&](NullState&, const lang::Expr& cond,
                          std::size_t edge) {
        out.branches.emplace_back(lang::exprToString(cond), edge);
    };
    hooks.on_stmt = [&](NullState&, const lang::Stmt& stmt,
                        std::uint32_t) {
        out.stmts.push_back(lang::stmtToString(stmt));
    };
    typename PathWalker<NullState>::WalkOptions options;
    options.prune_strategy = strategy;
    PathWalker<NullState> walker(std::move(hooks), options);
    out.result = walker.walk(b.cfg, NullState{});
    return out;
}

bool
sawStmt(const WalkCounts& w, const std::string& text)
{
    for (const std::string& s : w.stmts)
        if (s == text)
            return true;
    return false;
}

TEST(FeasibilityWalk, EqualityThenBoundPrunes)
{
    // The motivating shape: x == 5 then x > 10. The conditions never
    // render to the same text, so Correlated keeps both inner edges;
    // Constraints prunes the true edge and a() is never reached.
    auto b = build("if (x == 5) { if (x > 10) { a(); } b(); }");
    WalkCounts corr = walkWith(*b, PruneStrategy::Correlated);
    EXPECT_EQ(corr.result.pruned_edges, 0u);
    EXPECT_TRUE(sawStmt(corr, "a();"));

    WalkCounts cons = walkWith(*b, PruneStrategy::Constraints);
    EXPECT_EQ(cons.result.pruned_edges, 1u);
    EXPECT_FALSE(sawStmt(cons, "a();"));
    EXPECT_TRUE(sawStmt(cons, "b();"));
}

TEST(FeasibilityWalk, IntervalContradictionPrunes)
{
    auto b = build("if (x > 10) { if (x < 5) { a(); } b(); }");
    WalkCounts cons = walkWith(*b, PruneStrategy::Constraints);
    EXPECT_EQ(cons.result.pruned_edges, 1u);
    EXPECT_FALSE(sawStmt(cons, "a();"));
    EXPECT_TRUE(sawStmt(cons, "b();"));
}

TEST(FeasibilityWalk, FalseEdgeAssertsTheNegation)
{
    // else-edge of `x < 3` asserts x >= 3, contradicting x == 0.
    auto b = build("if (x == 0) { if (x < 3) { a(); } else { c(); } }");
    WalkCounts cons = walkWith(*b, PruneStrategy::Constraints);
    EXPECT_EQ(cons.result.pruned_edges, 1u);
    EXPECT_TRUE(sawStmt(cons, "a();"));
    EXPECT_FALSE(sawStmt(cons, "c();"));
}

TEST(FeasibilityWalk, TruthinessContradictsEquality)
{
    auto b = build("if (x == 0) { if (x) { a(); } }");
    WalkCounts cons = walkWith(*b, PruneStrategy::Constraints);
    EXPECT_EQ(cons.result.pruned_edges, 1u);
    EXPECT_FALSE(sawStmt(cons, "a();"));
}

TEST(FeasibilityWalk, AssignmentInvalidatesConstraints)
{
    // x is reassigned between the tests: nothing may be pruned.
    auto b = build("if (x == 5) { x = g(); if (x > 10) { a(); } }");
    WalkCounts cons = walkWith(*b, PruneStrategy::Constraints);
    EXPECT_EQ(cons.result.pruned_edges, 0u);
    EXPECT_TRUE(sawStmt(cons, "a();"));
}

TEST(FeasibilityWalk, AddressTakenInvalidatesConstraints)
{
    // g(&x) may write x through the pointer: nothing may be pruned.
    auto b = build("if (x == 5) { g(&x); if (x > 10) { a(); } }");
    WalkCounts cons = walkWith(*b, PruneStrategy::Constraints);
    EXPECT_EQ(cons.result.pruned_edges, 0u);
    EXPECT_TRUE(sawStmt(cons, "a();"));
}

TEST(FeasibilityWalk, CallConditionsNeverConstrain)
{
    // f(x)'s value can change between tests; neither strategy prunes.
    auto b = build("if (f(x) == 5) { if (f(x) > 10) { a(); } }");
    for (PruneStrategy s :
         {PruneStrategy::Correlated, PruneStrategy::Constraints}) {
        WalkCounts w = walkWith(*b, s);
        EXPECT_EQ(w.result.pruned_edges, 0u);
        EXPECT_TRUE(sawStmt(w, "a();"));
    }
}

TEST(FeasibilityWalk, ConstraintsSubsumeCorrelated)
{
    // A textually repeated condition prunes under both strategies.
    auto b = build("if (c) { a(); } else { b(); }"
                   "if (c) { d(); } else { e(); }");
    EXPECT_EQ(walkWith(*b, PruneStrategy::Correlated).result.pruned_edges,
              2u);
    EXPECT_EQ(
        walkWith(*b, PruneStrategy::Constraints).result.pruned_edges, 2u);
}

// ---------------------------------------------------------------------
// Satellite 1 regression: pruned edges never fire on_branch
// ---------------------------------------------------------------------

TEST(FeasibilityWalk, PrunedEdgesNeverFireOnBranch)
{
    // Two correlated branches: the second branch is visited once per
    // recorded outcome and only its feasible edge may invoke on_branch.
    // Before the fix the hook fired (and the client state transitioned)
    // on the contradictory edge too, then the fork was discarded.
    auto b = build("if (c) { a(); } else { b(); }"
                   "if (c) { d(); } else { e(); }");
    WalkCounts w = walkWith(*b, PruneStrategy::Correlated);
    EXPECT_EQ(w.result.pruned_edges, 2u);
    // Branch 1 fires both edges; branch 2 is reached twice (the two arm
    // states converge only after it) and fires exactly one edge each:
    // 2 + 2 = 4. The broken ordering produced 6.
    std::size_t c_edges = 0;
    for (const auto& [text, edge] : w.branches)
        if (text == "c")
            ++c_edges;
    EXPECT_EQ(c_edges, 4u);
    // The hook-observed edge count plus pruned edges must equal every
    // two-way branch visit's full fan-out.
    EXPECT_EQ(c_edges + w.result.pruned_edges, 6u);
}

TEST(FeasibilityWalk, OffStrategyFiresEveryEdge)
{
    // Without pruning there are no path facts, so the two arms converge
    // at the second branch (same client state): 2 branch visits, both
    // edges fired each = 4 hook calls, nothing pruned.
    auto b = build("if (c) { a(); } else { b(); }"
                   "if (c) { d(); } else { e(); }");
    WalkCounts w = walkWith(*b, PruneStrategy::Off);
    EXPECT_EQ(w.result.pruned_edges, 0u);
    EXPECT_EQ(w.branches.size(), 4u);
}

// ---------------------------------------------------------------------
// Satellite 2: n-ary branches are skipped loudly
// ---------------------------------------------------------------------

TEST(FeasibilityWalk, SwitchFanOutCountsNarySkips)
{
    // A switch fans out >2 ways; pruning cannot classify its edges and
    // must say so instead of silently doing nothing.
    auto b = build("switch (op) { case 1: a(); break; "
                   "case 2: bb(); break; default: c(); } z();");
    WalkCounts off = walkWith(*b, PruneStrategy::Off);
    EXPECT_EQ(off.result.prune_skipped_nary, 0u);
    for (PruneStrategy s :
         {PruneStrategy::Correlated, PruneStrategy::Constraints}) {
        WalkCounts w = walkWith(*b, s);
        EXPECT_EQ(w.result.pruned_edges, 0u);
        EXPECT_GE(w.result.prune_skipped_nary, 1u);
        // Every arm still walked.
        EXPECT_TRUE(sawStmt(w, "a();"));
        EXPECT_TRUE(sawStmt(w, "bb();"));
        EXPECT_TRUE(sawStmt(w, "c();"));
    }
}

TEST(FeasibilityWalk, SwitchArmsStillPruneLaterTwoWayBranches)
{
    // The n-ary skip is per-block, not per-walk: two-way branches after
    // the switch still prune.
    auto b = build("switch (op) { case 1: a(); break; "
                   "case 2: bb(); break; default: c(); }"
                   "if (x == 5) { if (x > 10) { d(); } }");
    WalkCounts w = walkWith(*b, PruneStrategy::Constraints);
    EXPECT_GE(w.result.prune_skipped_nary, 1u);
    EXPECT_GE(w.result.pruned_edges, 1u);
    EXPECT_FALSE(sawStmt(w, "d();"));
}

// ---------------------------------------------------------------------
// Decision cache
// ---------------------------------------------------------------------

/** State whose key distinguishes which arm of the first branch ran. */
struct MarkState
{
    std::uint32_t marker = 0;
    std::uint32_t key() const { return marker; }
    bool dead() const { return false; }
};

TEST(FeasibilityWalk, RepeatedDecisionsHitThePruneCache)
{
    // The first branch's condition is a call — impure, so it leaves no
    // path facts — but the client state diverges across its arms, so
    // the later branches are each visited twice with *identical* facts.
    // The second arrival's feasibility questions answer from the
    // (block, edge, digest) decision cache.
    auto b = build("if (g()) { a(); } else { b(); }"
                   "if (x == 5) { if (x > 10) { d(); } }");
    typename PathWalker<MarkState>::Hooks hooks;
    std::vector<std::string> stmts;
    hooks.on_stmt = [&](MarkState& st, const lang::Stmt& stmt,
                        std::uint32_t) {
        const std::string text = lang::stmtToString(stmt);
        if (text == "a();")
            st.marker = 1;
        else if (text == "b();")
            st.marker = 2;
        stmts.push_back(text);
    };
    typename PathWalker<MarkState>::WalkOptions options;
    options.prune_strategy = PruneStrategy::Constraints;
    PathWalker<MarkState> walker(std::move(hooks), options);
    auto result = walker.walk(b->cfg, MarkState{});
    // Both arms prune the inner `x > 10` true edge; the second arm's
    // verdicts come from the cache.
    EXPECT_EQ(result.pruned_edges, 2u);
    EXPECT_GE(result.prune_cache_hits, 2u);
    for (const std::string& s : stmts)
        EXPECT_NE(s, "d();");
}

} // namespace
} // namespace mc::metal
