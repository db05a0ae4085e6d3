#include "match/pattern.h"
#include "lang/program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace mc::match {
namespace {

using lang::Program;

struct Fixture
{
    PatternContext pc;
    Program program;

    const lang::Stmt*
    stmt(const std::string& body, std::size_t index = 0)
    {
        static int n = 0;
        program.addSource("t" + std::to_string(++n) + ".c",
                          "void f(void) {" + body + "}");
        return program.functions().back()->body->stmts[index];
    }
};

std::vector<WildcardDecl>
scalars(std::initializer_list<const char*> names)
{
    std::vector<WildcardDecl> out;
    for (const char* name : names)
        out.push_back(WildcardDecl{name, WildcardKind::Scalar});
    return out;
}

TEST(Pattern, ExactCallMatch)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ WAIT_FOR_DB_FULL(addr); }",
                                 scalars({"addr"}));
    auto m = p.matchStmt(*f.stmt("WAIT_FOR_DB_FULL(hdr_addr);"));
    ASSERT_TRUE(m.has_value());
    const lang::Expr* bound = m->lookup("addr");
    ASSERT_NE(bound, nullptr);
    EXPECT_EQ(lang::exprToString(*bound), "hdr_addr");
}

TEST(Pattern, WildcardBindsComplexExpression)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ MISCBUS_READ_DB(addr, buf); }",
                                 scalars({"addr", "buf"}));
    auto m = p.matchStmt(
        *f.stmt("MISCBUS_READ_DB(base + 8 * i, bufs[i]);"));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(lang::exprToString(*m->lookup("addr")), "(base + (8 * i))");
    EXPECT_EQ(lang::exprToString(*m->lookup("buf")), "bufs[i]");
}

TEST(Pattern, DifferentCalleeDoesNotMatch)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ WAIT_FOR_DB_FULL(addr); }",
                                 scalars({"addr"}));
    EXPECT_FALSE(p.matchStmt(*f.stmt("OTHER_MACRO(x);")).has_value());
}

TEST(Pattern, ArityMustAgree)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ M(a, b); }", scalars({"a", "b"}));
    EXPECT_FALSE(p.matchStmt(*f.stmt("M(x);")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("M(x, y, z);")).has_value());
}

TEST(Pattern, AssignmentTemplateFromFigure3)
{
    Fixture f;
    Pattern p = Pattern::compile(
        f.pc, "{ HANDLER_GLOBALS(header.nh.len) = LEN_NODATA }", {});
    EXPECT_TRUE(
        p.matchStmt(*f.stmt("HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;"))
            .has_value());
    EXPECT_FALSE(
        p.matchStmt(*f.stmt("HANDLER_GLOBALS(header.nh.len) = LEN_WORD;"))
            .has_value());
}

TEST(Pattern, ConsistentBindingRequired)
{
    Fixture f;
    // Same wildcard twice: both occurrences must match equal expressions.
    Pattern p = Pattern::compile(f.pc, "{ M(v, v); }", scalars({"v"}));
    EXPECT_TRUE(p.matchStmt(*f.stmt("M(x, x);")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("M(x, y);")).has_value());
}

TEST(Pattern, ScalarRejectsFloatAndString)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ M(v); }", scalars({"v"}));
    EXPECT_TRUE(p.matchStmt(*f.stmt("M(3);")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("M(1.5);")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("M(\"s\");")).has_value());
}

TEST(Pattern, IdentKindRequiresIdentifier)
{
    Fixture f;
    Pattern p = Pattern::compile(
        f.pc, "{ M(v); }", {WildcardDecl{"v", WildcardKind::Ident}});
    EXPECT_TRUE(p.matchStmt(*f.stmt("M(name);")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("M(a + b);")).has_value());
}

TEST(Pattern, ConstantKind)
{
    Fixture f;
    Pattern p = Pattern::compile(
        f.pc, "{ M(v); }", {WildcardDecl{"v", WildcardKind::Constant}});
    EXPECT_TRUE(p.matchStmt(*f.stmt("M(7);")).has_value());
    EXPECT_TRUE(p.matchStmt(*f.stmt("M(LEN_WORD);")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("M(x + 1);")).has_value());
}

TEST(Pattern, AnyExprMatchesEverything)
{
    Fixture f;
    Pattern p = Pattern::compile(
        f.pc, "{ M(v); }", {WildcardDecl{"v", WildcardKind::AnyExpr}});
    EXPECT_TRUE(p.matchStmt(*f.stmt("M(1.5);")).has_value());
    EXPECT_TRUE(p.matchStmt(*f.stmt("M(f(g(x)));")).has_value());
}

TEST(Pattern, AlternativesViaAddAlternatives)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ PI_SEND(F_DATA, k); }",
                                 scalars({"k"}));
    p.addAlternatives(Pattern::compile(f.pc, "{ IO_SEND(F_DATA, k); }",
                                       scalars({"k"})));
    EXPECT_EQ(p.alternativeCount(), 2u);
    EXPECT_TRUE(p.matchStmt(*f.stmt("PI_SEND(F_DATA, x);")).has_value());
    EXPECT_TRUE(p.matchStmt(*f.stmt("IO_SEND(F_DATA, y);")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("NI_SEND(F_DATA, y);")).has_value());
}

TEST(Pattern, MatchInStmtFindsNestedCall)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ ALLOCATE_DB(); }", {});
    // The allocation is buried in a condition.
    EXPECT_TRUE(
        p.matchInStmt(*f.stmt("if (ALLOCATE_DB()) { x = 1; }"))
            .has_value());
    // And inside an assignment RHS.
    EXPECT_TRUE(
        p.matchInStmt(*f.stmt("buf = ALLOCATE_DB();")).has_value());
}

TEST(Pattern, MatchInStmtFindsInReturnValue)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ g(x); }",
                                 scalars({"x"}));
    EXPECT_TRUE(p.matchInStmt(*f.stmt("return g(42);")).has_value());
}

TEST(Pattern, ReturnTemplateMatchesOnlyReturn)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ return; }", {});
    EXPECT_TRUE(p.matchStmt(*f.stmt("return;")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("x = 1;")).has_value());
}

TEST(Pattern, MemberChainsMatchStructurally)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ h.nh.len = v }", scalars({"v"}));
    EXPECT_TRUE(p.matchStmt(*f.stmt("h.nh.len = 4;")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("h.nh.op = 4;")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("g.nh.len = 4;")).has_value());
}

TEST(Pattern, MissingBracesRejected)
{
    Fixture f;
    EXPECT_THROW(Pattern::compile(f.pc, "WAIT(x);", {}), lang::ParseError);
}

TEST(Pattern, MultipleStatementsRejected)
{
    Fixture f;
    EXPECT_THROW(Pattern::compile(f.pc, "{ a(); b(); }", {}),
                 lang::ParseError);
}

/** Names as couldMatchIds expects them: interned, sorted, unique. */
std::vector<support::SymbolId>
ids(const std::set<std::string>& names)
{
    std::vector<support::SymbolId> out;
    for (const std::string& name : names)
        out.push_back(support::SymbolInterner::global().intern(name));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

TEST(Pattern, PrefilterRequiresTheMacroIdentifier)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ WAIT_FOR_DB_FULL(addr); }",
                                 scalars({"addr"}));
    EXPECT_TRUE(p.couldMatchIds(ids({"WAIT_FOR_DB_FULL", "x"})));
    EXPECT_FALSE(p.couldMatchIds(ids({"OTHER", "x"})));
}

TEST(Pattern, PrefilterAnyAlternativeSuffices)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ PI_SEND(F_DATA, k); }",
                                 scalars({"k"}));
    p.addAlternatives(Pattern::compile(f.pc, "{ IO_SEND(F_DATA, k); }",
                                       scalars({"k"})));
    EXPECT_TRUE(p.couldMatchIds(ids({"IO_SEND"})));
    EXPECT_TRUE(p.couldMatchIds(ids({"PI_SEND"})));
    EXPECT_FALSE(p.couldMatchIds(ids({"NI_SEND"})));
}

TEST(Pattern, PrefilterNeverRejectsAMatchingStatement)
{
    // Soundness: for a spread of pattern/statement pairs, whenever the
    // full matcher succeeds the prefilter must have said yes.
    Fixture f;
    const char* patterns[] = {
        "{ WAIT_FOR_DB_FULL(v); }",
        "{ h.nh.len = v }",
        "{ M(v, v); }",
        "{ return; }",
    };
    const char* stmts[] = {
        "WAIT_FOR_DB_FULL(a);", "h.nh.len = 3;", "M(q, q);",
        "x = WAIT_FOR_DB_FULL(a) + 1;", "unrelated();",
    };
    for (const char* pattern_text : patterns) {
        Pattern p = Pattern::compile(f.pc, pattern_text, scalars({"v"}));
        for (const char* stmt_text : stmts) {
            const lang::Stmt* stmt = f.stmt(stmt_text);
            std::set<std::string> idents;
            Pattern::collectIdents(*stmt, idents);
            if (p.matchInStmt(*stmt).has_value()) {
                EXPECT_TRUE(p.couldMatchIds(ids(idents)))
                    << pattern_text << " vs " << stmt_text;
            }
        }
    }
}

TEST(Pattern, PrefilterPureWildcardPatternAlwaysCandidate)
{
    Fixture f;
    Pattern p = Pattern::compile(
        f.pc, "{ v }", {WildcardDecl{"v", WildcardKind::AnyExpr}});
    EXPECT_TRUE(p.couldMatchIds(ids({})));
}

TEST(Pattern, UnaryAndBinaryOperatorsMustAgree)
{
    Fixture f;
    Pattern p = Pattern::compile(f.pc, "{ x = a + b }",
                                 scalars({"a", "b"}));
    EXPECT_TRUE(p.matchStmt(*f.stmt("x = p + q;")).has_value());
    EXPECT_FALSE(p.matchStmt(*f.stmt("x = p - q;")).has_value());
}

} // namespace
} // namespace mc::match
