#include "lang/parser.h"
#include "lang/program.h"

#include <gtest/gtest.h>

namespace mc::lang {
namespace {

/** Parse helper returning the program (asserts at least one function). */
struct Parsed
{
    AstContext ctx;
    support::SourceManager sm;
    TranslationUnit tu;
};

std::unique_ptr<Parsed>
parse(const std::string& source)
{
    auto p = std::make_unique<Parsed>();
    p->tu = parseSource(p->ctx, p->sm, "test.c", source);
    return p;
}

const FunctionDecl&
firstFunction(const Parsed& p)
{
    auto fns = p.tu.functionDefinitions();
    EXPECT_FALSE(fns.empty());
    return *fns.front();
}

/** Parse `expr` in a statement context and render it back. */
std::string
roundtripExpr(const std::string& expr)
{
    auto p = parse("void f(void) { x = " + expr + "; }");
    const FunctionDecl& fn = firstFunction(*p);
    const Stmt* stmt = fn.body->stmts.front();
    const auto& assign = static_cast<const BinaryExpr&>(
        *static_cast<const ExprStmt*>(stmt)->expr);
    return exprToString(*assign.rhs);
}

TEST(Parser, EmptyFunction)
{
    auto p = parse("void Handler(void) { }");
    const FunctionDecl& fn = firstFunction(*p);
    EXPECT_EQ(fn.name, "Handler");
    EXPECT_TRUE(fn.params.empty());
    EXPECT_EQ(p->ctx.types().type(fn.return_type).kind, TypeKind::Void);
}

TEST(Parser, Parameters)
{
    auto p = parse("int add(int a, unsigned long b, char *s) { return a; }");
    const FunctionDecl& fn = firstFunction(*p);
    ASSERT_EQ(fn.params.size(), 3u);
    EXPECT_EQ(fn.params[0]->name, "a");
    EXPECT_EQ(p->ctx.types().type(fn.params[1]->type).kind, TypeKind::ULong);
    EXPECT_EQ(p->ctx.types().type(fn.params[2]->type).kind,
              TypeKind::Pointer);
}

TEST(Parser, PrototypeHasNoBody)
{
    auto p = parse("int helper(int x);");
    ASSERT_EQ(p->tu.decls.size(), 1u);
    const auto* fn = static_cast<const FunctionDecl*>(p->tu.decls[0]);
    EXPECT_FALSE(fn->isDefinition());
}

TEST(Parser, PrecedenceMulOverAdd)
{
    EXPECT_EQ(roundtripExpr("a + b * c"), "(a + (b * c))");
    EXPECT_EQ(roundtripExpr("(a + b) * c"), "((a + b) * c)");
}

TEST(Parser, PrecedenceLogicalChain)
{
    EXPECT_EQ(roundtripExpr("a && b || c && d"),
              "((a && b) || (c && d))");
}

TEST(Parser, PrecedenceShiftRelational)
{
    EXPECT_EQ(roundtripExpr("a << 2 < b"), "((a << 2) < b)");
}

TEST(Parser, PrecedenceBitwiseVsEquality)
{
    // C classic: == binds tighter than &.
    EXPECT_EQ(roundtripExpr("a & b == c"), "(a & (b == c))");
}

TEST(Parser, AssignmentRightAssociative)
{
    auto p = parse("void f(void) { a = b = c; }");
    const FunctionDecl& fn = firstFunction(*p);
    const auto* stmt = static_cast<const ExprStmt*>(fn.body->stmts[0]);
    EXPECT_EQ(exprToString(*stmt->expr), "(a = (b = c))");
}

TEST(Parser, TernaryExpression)
{
    EXPECT_EQ(roundtripExpr("a ? b : c"), "(a ? b : c)");
}

TEST(Parser, UnaryAndPostfix)
{
    EXPECT_EQ(roundtripExpr("-*p"), "-(*p)");
    EXPECT_EQ(roundtripExpr("!done"), "!done");
    EXPECT_EQ(roundtripExpr("i++"), "i++");
    EXPECT_EQ(roundtripExpr("--i"), "--i");
    EXPECT_EQ(roundtripExpr("&buf"), "&buf");
}

TEST(Parser, CallMemberIndexChains)
{
    EXPECT_EQ(roundtripExpr("f(a, b)"), "f(a, b)");
    EXPECT_EQ(roundtripExpr("h.nh.len"), "h.nh.len");
    EXPECT_EQ(roundtripExpr("p->next->val"), "p->next->val");
    EXPECT_EQ(roundtripExpr("arr[i][j]"), "arr[i][j]");
    EXPECT_EQ(roundtripExpr("HANDLER_GLOBALS(header).len"),
              "HANDLER_GLOBALS(header).len");
}

TEST(Parser, MacroStyleCallAsLvalue)
{
    // The FLASH idiom from Figure 3 of the paper.
    auto p = parse(
        "void f(void) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; }");
    const FunctionDecl& fn = firstFunction(*p);
    const auto* stmt = static_cast<const ExprStmt*>(fn.body->stmts[0]);
    EXPECT_EQ(exprToString(*stmt->expr),
              "(HANDLER_GLOBALS(header.nh.len) = LEN_NODATA)");
}

TEST(Parser, IfElseChain)
{
    auto p = parse("void f(void) { if (a) x = 1; else if (b) x = 2; "
                   "else x = 3; }");
    const FunctionDecl& fn = firstFunction(*p);
    const auto* outer = static_cast<const IfStmt*>(fn.body->stmts[0]);
    ASSERT_NE(outer->else_branch, nullptr);
    EXPECT_EQ(outer->else_branch->skind, StmtKind::If);
}

TEST(Parser, Loops)
{
    auto p = parse("void f(void) {"
                   "  while (i < 10) i++;"
                   "  do { j--; } while (j);"
                   "  for (i = 0; i < n; i++) total += i;"
                   "  for (;;) break;"
                   "}");
    const FunctionDecl& fn = firstFunction(*p);
    ASSERT_EQ(fn.body->stmts.size(), 4u);
    EXPECT_EQ(fn.body->stmts[0]->skind, StmtKind::While);
    EXPECT_EQ(fn.body->stmts[1]->skind, StmtKind::DoWhile);
    EXPECT_EQ(fn.body->stmts[2]->skind, StmtKind::For);
    const auto* forever = static_cast<const ForStmt*>(fn.body->stmts[3]);
    EXPECT_EQ(forever->init, nullptr);
    EXPECT_EQ(forever->cond, nullptr);
    EXPECT_EQ(forever->step, nullptr);
}

TEST(Parser, SwitchWithCasesAndDefault)
{
    auto p = parse("void f(void) { switch (op) {"
                   "  case 1: a(); break;"
                   "  case 2: b();"
                   "  default: c(); break;"
                   "} }");
    const FunctionDecl& fn = firstFunction(*p);
    const auto* sw = static_cast<const SwitchStmt*>(fn.body->stmts[0]);
    const auto* body = static_cast<const CompoundStmt*>(sw->body);
    EXPECT_EQ(body->stmts[0]->skind, StmtKind::Case);
    EXPECT_EQ(body->stmts[3]->skind, StmtKind::Case);
    EXPECT_EQ(body->stmts[5]->skind, StmtKind::Default);
}

TEST(Parser, GotoAndLabels)
{
    auto p = parse("void f(void) { goto out; x = 1; out: y = 2; }");
    const FunctionDecl& fn = firstFunction(*p);
    EXPECT_EQ(fn.body->stmts[0]->skind, StmtKind::Goto);
    EXPECT_EQ(fn.body->stmts[2]->skind, StmtKind::Label);
}

TEST(Parser, LocalDeclsWithInitializers)
{
    auto p = parse("void f(void) { int i = 0, j; unsigned k = i + 1; }");
    const FunctionDecl& fn = firstFunction(*p);
    const auto* d0 = static_cast<const DeclStmt*>(fn.body->stmts[0]);
    ASSERT_EQ(d0->decls.size(), 2u);
    EXPECT_NE(d0->decls[0]->init, nullptr);
    EXPECT_EQ(d0->decls[1]->init, nullptr);
}

TEST(Parser, TypedefUsableAsType)
{
    auto p = parse("typedef unsigned long uint64;\n"
                   "void f(void) { uint64 x = 5; }");
    const FunctionDecl& fn = firstFunction(*p);
    const auto* decl = static_cast<const DeclStmt*>(fn.body->stmts[0]);
    EXPECT_EQ(p->ctx.types().type(decl->decls[0]->type).kind,
              TypeKind::ULong);
}

TEST(Parser, StructDefinitionAndSize)
{
    auto p = parse("struct Header { int len; int op; };\n"
                   "struct Big { long a; long b; };\n");
    TypeId header = p->ctx.types().named(TypeKind::Struct, "Header");
    TypeId big = p->ctx.types().named(TypeKind::Struct, "Big");
    EXPECT_EQ(p->ctx.types().sizeInBits(header), 64);
    EXPECT_EQ(p->ctx.types().sizeInBits(big), 128);
}

/** Interning keys on (kind, base, count, name), and ids are handed out
 *  in first-use order, builtins included. */
TEST(TypeTable, IdsFollowFirstUseOrder)
{
    TypeTable types;
    TypeId i = types.builtin(TypeKind::Int);
    TypeId pi = types.pointerTo(i);
    TypeId arr = types.arrayOf(pi, 4);
    TypeId s = types.named(TypeKind::Struct, "S");
    TypeId u = types.named(TypeKind::Union, "S");
    TypeId c = types.builtin(TypeKind::Char);
    EXPECT_EQ(std::vector<TypeId>({i, pi, arr, s, u, c}),
              std::vector<TypeId>({0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(types.builtin(TypeKind::Int), i);
    EXPECT_EQ(types.pointerTo(i), pi);
    EXPECT_EQ(types.arrayOf(pi, 4), arr);
    EXPECT_NE(types.arrayOf(pi, 5), arr);
    EXPECT_EQ(types.named(TypeKind::Struct,
                          support::SymbolInterner::global().intern("S")),
              s);
    EXPECT_EQ(types.describe(arr), "int *[4]");
    EXPECT_EQ(types.describe(u), "union S");
}

TEST(Parser, EnumConstantsSequence)
{
    auto p = parse("enum Op { OP_GET, OP_PUT = 5, OP_ACK };");
    const auto* e = static_cast<const EnumDecl*>(p->tu.decls[0]);
    ASSERT_EQ(e->constants.size(), 3u);
    EXPECT_EQ(e->constants[0]->value, 0);
    EXPECT_EQ(e->constants[1]->value, 5);
    EXPECT_EQ(e->constants[2]->value, 6);
}

TEST(Parser, CastExpression)
{
    EXPECT_EQ(roundtripExpr("(int)x"), "(cast)x");
    EXPECT_EQ(roundtripExpr("(char *)p"), "(cast)p");
}

TEST(Parser, SizeofBothForms)
{
    EXPECT_EQ(roundtripExpr("sizeof(int)"), "sizeof(type)");
    EXPECT_EQ(roundtripExpr("sizeof x"), "sizeof(x)");
}

TEST(Parser, CommaOperatorInExprStatement)
{
    auto p = parse("void f(void) { a = 1, b = 2; }");
    const FunctionDecl& fn = firstFunction(*p);
    const auto* stmt = static_cast<const ExprStmt*>(fn.body->stmts[0]);
    const auto& comma = static_cast<const BinaryExpr&>(*stmt->expr);
    EXPECT_EQ(comma.op, BinaryOp::Comma);
}

TEST(Parser, GlobalVariableWithArray)
{
    auto p = parse("int table[16];\nstatic int counter = 0;");
    ASSERT_EQ(p->tu.decls.size(), 2u);
    const auto* arr = static_cast<const VarDecl*>(p->tu.decls[0]);
    EXPECT_EQ(p->ctx.types().type(arr->type).kind, TypeKind::Array);
    EXPECT_EQ(p->ctx.types().type(arr->type).array_size, 16);
}

TEST(Parser, ErrorMissingSemicolon)
{
    EXPECT_THROW(parse("void f(void) { x = 1 }"), ParseError);
}

TEST(Parser, ErrorUnbalancedBrace)
{
    EXPECT_THROW(parse("void f(void) { if (a) { }"), ParseError);
}

TEST(Parser, ErrorBadExpression)
{
    EXPECT_THROW(parse("void f(void) { x = * ; }"), ParseError);
}

TEST(Parser, ProgramIndexesFunctions)
{
    Program program;
    program.addSource("a.c", "void A(void) { }");
    program.addSource("b.c", "void B(void) { A(); }");
    EXPECT_EQ(program.functions().size(), 2u);
    EXPECT_NE(program.findFunction("A"), nullptr);
    EXPECT_NE(program.findFunction("B"), nullptr);
    EXPECT_EQ(program.findFunction("C"), nullptr);
}

TEST(Parser, ProgramSharesTypedefsAcrossUnits)
{
    Program program;
    program.addSource("types.h.c", "typedef unsigned int u32;");
    // Must not throw: u32 is known from the previous unit.
    program.addSource("use.c", "void f(void) { u32 x = 1; }");
    EXPECT_NE(program.findFunction("f"), nullptr);
}

} // namespace
} // namespace mc::lang
