#include "lang/parser.h"
#include "lang/program.h"

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "support/hash.h"

#include <gtest/gtest.h>

#include <bit>

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


/** The expression statement of `f`'s body, rendered. */
std::string
statementExpr(const std::string& stmt)
{
    auto p = parse("typedef int T;\nvoid f(void) { " + stmt + " }");
    const FunctionDecl& fn = firstFunction(*p);
    return exprToString(
        *static_cast<const ExprStmt*>(fn.body->stmts[0])->expr);
}

/**
 * The shapes the precedence-climbing loop must keep: left-associative
 * binary operators, right-associative assignment and '?:', a whole
 * comma expression between '?' and ':' but only an assignment after
 * it, and a cast that applies to a following unary minus.
 */
TEST(Parser, OperatorAssociativityAndShapes)
{
    EXPECT_EQ(statementExpr("a = b = c;"), "(a = (b = c))");
    EXPECT_EQ(statementExpr("a -= b += c;"), "(a -= (b += c))");
    EXPECT_EQ(statementExpr("a - b - c;"), "((a - b) - c)");
    EXPECT_EQ(statementExpr("a / b % c * d;"), "(((a / b) % c) * d)");
    EXPECT_EQ(statementExpr("a < b == c < d;"), "((a < b) == (c < d))");
    EXPECT_EQ(statementExpr("a | b ^ c & d;"), "(a | (b ^ (c & d)))");
    EXPECT_EQ(statementExpr("a || b && c || d;"),
              "((a || (b && c)) || d)");
    EXPECT_EQ(statementExpr("c ? x, y : z = w;"),
              "(c ? (x , y) : (z = w))");
    EXPECT_EQ(statementExpr("a ? b : c ? d : e;"), "(a ? b : (c ? d : e))");
    EXPECT_EQ(statementExpr("a = b ? c : d, e;"),
              "((a = (b ? c : d)) , e)");
    EXPECT_EQ(statementExpr("a || b = c;"), "((a || b) = c)");
    EXPECT_EQ(statementExpr("x = (int)-y;"), "(x = (cast)-y)");
    EXPECT_EQ(statementExpr("x = (T)-y;"), "(x = (cast)-y)");
    EXPECT_EQ(statementExpr("x = (a)-y;"), "(x = (a - y))");
    EXPECT_EQ(statementExpr("x = -(int)y - z;"), "(x = (-(cast)y - z))");
}

/** A case label takes a conditional expression but no assignment. */
TEST(Parser, CaseValueIsAConditionalExpression)
{
    auto p = parse("void f(void) { switch (x) { case a ? 1 : 2: break; } }");
    const FunctionDecl& fn = firstFunction(*p);
    const auto* sw = static_cast<const SwitchStmt*>(fn.body->stmts[0]);
    const auto* body = static_cast<const CompoundStmt*>(sw->body);
    const auto* label = static_cast<const CaseStmt*>(body->stmts[0]);
    EXPECT_EQ(exprToString(*label->value), "(a ? 1 : 2)");
    EXPECT_THROW(parse("void f(void) { switch (x) { case a = 1: break; } }"),
                 ParseError);
    EXPECT_THROW(parse("void f(void) { x = a ? b; }"), ParseError);
}

/**
 * Folds a parse tree into a digest: every statement's kind with an
 * explicit close marker (so nesting is part of the digest), every
 * expression's kind and operator, literal values and spellings, member
 * names with their arrow flag, cast and sizeof types, child-list
 * lengths, declaration names, types and flags. Locations, resolutions
 * and Sema's types are left to Sema.CorpusResolutionDigestIsPinned.
 */
class AstDigest
{
  public:
    explicit AstDigest(const TypeTable& types) : types_(types) {}

    void
    unit(const TranslationUnit& tu)
    {
        h_.u64(tu.decls.size());
        for (const Decl* d : tu.decls)
            decl(*d);
    }

    std::uint64_t value() const { return h_.value(); }
    std::size_t nodes() const { return nodes_; }

  private:
    void type(TypeId id) { h_.str(types_.describe(id)); }

    void
    decl(const Decl& d)
    {
        ++nodes_;
        h_.u8(static_cast<std::uint8_t>(d.dkind)).str(d.name);
        switch (d.dkind) {
          case DeclKind::Var: {
            const auto& v = static_cast<const VarDecl&>(d);
            type(v.type);
            h_.u8(v.is_static).u8(v.is_extern).u8(v.init != nullptr);
            if (v.init)
                expr(v.init);
            break;
          }
          case DeclKind::Param:
            type(static_cast<const ParamDecl&>(d).type);
            break;
          case DeclKind::Function: {
            const auto& fn = static_cast<const FunctionDecl&>(d);
            type(fn.return_type);
            h_.u8(fn.is_static).u8(fn.is_inline).u64(fn.params.size());
            for (const ParamDecl* p : fn.params)
                decl(*p);
            h_.u8(fn.body != nullptr);
            if (fn.body)
                stmt(fn.body);
            break;
          }
          case DeclKind::Record: {
            const auto& r = static_cast<const RecordDecl&>(d);
            type(r.type);
            h_.u8(r.is_union).u64(r.fields.size());
            for (const VarDecl* f : r.fields)
                decl(*f);
            break;
          }
          case DeclKind::Typedef:
            type(static_cast<const TypedefDecl&>(d).type);
            break;
          case DeclKind::Enum: {
            const auto& e = static_cast<const EnumDecl&>(d);
            type(e.type);
            h_.u64(e.constants.size());
            for (const EnumConstDecl* c : e.constants)
                decl(*c);
            break;
          }
          case DeclKind::EnumConst:
            h_.i64(static_cast<const EnumConstDecl&>(d).value);
            break;
          case DeclKind::Poisoned:
            h_.str(static_cast<const PoisonedDecl&>(d).message);
            break;
        }
    }

    /** A possibly-null child statement or expression. */
    void
    optStmt(const Stmt* s)
    {
        h_.u8(s != nullptr);
        if (s)
            stmt(s);
    }

    void
    optExpr(const Expr* e)
    {
        h_.u8(e != nullptr);
        if (e)
            expr(e);
    }

    void
    stmt(const Stmt* s)
    {
        ++nodes_;
        h_.u8(static_cast<std::uint8_t>(s->skind));
        switch (s->skind) {
          case StmtKind::Expr:
            optExpr(static_cast<const ExprStmt*>(s)->expr);
            break;
          case StmtKind::Decl: {
            const auto* d = static_cast<const DeclStmt*>(s);
            h_.u64(d->decls.size());
            for (const VarDecl* v : d->decls)
                decl(*v);
            break;
          }
          case StmtKind::Compound: {
            const auto* c = static_cast<const CompoundStmt*>(s);
            h_.u64(c->stmts.size());
            for (const Stmt* child : c->stmts)
                stmt(child);
            break;
          }
          case StmtKind::If: {
            const auto* i = static_cast<const IfStmt*>(s);
            optExpr(i->cond);
            optStmt(i->then_branch);
            optStmt(i->else_branch);
            break;
          }
          case StmtKind::While: {
            const auto* w = static_cast<const WhileStmt*>(s);
            optExpr(w->cond);
            optStmt(w->body);
            break;
          }
          case StmtKind::DoWhile: {
            const auto* w = static_cast<const DoWhileStmt*>(s);
            optStmt(w->body);
            optExpr(w->cond);
            break;
          }
          case StmtKind::For: {
            const auto* f = static_cast<const ForStmt*>(s);
            optStmt(f->init);
            optExpr(f->cond);
            optExpr(f->step);
            optStmt(f->body);
            break;
          }
          case StmtKind::Switch: {
            const auto* w = static_cast<const SwitchStmt*>(s);
            optExpr(w->cond);
            optStmt(w->body);
            break;
          }
          case StmtKind::Case:
            optExpr(static_cast<const CaseStmt*>(s)->value);
            break;
          case StmtKind::Return:
            optExpr(static_cast<const ReturnStmt*>(s)->value);
            break;
          case StmtKind::Goto:
            h_.str(static_cast<const GotoStmt*>(s)->label);
            break;
          case StmtKind::Label:
            h_.str(static_cast<const LabelStmt*>(s)->name);
            break;
          case StmtKind::Default:
          case StmtKind::Break:
          case StmtKind::Continue:
          case StmtKind::Empty:
            break;
        }
        h_.u8(0xEE); // close: the next node is a sibling, not a child
    }

    void
    expr(const Expr* e)
    {
        ++nodes_;
        h_.u8(static_cast<std::uint8_t>(e->ekind));
        switch (e->ekind) {
          case ExprKind::IntLit: {
            const auto* lit = static_cast<const IntLitExpr*>(e);
            h_.i64(lit->value).str(lit->spelling);
            break;
          }
          case ExprKind::FloatLit:
            h_.u64(std::bit_cast<std::uint64_t>(
                static_cast<const FloatLitExpr*>(e)->value));
            break;
          case ExprKind::CharLit:
            h_.i64(static_cast<const CharLitExpr*>(e)->value);
            break;
          case ExprKind::StringLit:
            h_.str(static_cast<const StringLitExpr*>(e)->value);
            break;
          case ExprKind::Ident:
            h_.str(static_cast<const IdentExpr*>(e)->name);
            break;
          case ExprKind::Unary: {
            const auto* u = static_cast<const UnaryExpr*>(e);
            h_.u8(static_cast<std::uint8_t>(u->op));
            optExpr(u->operand);
            break;
          }
          case ExprKind::Binary: {
            const auto* b = static_cast<const BinaryExpr*>(e);
            h_.u8(static_cast<std::uint8_t>(b->op));
            optExpr(b->lhs);
            optExpr(b->rhs);
            break;
          }
          case ExprKind::Ternary: {
            const auto* t = static_cast<const TernaryExpr*>(e);
            optExpr(t->cond);
            optExpr(t->then_expr);
            optExpr(t->else_expr);
            break;
          }
          case ExprKind::Call: {
            const auto* c = static_cast<const CallExpr*>(e);
            optExpr(c->callee);
            h_.u64(c->args.size());
            for (const Expr* a : c->args)
                optExpr(a);
            break;
          }
          case ExprKind::Member: {
            const auto* m = static_cast<const MemberExpr*>(e);
            h_.str(m->member).u8(m->is_arrow);
            optExpr(m->base);
            break;
          }
          case ExprKind::Index: {
            const auto* i = static_cast<const IndexExpr*>(e);
            optExpr(i->base);
            optExpr(i->index);
            break;
          }
          case ExprKind::Cast: {
            const auto* c = static_cast<const CastExpr*>(e);
            type(c->target);
            optExpr(c->operand);
            break;
          }
          case ExprKind::Sizeof: {
            const auto* s = static_cast<const SizeofExpr*>(e);
            h_.u8(s->type_operand != kInvalidType);
            if (s->type_operand != kInvalidType)
                type(s->type_operand);
            optExpr(s->operand);
            break;
          }
        }
    }

    const TypeTable& types_;
    support::Fnv1a h_;
    std::size_t nodes_ = 0;
};

/**
 * The parse tree of the six generated protocols, unit by unit, folded
 * into one digest (see AstDigest). The value was recorded with the
 * recursive-descent expression parser (one function per precedence
 * level); it pins operators, associativity and tree shape so parser
 * rewrites provably build the same trees. Change it only with a
 * deliberate change to the corpus generator or to the grammar.
 */
TEST(Parser, CorpusAstDigestIsPinned)
{
    support::Fnv1a h;
    std::size_t nodes = 0;
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        const Program& program = *loaded.program;
        AstDigest digest(program.ctx().types());
        for (const TranslationUnit& unit : program.units()) {
            h.str(program.sourceManager().fileName(unit.file_id));
            digest.unit(unit);
        }
        h.u64(digest.value());
        nodes += digest.nodes();
    }
    EXPECT_EQ(nodes, 455163u);
    EXPECT_EQ(support::hashHex(h.value()), "5d192a66c7db63e7");
}

} // namespace
} // namespace mc::lang
