#include "lang/program.h"

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "support/hash.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace mc::lang {
namespace {

/** Find the first expression statement's expression in `fn`. */
const Expr*
firstExpr(const FunctionDecl& fn)
{
    for (const Stmt* stmt : fn.body->stmts)
        if (stmt->skind == StmtKind::Expr)
            return static_cast<const ExprStmt*>(stmt)->expr;
    return nullptr;
}

TEST(Sema, ResolvesLocalsAndParams)
{
    Program p;
    p.addSource("t.c", "void f(int a) { int b = 2; a = b; }");
    const FunctionDecl* fn = p.findFunction("f");
    const auto* assign = static_cast<const BinaryExpr*>(firstExpr(*fn));
    const auto* lhs = static_cast<const IdentExpr*>(assign->lhs);
    const auto* rhs = static_cast<const IdentExpr*>(assign->rhs);
    ASSERT_NE(lhs->decl, nullptr);
    EXPECT_EQ(lhs->decl->dkind, DeclKind::Param);
    ASSERT_NE(rhs->decl, nullptr);
    EXPECT_EQ(rhs->decl->dkind, DeclKind::Var);
}

TEST(Sema, InnerScopeShadowsOuter)
{
    Program p;
    p.addSource("t.c", "void f(void) { int x = 1; { float x = 2.0; "
                       "y = x; } }");
    const FunctionDecl* fn = p.findFunction("f");
    // Find the inner assignment y = x.
    const Expr* found = nullptr;
    forEachStmt(*fn->body, [&](const Stmt& stmt) {
        if (stmt.skind == StmtKind::Expr) {
            const auto* e = static_cast<const ExprStmt&>(stmt).expr;
            if (e->ekind == ExprKind::Binary)
                found = static_cast<const BinaryExpr*>(e)->rhs;
        }
    });
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(p.ctx().types().isFloating(found->type));
}

TEST(Sema, FloatPropagatesThroughArithmetic)
{
    Program p;
    p.addSource("t.c", "void f(void) { float r; int i; x = r + i; }");
    const FunctionDecl* fn = p.findFunction("f");
    const Expr* found = nullptr;
    forEachStmt(*fn->body, [&](const Stmt& stmt) {
        if (stmt.skind == StmtKind::Expr)
            found = static_cast<const ExprStmt&>(stmt).expr;
    });
    const auto* assign = static_cast<const BinaryExpr*>(found);
    EXPECT_TRUE(p.ctx().types().isFloating(assign->rhs->type));
}

TEST(Sema, ComparisonIsInt)
{
    Program p;
    p.addSource("t.c", "void f(void) { float a; x = a < 1.0; }");
    const FunctionDecl* fn = p.findFunction("f");
    const Expr* found = nullptr;
    forEachStmt(*fn->body, [&](const Stmt& stmt) {
        if (stmt.skind == StmtKind::Expr)
            found = static_cast<const ExprStmt&>(stmt).expr;
    });
    const auto* assign = static_cast<const BinaryExpr*>(found);
    EXPECT_FALSE(p.ctx().types().isFloating(assign->rhs->type));
}

TEST(Sema, CallResolvesToFunctionReturnType)
{
    Program p;
    p.addSource("t.c", "float half(int x) { return 0.5; }\n"
                       "void g(void) { y = half(3); }");
    const FunctionDecl* fn = p.findFunction("g");
    const auto* assign = static_cast<const BinaryExpr*>(firstExpr(*fn));
    EXPECT_TRUE(p.ctx().types().isFloating(assign->rhs->type));
}

TEST(Sema, CrossUnitFunctionResolution)
{
    Program p;
    p.addSource("a.c", "int helper(void) { return 1; }");
    p.addSource("b.c", "void g(void) { x = helper(); }");
    const FunctionDecl* fn = p.findFunction("g");
    const auto* assign = static_cast<const BinaryExpr*>(firstExpr(*fn));
    const auto* call = static_cast<const CallExpr*>(assign->rhs);
    const auto* callee = static_cast<const IdentExpr*>(call->callee);
    ASSERT_NE(callee->decl, nullptr);
    EXPECT_EQ(callee->decl->dkind, DeclKind::Function);
}

TEST(Sema, EnumConstantsResolve)
{
    Program p;
    p.addSource("t.c", "enum Len { LEN_NODATA, LEN_WORD };\n"
                       "void f(void) { x = LEN_WORD; }");
    const FunctionDecl* fn = p.findFunction("f");
    const auto* assign = static_cast<const BinaryExpr*>(firstExpr(*fn));
    const auto* rhs = static_cast<const IdentExpr*>(assign->rhs);
    ASSERT_NE(rhs->decl, nullptr);
    EXPECT_EQ(rhs->decl->dkind, DeclKind::EnumConst);
    EXPECT_EQ(static_cast<const EnumConstDecl*>(rhs->decl)->value, 1);
}

TEST(Sema, UnknownNamesAreNullNotError)
{
    Program p;
    // FLASH macros look like undeclared calls; Sema must tolerate them.
    p.addSource("t.c", "void f(void) { PI_SEND(F_DATA, a, b); }");
    const FunctionDecl* fn = p.findFunction("f");
    const auto* call = static_cast<const CallExpr*>(firstExpr(*fn));
    const auto* callee = static_cast<const IdentExpr*>(call->callee);
    EXPECT_EQ(callee->decl, nullptr);
}

TEST(Sema, DerefAndAddressTypes)
{
    Program p;
    p.addSource("t.c", "void f(int *p) { x = *p; y = &x2; }");
    const FunctionDecl* fn = p.findFunction("f");
    const auto* assign = static_cast<const BinaryExpr*>(firstExpr(*fn));
    EXPECT_EQ(p.ctx().types().type(assign->rhs->type).kind, TypeKind::Int);
}

/**
 * Every expression of the six generated protocols — file, line, column,
 * described type and, for identifiers, the name and the resolved
 * declaration's kind, name and location — folded into one digest, in
 * unit / declaration / pre-order statement and expression order. The
 * value was recorded with the string-keyed parser and Sema; it pins name
 * resolution and typing so symbol-keyed rewrites provably resolve every
 * identifier to the same declaration. Change it only with a deliberate
 * change to the corpus generator or to Sema's rules.
 */
TEST(Sema, CorpusResolutionDigestIsPinned)
{
    support::Fnv1a h;
    std::size_t exprs = 0;
    std::size_t resolved = 0;
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        const Program& program = *loaded.program;
        const support::SourceManager& sm = program.sourceManager();
        const TypeTable& types = program.ctx().types();
        auto hash_loc = [&](const support::SourceLoc& loc) {
            h.str(sm.fileName(loc.file_id)).i64(loc.line).i64(loc.column);
        };
        auto hash_expr = [&](const Expr& e) {
            ++exprs;
            h.u8(static_cast<std::uint8_t>(e.ekind));
            hash_loc(e.loc);
            h.str(types.describe(e.type));
            if (e.ekind != ExprKind::Ident)
                return;
            const auto& ident = static_cast<const IdentExpr&>(e);
            h.str(ident.name);
            if (!ident.decl) {
                h.u8(0xFF);
                return;
            }
            ++resolved;
            h.u8(static_cast<std::uint8_t>(ident.decl->dkind))
                .str(ident.decl->name);
            hash_loc(ident.decl->loc);
        };
        for (const TranslationUnit& unit : program.units()) {
            for (const Decl* d : unit.decls) {
                if (d->dkind == DeclKind::Var) {
                    if (const Expr* init = static_cast<const VarDecl*>(d)->init)
                        forEachSubExpr(*init, hash_expr);
                    continue;
                }
                if (d->dkind != DeclKind::Function)
                    continue;
                const auto* fn = static_cast<const FunctionDecl*>(d);
                if (!fn->body)
                    continue;
                forEachStmt(*fn->body, [&](const Stmt& stmt) {
                    forEachTopLevelExpr(stmt, [&](const Expr& top) {
                        forEachSubExpr(top, hash_expr);
                    });
                });
            }
        }
    }
    EXPECT_EQ(exprs, 376107u);
    EXPECT_EQ(resolved, 145086u);
    EXPECT_EQ(support::hashHex(h.value()), "7894730418fc85b5");
}

/**
 * Every identifier's and declaration's symbol, in program order, for
 * one Program built from `files`.
 */
std::vector<support::SymbolId>
programSymbols(const std::vector<corpus::GeneratedFile>& files)
{
    Program program(/*recover=*/true);
    for (const corpus::GeneratedFile& file : files)
        program.addSource(file.name, file.source);
    std::vector<support::SymbolId> out;
    support::SymbolInterner& interner = support::SymbolInterner::global();
    for (const TranslationUnit& unit : program.units()) {
        for (const Decl* d : unit.decls) {
            out.push_back(d->sym);
            if (d->sym != support::kInvalidSymbol &&
                interner.name(d->sym) != d->name)
                ADD_FAILURE() << "decl " << d->name << " mis-symboled";
            const auto* fn = d->dkind == DeclKind::Function
                                 ? static_cast<const FunctionDecl*>(d)
                                 : nullptr;
            if (!fn || !fn->body)
                continue;
            forEachStmt(*fn->body, [&](const Stmt& stmt) {
                forEachIdent(stmt, [&](const IdentExpr& e) {
                    out.push_back(e.sym);
                    if (interner.name(e.sym) != e.name)
                        ADD_FAILURE() << "ident " << e.name << " mis-symboled";
                });
            });
        }
    }
    return out;
}

/**
 * Two Programs parse the whole corpus on two threads at once: each owns
 * its spelling table, both intern into the one global interner, and
 * they must agree on every symbol (exercised under TSan).
 */
TEST(ProgramSymbols, TwoProgramsOnTwoThreadsAgree)
{
    std::vector<corpus::GeneratedFile> files;
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles())
        for (corpus::GeneratedFile& file :
             corpus::generateProtocol(profile).files)
            files.push_back(std::move(file));
    std::vector<support::SymbolId> a, b;
    std::thread first([&] { a = programSymbols(files); });
    std::thread second([&] { b = programSymbols(files); });
    first.join();
    second.join();
    EXPECT_GT(a.size(), 100000u);
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace mc::lang
