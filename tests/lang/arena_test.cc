#include "lang/ast.h"
#include "lang/program.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace mc::lang {
namespace {

// The arena never runs a node's destructor, so no node type may need one.
template <typename... T>
constexpr bool kAllTriviallyDestructible =
    (std::is_trivially_destructible_v<T> && ...);

static_assert(kAllTriviallyDestructible<
              Node, Expr, IntLitExpr, FloatLitExpr, CharLitExpr,
              StringLitExpr, IdentExpr, UnaryExpr, BinaryExpr, TernaryExpr,
              CallExpr, MemberExpr, IndexExpr, CastExpr, SizeofExpr>);
static_assert(kAllTriviallyDestructible<
              Stmt, ExprStmt, DeclStmt, CompoundStmt, IfStmt, WhileStmt,
              DoWhileStmt, ForStmt, SwitchStmt, CaseStmt, DefaultStmt,
              BreakStmt, ContinueStmt, ReturnStmt, GotoStmt, LabelStmt,
              EmptyStmt>);
static_assert(kAllTriviallyDestructible<
              Decl, VarDecl, ParamDecl, FunctionDecl, RecordDecl,
              TypedefDecl, EnumConstDecl, EnumDecl, PoisonedDecl>);

template <typename T>
bool
aligned(const T* p)
{
    return reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0;
}

/**
 * Appends `n` new nodes of type T to `out`, tagging each through its
 * location with `tag` and its index in `out`.
 */
template <typename T>
void
makeTagged(AstContext& ctx, int n, int tag, std::vector<T*>& out)
{
    for (int i = 0; i < n; ++i) {
        T* node = ctx.make<T>();
        const int index = static_cast<int>(out.size());
        node->loc = support::SourceLoc{tag, index, index + 1};
        out.push_back(node);
    }
}

template <typename T>
void
expectTagged(const std::vector<T*>& nodes, int tag)
{
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        ASSERT_TRUE(aligned(nodes[i]));
        const int n = static_cast<int>(i);
        ASSERT_EQ(nodes[i]->loc.file_id, tag);
        ASSERT_EQ(nodes[i]->loc.line, n);
        ASSERT_EQ(nodes[i]->loc.column, n + 1);
    }
}

TEST(AstArena, NodesOfEverySizeStayAlignedAndReadableAcrossChunks)
{
    AstContext ctx;
    constexpr int kEach = 2000;
    // Interleave sizes and text so every chunk mixes alignments.
    std::vector<std::string_view> texts;
    std::vector<IdentExpr*> idents;
    std::vector<IntLitExpr*> ints;
    std::vector<FloatLitExpr*> floats;
    std::vector<CallExpr*> calls;
    std::vector<CompoundStmt*> blocks;
    std::vector<FunctionDecl*> fns;
    std::vector<PoisonedDecl*> poisons;
    for (int round = 0; round < 4; ++round) {
        makeTagged(ctx, kEach / 4, 1, idents);
        for (int i = 0; i < kEach / 4; ++i)
            texts.push_back(ctx.copyText(std::string(
                static_cast<std::size_t>(1 + i % 37), char('a' + i % 26))));
        makeTagged(ctx, kEach / 4, 2, ints);
        makeTagged(ctx, kEach / 4, 3, floats);
        makeTagged(ctx, kEach / 4, 4, calls);
        makeTagged(ctx, kEach / 4, 5, blocks);
        makeTagged(ctx, kEach / 4, 6, fns);
        makeTagged(ctx, kEach / 4, 7, poisons);
    }
    EXPECT_EQ(ctx.nodeCount(), 7u * kEach);
    EXPECT_GT(ctx.arenaBytes(), 4 * AstContext::kChunkBytes);

    expectTagged(idents, 1);
    expectTagged(ints, 2);
    expectTagged(floats, 3);
    expectTagged(calls, 4);
    expectTagged(blocks, 5);
    expectTagged(fns, 6);
    expectTagged(poisons, 7);
    for (std::size_t i = 0; i < texts.size(); ++i) {
        const std::size_t n = i % (kEach / 4);
        ASSERT_EQ(texts[i],
                  std::string(1 + n % 37, char('a' + n % 26)));
    }
}

TEST(AstArena, OversizedRequestsGetTheirOwnChunk)
{
    AstContext ctx;
    IdentExpr* before = ctx.make<IdentExpr>();
    before->loc.line = 11;
    const std::string big(AstContext::kChunkBytes + 123, 'x');
    std::string_view copy = ctx.copyText(big);
    IdentExpr* after = ctx.make<IdentExpr>();
    after->loc.line = 22;
    EXPECT_EQ(copy, big);
    EXPECT_NE(static_cast<const void*>(copy.data()), big.data());
    EXPECT_EQ(before->loc.line, 11);
    EXPECT_EQ(after->loc.line, 22);
    // The small allocations kept sharing the first chunk.
    EXPECT_LT(reinterpret_cast<std::uintptr_t>(after) -
                  reinterpret_cast<std::uintptr_t>(before),
              AstContext::kChunkBytes);
    EXPECT_GE(ctx.arenaBytes(), AstContext::kChunkBytes + big.size());
}

TEST(AstArena, ListsCopyTheirElementsAndEmptyListsAllocateNothing)
{
    AstContext ctx;
    std::vector<Node*> scratch;
    for (int i = 0; i < 100; ++i)
        scratch.push_back(ctx.make<IdentExpr>());
    const std::size_t bytes = ctx.arenaBytes();
    std::span<Node* const> none;
    EXPECT_TRUE(ctx.copyList<Expr>(none).empty());
    EXPECT_TRUE(ctx.copyText("").empty());
    EXPECT_EQ(ctx.arenaBytes(), bytes);

    std::span<Expr* const> list =
        ctx.copyList<Expr>(std::span<Node* const>(scratch));
    scratch.clear(); // the list owns its own copy
    ASSERT_EQ(list.size(), 100u);
    EXPECT_TRUE(aligned(list.data()));
    for (const Expr* e : list)
        EXPECT_EQ(e->ekind, ExprKind::Ident);
}

const FunctionDecl*
functionNamed(const TranslationUnit& unit, std::string_view name)
{
    for (const FunctionDecl* fn : unit.functionDefinitions())
        if (fn->name == name)
            return fn;
    return nullptr;
}

/** The first string literal of `fn`'s first call statement. */
const StringLitExpr*
firstStringArg(const FunctionDecl& fn)
{
    for (const Stmt* stmt : fn.body->stmts)
        if (const CallExpr* call = stmtAsCall(*stmt))
            for (const Expr* arg : call->args)
                if (arg->ekind == ExprKind::StringLit)
                    return static_cast<const StringLitExpr*>(arg);
    return nullptr;
}

TEST(AstArena, UpdateSourceKeepsReplacedNamesReadable)
{
    Program program;
    const TranslationUnit& helpers = program.addSource(
        "helpers.c",
        "int shared_counter_with_a_long_name;\n"
        "void helper_routine_with_a_long_name(void) {\n"
        "    LOG_MESSAGE(\"helper says hello, at length\");\n"
        "}\n");
    const TranslationUnit& handler = program.addSource(
        "handler.c",
        "void handler(void) {\n"
        "    helper_routine_with_a_long_name();\n"
        "    shared_counter_with_a_long_name = 1;\n"
        "}\n");
    const FunctionDecl* old_helper =
        functionNamed(helpers, "helper_routine_with_a_long_name");
    ASSERT_NE(old_helper, nullptr);
    const Decl* old_counter = helpers.decls.front();
    const StringLitExpr* old_literal = firstStringArg(*old_helper);
    ASSERT_NE(old_literal, nullptr);

    // The handler's identifiers resolved into the helpers unit.
    const FunctionDecl* user = functionNamed(handler, "handler");
    ASSERT_NE(user, nullptr);
    const CallExpr* call = stmtAsCall(*user->body->stmts[0]);
    ASSERT_NE(call, nullptr);
    const auto* callee = static_cast<const IdentExpr*>(call->callee);
    ASSERT_EQ(callee->decl, old_helper);
    const auto* assign = static_cast<const BinaryExpr*>(
        static_cast<const ExprStmt*>(user->body->stmts[1])->expr);
    const auto* counter_use = static_cast<const IdentExpr*>(assign->lhs);
    ASSERT_EQ(counter_use->decl, old_counter);

    // Replacing the file frees its old text; the replaced declarations
    // and the handler's resolved uses must not have viewed it. Refill
    // blocks of the old text's size so a stale view would read '#'s
    // (ASan reports it outright).
    const std::size_t old_size =
        program.sourceManager().fileContents(helpers.file_id).size();
    ASSERT_NE(program.updateSource(
                  "helpers.c",
                  std::string(4096, ' ') +
                      "void helper_routine_with_a_long_name(void) { }\n"),
              nullptr);
    std::vector<std::string> churn(64, std::string(old_size, '#'));

    EXPECT_EQ(old_helper->name, "helper_routine_with_a_long_name");
    EXPECT_EQ(old_counter->name, "shared_counter_with_a_long_name");
    EXPECT_EQ(old_literal->value, "\"helper says hello, at length\"");
    EXPECT_EQ(callee->name, "helper_routine_with_a_long_name");
    EXPECT_EQ(callee->decl->name, "helper_routine_with_a_long_name");
    EXPECT_EQ(counter_use->name, "shared_counter_with_a_long_name");
    EXPECT_EQ(counter_use->decl->name, "shared_counter_with_a_long_name");

    // The new unit is indexed in place of the old one.
    const FunctionDecl* fresh =
        program.findFunction("helper_routine_with_a_long_name");
    ASSERT_NE(fresh, nullptr);
    EXPECT_NE(fresh, old_helper);
    EXPECT_EQ(fresh->loc.line, 1);
}

} // namespace
} // namespace mc::lang
