#include "cfg/cfg.h"
#include "cfg/flat_cfg.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "flash/macros.h"
#include "lang/ast.h"
#include "lang/program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <set>
#include <thread>
#include <vector>

namespace mc::cfg {
namespace {

/**
 * The rows of a built Cfg: one row span per block, back to back in block
 * order, and per row an identifier span equal to a fresh AST scan of its
 * statement. This is the property the whole data-oriented core rests on
 * — every (block, pos) cell address and every mask bit is derived from
 * this layout, so any drift here silently corrupts prefiltering.
 */
void
expectRowsMatchFreshScans(const Cfg& cfg)
{
    const FlatCfg& flat = flatCfg(cfg);
    ASSERT_EQ(flat.blockCount(), static_cast<std::uint32_t>(cfg.blockCount()));

    std::uint32_t expect_row = 0;
    for (std::uint32_t b = 0; b < flat.blockCount(); ++b) {
        // Row spans are exactly the prefix sums of block sizes, in
        // block order: no gaps, no overlap, no reordering.
        ASSERT_EQ(flat.stmtBegin(b), expect_row);
        ASSERT_EQ(flat.stmts(b).size(), flat.stmtEnd(b) - flat.stmtBegin(b));
        expect_row = flat.stmtEnd(b);
    }
    ASSERT_EQ(flat.stmtCount(), expect_row);

    for (std::uint32_t row = 0; row < flat.stmtCount(); ++row) {
        const lang::Stmt& stmt = *flat.stmt(row);
        // The inline ident span equals a fresh AST scan (sorted unique).
        std::vector<support::SymbolId> fresh;
        lang::forEachIdent(stmt, [&](const lang::IdentExpr& e) {
            fresh.push_back(support::SymbolInterner::global().intern(e.name));
        });
        std::sort(fresh.begin(), fresh.end());
        fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
        std::vector<support::SymbolId> span(
            flat.identBegin(row), flat.identBegin(row) + flat.identCount(row));
        ASSERT_EQ(span, fresh);
        ASSERT_TRUE(std::is_sorted(span.begin(), span.end()));
        ASSERT_TRUE(std::adjacent_find(span.begin(), span.end()) ==
                    span.end());
    }
}

TEST(FlatCfgProperty, RoundTripsEveryFunctionOfTheFullCorpus)
{
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        for (const lang::FunctionDecl* fn : loaded.program->functions()) {
            Cfg cfg = CfgBuilder::build(*fn);
            expectRowsMatchFreshScans(cfg);
        }
    }
}

/**
 * Lowering reads every symbol off the AST, where the parser put it: over
 * the whole parsed corpus, building the CFGs and their rows adds nothing
 * to the global interner (no hashing or locking of identifier
 * spellings).
 */
TEST(FlatCfg, LoweringDoesNotIntern)
{
    std::vector<corpus::LoadedProtocol> protocols;
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles())
        protocols.push_back(corpus::loadProtocol(profile));
    const std::size_t before = support::SymbolInterner::global().size();
    std::size_t rows = 0;
    for (const corpus::LoadedProtocol& loaded : protocols)
        for (const lang::FunctionDecl* fn : loaded.program->functions())
            rows += flatCfg(CfgBuilder::build(*fn)).stmtCount();
    EXPECT_GT(rows, 10000u);
    EXPECT_EQ(support::SymbolInterner::global().size(), before);
}

TEST(FlatCfgProperty, RoundTripsAcrossGeneratorSeeds)
{
    // Property harness: re-seed the generator so the lowering pass sees
    // structurally different programs than the fixed paper corpus.
    corpus::ProtocolProfile profile = corpus::profileByName("bitvector");
    for (std::uint64_t seed : {7u, 1234u, 999983u}) {
        profile.seed = seed;
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        for (const lang::FunctionDecl* fn : loaded.program->functions()) {
            Cfg cfg = CfgBuilder::build(*fn);
            expectRowsMatchFreshScans(cfg);
        }
    }
}

TEST(FlatCfgProperty, ArenaIsBuiltOncePerCfg)
{
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));
    std::vector<Cfg> cfgs;
    for (const lang::FunctionDecl* fn : loaded.program->functions())
        cfgs.push_back(CfgBuilder::build(*fn));
    ASSERT_GE(cfgs.size(), 2u);

    std::set<const FlatCfg*> arenas;
    for (const Cfg& cfg : cfgs) {
        const FlatCfg& flat = flatCfg(cfg);
        // Stable: the arena is built once per Cfg, by its build.
        ASSERT_EQ(&flatCfg(cfg), &flat);
        arenas.insert(&flat);
    }
    // Distinct live Cfgs never share an arena.
    ASSERT_EQ(arenas.size(), cfgs.size());
}

TEST(FlatCfgProperty, ConcurrentReadsAgree)
{
    // Sibling units of one function read its Cfg side by side: the
    // arena and the back edges, which nobody computed before. A built
    // Cfg is read-only, so every thread must see the one arena and
    // identical back edges (and TSan no write).
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));
    std::vector<Cfg> cfgs;
    for (const lang::FunctionDecl* fn : loaded.program->functions())
        cfgs.push_back(CfgBuilder::build(*fn));

    constexpr int kThreads = 4;
    std::vector<std::vector<const FlatCfg*>> arenas(kThreads);
    std::vector<std::vector<std::vector<std::pair<int, int>>>> back(
        kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (const Cfg& cfg : cfgs) {
                const FlatCfg& flat = flatCfg(cfg);
                arenas[t].push_back(&flat);
                back[t].push_back(cfg.backEdges());
            }
        });
    for (std::thread& thread : threads)
        thread.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(arenas[t], arenas[0]) << "thread " << t;
        EXPECT_EQ(back[t], back[0]) << "thread " << t;
    }
}

/**
 * The call rows a statement must lower to, derived independently of the
 * lowering pass: the forEachTopLevelExpr/forEachSubExpr pre-order, with
 * the assignment facts read off the AST shape.
 */
std::vector<CallRow>
expectedCalls(const lang::Stmt& stmt)
{
    support::SymbolInterner& interner = support::SymbolInterner::global();
    const lang::Expr* target_call = nullptr;
    support::SymbolId target = support::kInvalidSymbol;
    if (stmt.skind == lang::StmtKind::Expr) {
        const lang::Expr* e = static_cast<const lang::ExprStmt&>(stmt).expr;
        const auto* bin = e && e->ekind == lang::ExprKind::Binary
                              ? static_cast<const lang::BinaryExpr*>(e)
                              : nullptr;
        if (bin && bin->op == lang::BinaryOp::Assign &&
            bin->lhs->ekind == lang::ExprKind::Ident) {
            target_call = bin->rhs;
            target = interner.intern(
                static_cast<const lang::IdentExpr*>(bin->lhs)->name);
        }
    }
    std::set<const lang::Expr*> assign_lhs;
    std::vector<CallRow> out;
    auto visit = [&](const lang::Expr& e) {
        if (e.ekind == lang::ExprKind::Binary) {
            const auto& b = static_cast<const lang::BinaryExpr&>(e);
            if (b.op == lang::BinaryOp::Assign)
                assign_lhs.insert(b.lhs);
        }
        const lang::CallExpr* call = lang::asCall(e);
        if (!call)
            return;
        CallRow row;
        row.call = call;
        if (!call->calleeName().empty())
            row.callee = interner.intern(call->calleeName());
        if (&e == target_call)
            row.assign_target = target;
        row.assign_lhs = assign_lhs.count(&e) > 0;
        out.push_back(row);
    };
    if (stmt.skind == lang::StmtKind::Decl) {
        for (const lang::VarDecl* v :
             static_cast<const lang::DeclStmt&>(stmt).decls) {
            if (!v->init)
                continue;
            if (lang::asCall(*v->init)) {
                target_call = v->init;
                target = interner.intern(v->name);
            }
            lang::forEachSubExpr(*v->init, visit);
        }
        return out;
    }
    lang::forEachTopLevelExpr(stmt, [&](const lang::Expr& top) {
        lang::forEachSubExpr(top, visit);
    });
    return out;
}

TEST(FlatCfgCallRows, EveryStatementOfTheCorpusLowersItsCallsInPreOrder)
{
    std::size_t total = 0, targets = 0, lhs = 0;
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        for (const lang::FunctionDecl* fn : loaded.program->functions()) {
            Cfg cfg = CfgBuilder::build(*fn);
            const FlatCfg& flat = flatCfg(cfg);
            std::size_t fn_calls = 0;
            for (std::uint32_t row = 0; row < flat.stmtCount(); ++row) {
                const std::vector<CallRow> want =
                    expectedCalls(*flat.stmt(row));
                std::span<const CallRow> got = flat.calls(row);
                ASSERT_EQ(got.size(), want.size())
                    << profile.name << ": " << fn->name << " row " << row;
                for (std::size_t i = 0; i < want.size(); ++i) {
                    ASSERT_EQ(got[i].call, want[i].call);
                    ASSERT_EQ(got[i].callee, want[i].callee);
                    ASSERT_EQ(got[i].target(), want[i].target());
                    ASSERT_EQ(got[i].assign_lhs, want[i].assign_lhs);
                    targets += got[i].target() != support::kInvalidSymbol;
                    lhs += got[i].assign_lhs;
                }
                fn_calls += got.size();
            }
            // calls() is every row's span back to back.
            ASSERT_EQ(flat.calls().size(), fn_calls);
            total += fn_calls;
        }
    }
    // The facts are exercised, not vacuously equal.
    EXPECT_GT(total, 1000u);
    EXPECT_GT(targets, 10u);
    EXPECT_GT(lhs, 100u);
}

TEST(FlatCfgCallRows, RowsHoldExactlyTheCallsOfTheFunctionBody)
{
    // Whole-function scans (dir_check's expects_dir_writeback() test,
    // exec_restrict's deprecated-macro scan) read rows instead of the
    // body AST. Sound only if the CFG places every statement of the
    // body in exactly one row — unreachable code included.
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        for (const lang::FunctionDecl* fn : loaded.program->functions()) {
            std::multiset<const lang::CallExpr*> body;
            lang::forEachStmt(*fn->body, [&](const lang::Stmt& stmt) {
                lang::forEachTopLevelExpr(stmt, [&](const lang::Expr& top) {
                    lang::forEachSubExpr(top, [&](const lang::Expr& e) {
                        if (const lang::CallExpr* call = lang::asCall(e))
                            body.insert(call);
                    });
                });
            });
            Cfg cfg = CfgBuilder::build(*fn);
            std::multiset<const lang::CallExpr*> rows;
            for (const CallRow& c : flatCfg(cfg).calls())
                rows.insert(c.call);
            ASSERT_EQ(rows, body) << profile.name << ": " << fn->name;
        }
    }
}

TEST(FlatCfgCallRows, AssignmentFactsFollowTheSyntax)
{
    lang::Program program;
    program.addSource("t.c", R"(
void f(void) {
    a = ALLOCATE_DB();
    int b = ALLOCATE_DB(), c = g(ALLOCATE_DB());
    HANDLER_GLOBALS(len) = LEN_WORD;
    d = e = h();
    if ((x = ALLOCATE_DB()) == 0) { return; }
    (*p)();
}
)");
    Cfg cfg = CfgBuilder::build(*program.findFunction("f"));
    const FlatCfg& flat = flatCfg(cfg);
    support::SymbolInterner& interner = support::SymbolInterner::global();
    std::vector<std::string> rendered;
    for (const CallRow& c : flat.calls()) {
        std::string text = std::string(c.call->calleeName());
        if (c.callee == support::kInvalidSymbol)
            text += "<no-callee>";
        if (c.target() != support::kInvalidSymbol)
            text += " -> " + std::string(interner.name(c.target()));
        if (c.assign_lhs)
            text += " (lhs)";
        rendered.push_back(text);
    }
    EXPECT_EQ(rendered, (std::vector<std::string>{
                            "ALLOCATE_DB -> a",
                            "ALLOCATE_DB -> b",
                            "g -> c",
                            "ALLOCATE_DB",
                            "HANDLER_GLOBALS (lhs)",
                            "h",
                            "ALLOCATE_DB",
                            "<no-callee>",
                        }));
}

TEST(FlatCfgCallRows, MentionsIsTheIdentSpanLookup)
{
    lang::Program program;
    program.addSource("t.c", "void f(void) { if (buf == 0) { g(x); } }");
    Cfg cfg = CfgBuilder::build(*program.findFunction("f"));
    const FlatCfg& flat = flatCfg(cfg);
    support::SymbolInterner& interner = support::SymbolInterner::global();
    bool saw_if = false;
    for (std::uint32_t row = 0; row < flat.stmtCount(); ++row) {
        if (flat.stmt(row)->skind != lang::StmtKind::If)
            continue;
        saw_if = true;
        EXPECT_TRUE(flat.mentions(row, interner.intern("buf")));
        // The condition only: the then-branch is its own row.
        EXPECT_FALSE(flat.mentions(row, interner.intern("x")));
        EXPECT_FALSE(flat.mentions(row, support::kInvalidSymbol));
    }
    EXPECT_TRUE(saw_if);
}

TEST(MacroVocabulary, SymbolLookupMatchesTheNamedVocabulary)
{
    using flash::MacroKind;
    // The vocabulary as documented in flash/macros.h, spelled out here
    // so the one table in macros.cc is checked against an independent
    // list.
    const std::pair<const char*, MacroKind> vocabulary[] = {
        {"PI_SEND", MacroKind::SendPi},
        {"IO_SEND", MacroKind::SendIo},
        {"NI_SEND", MacroKind::SendNi},
        {"WAIT_FOR_DB_FULL", MacroKind::WaitDbFull},
        {"MISCBUS_READ_DB", MacroKind::ReadDb},
        {"MISCBUS_READ_DB_OLD", MacroKind::ReadDbDeprecated},
        {"MISCBUS_WRITE_DB", MacroKind::WriteDb},
        {"ALLOCATE_DB", MacroKind::AllocDb},
        {"FREE_DB", MacroKind::FreeDb},
        {"MAYBE_FREE_DB_A", MacroKind::MaybeFreeDb},
        {"MAYBE_FREE_DB_B", MacroKind::MaybeFreeDb},
        {"MAYBE_FREE_DB_C", MacroKind::MaybeFreeDb},
        {"MAYBE_FREE_DB_D", MacroKind::MaybeFreeDb},
        {"DB_REFCNT_INCR", MacroKind::RefcntIncr},
        {"DIR_LOAD", MacroKind::DirLoad},
        {"DIR_READ", MacroKind::DirRead},
        {"DIR_WRITE", MacroKind::DirWrite},
        {"DIR_WRITEBACK", MacroKind::DirWriteback},
        {"WAIT_FOR_PI_REPLY", MacroKind::WaitPiReply},
        {"WAIT_FOR_IO_REPLY", MacroKind::WaitIoReply},
        {"WAIT_FOR_SPACE", MacroKind::WaitForSpace},
        {"HANDLER_DEFS", MacroKind::HandlerDefs},
        {"HANDLER_PROLOGUE", MacroKind::HandlerPrologue},
        {"SWHANDLER_DEFS", MacroKind::SwHandlerDefs},
        {"SWHANDLER_PROLOGUE", MacroKind::SwHandlerPrologue},
        {"PROC_HOOK", MacroKind::ProcHook},
        {"NO_STACK", MacroKind::NoStack},
        {"SET_STACKPTR", MacroKind::SetStackPtr},
        {"has_buffer", MacroKind::AnnotHasBuffer},
        {"no_free_needed", MacroKind::AnnotNoFreeNeeded},
        {"expects_dir_writeback", MacroKind::AnnotExpectsDirWriteback},
        {"HANDLER_GLOBALS", MacroKind::HandlerGlobals},
    };
    support::SymbolInterner& interner = support::SymbolInterner::global();
    for (const auto& [name, kind] : vocabulary) {
        EXPECT_EQ(flash::macroKind(interner.intern(name)), kind) << name;
        EXPECT_EQ(flash::classifyMacro(name), kind) << name;
    }

    // Near-misses: case, affixes, truncations and whitespace are not
    // macros, whether or not the spelling was ever interned.
    const char* near_misses[] = {
        "pi_send",         "PI_SEN",         "PI_SEND_",
        " PI_SEND",        "MAYBE_FREE_DB",  "MAYBE_FREE_DB_E",
        "DIR_LOADS",       "HAS_BUFFER",     "Expects_dir_writeback",
        "FREE_DB2",        "WAIT_FOR_SPACE ", "",
    };
    for (const char* name : near_misses) {
        EXPECT_EQ(flash::classifyMacro(name), MacroKind::None) << name;
        EXPECT_EQ(flash::macroKind(interner.intern(name)), MacroKind::None)
            << name;
        EXPECT_EQ(flash::classifyMacro(name), MacroKind::None) << name;
    }
    EXPECT_EQ(flash::classifyMacro("never_interned_spelling_xyzzy"),
              MacroKind::None);
    EXPECT_EQ(flash::macroKind(support::kInvalidSymbol), MacroKind::None);
}

} // namespace
} // namespace mc::cfg
