#include "cache/analysis_cache.h"
#include "cfg/path_stats.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "lang/fingerprint.h"
#include "lang/program.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

namespace mc::lang {
namespace {

using support::Rng;

/**
 * Random expression generator for round-trip properties. Produces
 * expressions from the dialect's full grammar, depth-bounded.
 */
class ExprGen
{
  public:
    explicit ExprGen(Rng& rng) : rng_(rng) {}

    std::string
    gen(int depth)
    {
        if (depth <= 0)
            return atom();
        switch (rng_.below(8)) {
          case 0:
            return atom();
          case 1:
            return "(" + gen(depth - 1) + " " + binop() + " " +
                   gen(depth - 1) + ")";
          case 2:
            return unop() + "(" + gen(depth - 1) + ")";
          case 3: {
            std::string args;
            int n = static_cast<int>(rng_.below(4));
            for (int i = 0; i < n; ++i)
                args += (i ? ", " : "") + gen(depth - 1);
            return name() + "(" + args + ")";
          }
          case 4:
            return "(" + gen(depth - 1) + " ? " + gen(depth - 1) + " : " +
                   gen(depth - 1) + ")";
          case 5:
            return name() + "[" + gen(depth - 1) + "]";
          case 6:
            return name() + "." + name();
          default:
            return name() + "->" + name();
        }
    }

  private:
    std::string
    atom()
    {
        switch (rng_.below(3)) {
          case 0: return std::to_string(rng_.below(1000));
          case 1: return name();
          default: return "'x'";
        }
    }

    std::string
    name()
    {
        static const char* names[] = {"a",  "bb", "c3",   "addr",
                                      "len", "t0", "state", "_p"};
        return names[rng_.below(8)];
    }

    std::string
    binop()
    {
        static const char* ops[] = {"+",  "-",  "*",  "/",  "%",  "<<",
                                    ">>", "<",  ">",  "<=", ">=", "==",
                                    "!=", "&",  "|",  "^",  "&&", "||"};
        return ops[rng_.below(18)];
    }

    std::string
    unop()
    {
        static const char* ops[] = {"-", "!", "~", "*", "&"};
        return ops[rng_.below(5)];
    }

    Rng& rng_;
};

/** Random statement/body generator for CFG invariants. */
class BodyGen
{
  public:
    explicit BodyGen(Rng& rng) : rng_(rng), exprs_(rng) {}

    std::string
    gen(int depth, int stmts)
    {
        std::string out;
        for (int i = 0; i < stmts; ++i)
            out += stmt(depth) + "\n";
        return out;
    }

  private:
    std::string
    stmt(int depth)
    {
        if (depth <= 0)
            return simple();
        switch (rng_.below(10)) {
          case 0:
            return "if (" + exprs_.gen(1) + ") {\n" + gen(depth - 1, 2) +
                   "}";
          case 1:
            return "if (" + exprs_.gen(1) + ") {\n" + gen(depth - 1, 2) +
                   "} else {\n" + gen(depth - 1, 2) + "}";
          case 2:
            return "while (" + exprs_.gen(1) + ") {\n" +
                   gen(depth - 1, 2) + "}";
          case 3:
            return "for (i = 0; i < " +
                   std::to_string(rng_.below(10)) + "; i++) {\n" +
                   gen(depth - 1, 1) + "}";
          case 4:
            return "do {\n" + gen(depth - 1, 1) + "} while (" +
                   exprs_.gen(1) + ");";
          case 5:
            return "switch (" + exprs_.gen(1) + ") {\ncase 1:\n" +
                   gen(depth - 1, 1) + "break;\ncase 2:\n" +
                   gen(depth - 1, 1) + "default:\n" + gen(depth - 1, 1) +
                   "}";
          case 6:
            return rng_.chance(1, 2) ? "return;" : simple();
          default:
            return simple();
        }
    }

    std::string
    simple()
    {
        switch (rng_.below(3)) {
          case 0: return "x = " + exprs_.gen(2) + ";";
          case 1: return "f(" + exprs_.gen(1) + ");";
          default: return "int v" + std::to_string(++vars_) + " = " +
                          exprs_.gen(1) + ";";
        }
    }

    Rng& rng_;
    ExprGen exprs_;
    int vars_ = 0;
};

class ExprRoundtrip : public ::testing::TestWithParam<int>
{
};

TEST_P(ExprRoundtrip, PrintParsePrintIsStable)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
    ExprGen gen(rng);
    for (int i = 0; i < 50; ++i) {
        std::string text = gen.gen(4);

        AstContext ctx1;
        support::SourceManager sm1;
        TranslationUnit tu1 = parseSource(
            ctx1, sm1, "a.c", "void f(void) { x = " + text + "; }");
        const auto* stmt1 = static_cast<const ExprStmt*>(
            tu1.functionDefinitions()[0]->body->stmts[0]);
        std::string printed = exprToString(*stmt1->expr);

        // Re-parse the printed form: must be structurally identical.
        AstContext ctx2;
        support::SourceManager sm2;
        TranslationUnit tu2 = parseSource(
            ctx2, sm2, "b.c", "void f(void) { " + printed + "; }");
        const auto* stmt2 = static_cast<const ExprStmt*>(
            tu2.functionDefinitions()[0]->body->stmts[0]);
        EXPECT_TRUE(exprEquals(*stmt1->expr, *stmt2->expr))
            << "original: " << text << "\nprinted:  " << printed;
        EXPECT_EQ(printed, exprToString(*stmt2->expr));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprRoundtrip, ::testing::Range(0, 8));

class CfgInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(CfgInvariants, RandomBodiesSatisfyStructuralInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
    BodyGen gen(rng);
    for (int i = 0; i < 20; ++i) {
        std::string body = gen.gen(3, 4);
        Program program;
        program.addSource("t" + std::to_string(i) + ".c",
                          "void f(void) {\n" + body + "}");
        const FunctionDecl* fn = program.functions().back();
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);

        // Invariant: edges are symmetric (succ lists match pred lists).
        for (const cfg::BasicBlock& bb : cfg.blocks()) {
            for (int s : bb.succs) {
                const auto& preds = cfg.block(s).preds;
                EXPECT_NE(std::count(preds.begin(), preds.end(), bb.id),
                          0)
                    << "missing pred edge in body:\n"
                    << body;
            }
            for (int p : bb.preds) {
                const auto& succs = cfg.block(p).succs;
                EXPECT_NE(std::count(succs.begin(), succs.end(), bb.id),
                          0);
            }
        }

        // Invariant: the exit block has no successors.
        EXPECT_TRUE(cfg.block(cfg.exitId()).succs.empty());

        // Invariant: every statement of the body appears in exactly one
        // block.
        std::map<const Stmt*, int> owner_count;
        const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
        for (std::uint32_t row = 0; row < flat.stmtCount(); ++row)
            ++owner_count[flat.stmt(row)];
        for (const auto& [stmt, count] : owner_count)
            EXPECT_EQ(count, 1);

        // Invariant: DP path count equals explicit enumeration when the
        // count is small enough to enumerate.
        cfg::PathStats stats = cfg::computePathStats(cfg);
        if (stats.path_count <= 4096) {
            std::uint64_t enumerated = 0;
            cfg::enumeratePaths(cfg, [&](const std::vector<int>&) {
                ++enumerated;
            });
            EXPECT_EQ(stats.path_count, enumerated) << body;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfgInvariants, ::testing::Range(0, 8));

class LexerRobustness : public ::testing::TestWithParam<int>
{
};

TEST_P(LexerRobustness, MutatedSourceNeverCrashes)
{
    // Take a valid handler, splice random bytes in, and require the
    // frontend to either parse or throw — never crash or hang.
    const std::string base =
        "void H(void) { if (a > 2) { FREE_DB(); } x = y + 1; }";
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
    const std::string charset = "(){};=+-*/<>&|!~^%#\"'abc012 \t\n";
    for (int i = 0; i < 200; ++i) {
        std::string mutated = base;
        int edits = static_cast<int>(rng.below(4)) + 1;
        for (int e = 0; e < edits; ++e) {
            std::size_t pos = rng.below(mutated.size());
            mutated[pos] = charset[rng.below(charset.size())];
        }
        AstContext ctx;
        support::SourceManager sm;
        try {
            parseSource(ctx, sm, "fuzz.c", mutated);
        } catch (const LexError&) {
        } catch (const ParseError&) {
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LexerRobustness, ::testing::Range(0, 4));

// ---- generated-corpus properties --------------------------------------
//
// The corpus generator is itself a seeded random-program generator; these
// properties run it at several seeds and require (a) byte-determinism,
// (b) print -> re-parse stability for every expression it emits, and
// (c) the full checking pipeline to produce byte-identical findings from
// a cold and a warm analysis cache.

/** A miniature protocol profile whose structure varies with the seed. */
corpus::ProtocolProfile
smallProfile(std::uint64_t seed)
{
    corpus::ProtocolProfile p;
    p.name = "prop";
    p.seed = seed * 2654435761u + 97;
    p.target_loc = 700;
    p.hw_handlers = 6 + static_cast<int>(seed % 3);
    p.sw_handlers = 2;
    p.normal_routines = 4;
    p.giant_handlers = 0;
    p.passthru_percent = 25;
    p.branches_per_handler = 2;
    p.vars_per_function = 2;
    p.db_reads = 2;
    p.send_segments = 2;
    p.alloc_sites = 1;
    p.race_errors = 1;
    p.msglen_errors = 1;
    p.bm_leak = 1;
    p.lanes_errors = 1;
    p.hooks_missing = 1;
    return p;
}

/** Collect every expression reachable from a statement subtree. */
void
collectExprs(const Stmt* stmt, std::vector<const Expr*>& out)
{
    if (!stmt)
        return;
    switch (stmt->skind) {
      case StmtKind::Expr:
        out.push_back(static_cast<const ExprStmt*>(stmt)->expr);
        break;
      case StmtKind::Decl:
        for (const VarDecl* d :
             static_cast<const DeclStmt*>(stmt)->decls)
            if (d->init)
                out.push_back(d->init);
        break;
      case StmtKind::Compound:
        for (const Stmt* s :
             static_cast<const CompoundStmt*>(stmt)->stmts)
            collectExprs(s, out);
        break;
      case StmtKind::If: {
        const auto* s = static_cast<const IfStmt*>(stmt);
        out.push_back(s->cond);
        collectExprs(s->then_branch, out);
        collectExprs(s->else_branch, out);
        break;
      }
      case StmtKind::While: {
        const auto* s = static_cast<const WhileStmt*>(stmt);
        out.push_back(s->cond);
        collectExprs(s->body, out);
        break;
      }
      case StmtKind::DoWhile: {
        const auto* s = static_cast<const DoWhileStmt*>(stmt);
        collectExprs(s->body, out);
        out.push_back(s->cond);
        break;
      }
      case StmtKind::For: {
        const auto* s = static_cast<const ForStmt*>(stmt);
        collectExprs(s->init, out);
        if (s->cond)
            out.push_back(s->cond);
        if (s->step)
            out.push_back(s->step);
        collectExprs(s->body, out);
        break;
      }
      case StmtKind::Switch: {
        const auto* s = static_cast<const SwitchStmt*>(stmt);
        out.push_back(s->cond);
        collectExprs(s->body, out);
        break;
      }
      case StmtKind::Case:
        out.push_back(static_cast<const CaseStmt*>(stmt)->value);
        break;
      case StmtKind::Return:
        if (const Expr* v = static_cast<const ReturnStmt*>(stmt)->value)
            out.push_back(v);
        break;
      default:
        break;
    }
}

class GeneratedCorpus : public ::testing::TestWithParam<int>
{
};

TEST_P(GeneratedCorpus, GenerationIsByteDeterministic)
{
    SCOPED_TRACE("seed=" + std::to_string(GetParam()));
    corpus::GeneratedProtocol first =
        corpus::generateProtocol(smallProfile(GetParam()));
    corpus::GeneratedProtocol second =
        corpus::generateProtocol(smallProfile(GetParam()));
    ASSERT_FALSE(first.files.empty());
    ASSERT_EQ(first.files.size(), second.files.size());
    for (std::size_t i = 0; i < first.files.size(); ++i) {
        EXPECT_EQ(first.files[i].name, second.files[i].name);
        EXPECT_EQ(first.files[i].source, second.files[i].source);
    }
}

TEST_P(GeneratedCorpus, EveryEmittedExpressionRoundTrips)
{
    SCOPED_TRACE("seed=" + std::to_string(GetParam()));
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(smallProfile(GetParam()));
    std::size_t exprs_checked = 0;
    for (const FunctionDecl* fn : loaded.program->functions()) {
        std::vector<const Expr*> exprs;
        collectExprs(fn->body, exprs);
        for (const Expr* expr : exprs) {
            std::string printed = exprToString(*expr);
            AstContext ctx;
            support::SourceManager sm;
            TranslationUnit tu =
                parseSource(ctx, sm, "rt.c",
                            "void f(void) { " + printed + "; }");
            const auto* stmt = static_cast<const ExprStmt*>(
                tu.functionDefinitions()[0]->body->stmts[0]);
            ASSERT_TRUE(exprEquals(*expr, *stmt->expr))
                << "function " << fn->name << ", printed: " << printed;
            EXPECT_EQ(printed, exprToString(*stmt->expr));
            ++exprs_checked;
        }
    }
    EXPECT_GT(exprs_checked, 0u);
}

TEST_P(GeneratedCorpus, FingerprintsAreStableAndSeedSensitive)
{
    SCOPED_TRACE("seed=" + std::to_string(GetParam()));
    corpus::LoadedProtocol a =
        corpus::loadProtocol(smallProfile(GetParam()));
    corpus::LoadedProtocol b =
        corpus::loadProtocol(smallProfile(GetParam()));
    EXPECT_EQ(fingerprintFunctions(*a.program),
              fingerprintFunctions(*b.program));
    corpus::LoadedProtocol other =
        corpus::loadProtocol(smallProfile(GetParam() + 100));
    EXPECT_NE(fingerprintFunctions(*a.program),
              fingerprintFunctions(*other.program));
}

TEST(UpdateSourceFingerprint, MemoEqualsTheReLexForEveryFile)
{
    // updateSource fills a re-parsed unit's fingerprint memo from the
    // tokens its own parse lexed; a fresh lex of the file must hash the
    // same, for every file of every paper program, edited or not.
    std::size_t files = 0;
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        SCOPED_TRACE(profile.name);
        const corpus::GeneratedProtocol gen =
            corpus::generateProtocol(profile);
        Program program(/*recover=*/true);
        for (const corpus::GeneratedFile& file : gen.files)
            program.addSource(file.name, file.source);
        for (std::size_t i = 0; i < gen.files.size(); ++i) {
            const corpus::GeneratedFile& file = gen.files[i];
            for (const std::string& text :
                 {file.source, file.source + "\nint memo_probe;\n"}) {
                SCOPED_TRACE(file.name);
                const TranslationUnit* unit =
                    program.updateSource(file.name, text);
                ASSERT_NE(unit, nullptr);
                ASSERT_TRUE(unit->issues.empty());
                const std::uint64_t memo =
                    unit->fingerprint.value.load(std::memory_order_relaxed);
                EXPECT_NE(memo, 0u);
                EXPECT_EQ(memo, unitFingerprint(program.sourceManager(),
                                                unit->file_id));
            }
            ++files;
        }
    }
    EXPECT_GT(files, 1000u);
}

/** Where `fn` is defined: its file's name and position. */
std::string
definitionSite(const Program& program, const FunctionDecl* fn)
{
    if (!fn)
        return "<none>";
    return program.sourceManager().fileName(fn->loc.file_id) + ":" +
           std::to_string(fn->loc.line) + ":" +
           std::to_string(fn->loc.column);
}

TEST(UpdateSourceIndex, FollowsEditsLikeAFreshProgram)
{
    // updateSource re-indexes only the replaced unit's definitions; the
    // definition list and every name's latest definition must still be
    // what a program built from scratch over the same texts holds, as
    // edits add, remove, duplicate and rename functions.
    const corpus::GeneratedProtocol gen =
        corpus::generateProtocol(corpus::profileByName("bitvector"));
    std::vector<std::string> names;
    std::vector<std::string> texts;
    for (std::size_t i = 0; i < gen.files.size() && i < 12; ++i) {
        names.push_back(gen.files[i].name);
        texts.push_back(gen.files[i].source);
    }
    Program resident(/*recover=*/true);
    for (std::size_t i = 0; i < names.size(); ++i)
        resident.addSource(names[i], texts[i]);
    Rng rng(2026);
    for (int step = 0; step < 120; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const std::size_t f = rng.below(static_cast<std::uint32_t>(names.size()));
        const std::string n = std::to_string(step);
        switch (rng.below(5)) {
          case 0: // a new function
            texts[f] += "\nvoid extra_" + n + "(void) { }\n";
            break;
          case 1: // a name another file may define too
            texts[f] += "\nstatic void shared_helper(void) { }\n";
            break;
          case 2: // the same name twice in one file
            texts[f] += "\nvoid twice(void) { }\nvoid twice(void) { }\n";
            break;
          case 3: // back to the generated text: added functions go
            texts[f] = gen.files[f].source;
            break;
          default: // a file that defines nothing
            texts[f] = "int only_data_" + n + ";\n";
            break;
        }
        ASSERT_NE(resident.updateSource(names[f], texts[f]), nullptr);

        Program fresh(/*recover=*/true);
        for (std::size_t i = 0; i < names.size(); ++i)
            fresh.addSource(names[i], texts[i]);
        ASSERT_EQ(resident.functions().size(), fresh.functions().size());
        for (std::size_t i = 0; i < fresh.functions().size(); ++i) {
            const FunctionDecl* a = resident.functions()[i];
            const FunctionDecl* b = fresh.functions()[i];
            EXPECT_EQ(a->name, b->name);
            EXPECT_EQ(definitionSite(resident, a), definitionSite(fresh, b));
            EXPECT_EQ(definitionSite(resident, resident.findFunction(a->name)),
                      definitionSite(fresh, fresh.findFunction(b->name)))
                << a->name;
        }
        for (const char* name : {"shared_helper", "twice", "extra_0"})
            EXPECT_EQ(definitionSite(resident, resident.findFunction(name)),
                      definitionSite(fresh, fresh.findFunction(name)))
                << name;
    }
}

TEST_P(GeneratedCorpus, ColdAndWarmPipelinesProduceIdenticalBytes)
{
    SCOPED_TRACE("seed=" + std::to_string(GetParam()));
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) /
                   ("mccheck_property_cache_" +
                    std::to_string(GetParam()));
    fs::remove_all(dir);

    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(smallProfile(GetParam()));
    auto run = [&](cache::AnalysisCache* c) {
        auto set = checkers::makeAllCheckers();
        support::DiagnosticSink sink;
        checkers::ParallelRunOptions options;
        options.jobs = 2;
        options.cache = c;
        checkers::runCheckersParallel(*loaded.program, loaded.gen.spec,
                                      set.pointers(), sink, options);
        std::ostringstream out;
        sink.print(out, &loaded.program->sourceManager());
        sink.printJson(out, &loaded.program->sourceManager());
        sink.printSarif(out, &loaded.program->sourceManager());
        return out.str();
    };

    std::string uncached = run(nullptr);
    cache::AnalysisCache cold(dir.string());
    EXPECT_EQ(run(&cold), uncached);
    EXPECT_GT(cold.stats().stores, 0u);
    cache::AnalysisCache warm(dir.string());
    EXPECT_EQ(run(&warm), uncached);
    EXPECT_GT(warm.stats().hits, 0u);
    EXPECT_EQ(warm.stats().misses, 0u);
    fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedCorpus, ::testing::Range(0, 6));

} // namespace
} // namespace mc::lang
