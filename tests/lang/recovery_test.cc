/**
 * @file
 * Parser error recovery: malformed declarations poison instead of
 * aborting, siblings keep parsing, fingerprints exclude degraded units,
 * and a degraded run renders to stable text/JSON/SARIF bytes (goldens
 * under tests/goldens/, regenerated by tools/regen_goldens.sh).
 */
#include "lang/fingerprint.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/program.h"
#include "support/diagnostics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#ifndef MCHECK_GOLDEN_DIR
#error "MCHECK_GOLDEN_DIR must be defined by the build"
#endif

namespace mc::lang {
namespace {

/** The malformed-if fixture: BrokenHandler dies, two siblings survive. */
const char* const kBrokenIf =
    "void BrokenHandler(void) {\n"
    "  if (x {\n"
    "  }\n"
    "}\n"
    "void SiblingGet(void) {\n"
    "  int y = 1;\n"
    "}\n"
    "int helper(void) { return 2; }\n";

std::vector<std::string>
functionNames(const Program& program)
{
    std::vector<std::string> names;
    for (const FunctionDecl* fn : program.functions())
        names.emplace_back(fn->name);
    return names;
}

TEST(Recovery, StrictModeStillThrows)
{
    Program strict;
    EXPECT_THROW(strict.addSource("broken.c", kBrokenIf), ParseError);
}

TEST(Recovery, SiblingsSurviveMalformedHandler)
{
    Program program(/*recover=*/true);
    TranslationUnit& tu = program.addSource("broken.c", kBrokenIf);

    EXPECT_TRUE(program.degraded());
    ASSERT_EQ(tu.issues.size(), 1u);
    EXPECT_EQ(tu.issues[0].rule, "parse-error");
    EXPECT_EQ(tu.issues[0].loc.line, 2);

    // The poisoned declaration is present in the unit but not among the
    // checkable functions.
    bool poisoned_seen = false;
    for (const Decl* decl : tu.decls)
        if (decl->dkind == DeclKind::Poisoned) {
            poisoned_seen = true;
            const auto& p = static_cast<const PoisonedDecl&>(*decl);
            EXPECT_EQ(p.name, "BrokenHandler");
        }
    EXPECT_TRUE(poisoned_seen);
    EXPECT_EQ(functionNames(program),
              (std::vector<std::string>{"SiblingGet", "helper"}));
}

TEST(Recovery, StrayTokensAtTopLevel)
{
    Program program(/*recover=*/true);
    // The junk region ends at a top-level ';', so panic-mode skipping
    // stops there and the next declaration parses normally. (Unterminated
    // junk would swallow up to the next top-level ';' or '}' — inherent
    // to statement-boundary recovery.)
    TranslationUnit& tu = program.addSource(
        "stray.c",
        "42 + ;\n"
        "void Ok(void) { int x = 1; }\n"
        "} stray ;\n"
        "int also_ok;\n");
    EXPECT_TRUE(program.degraded());
    EXPECT_FALSE(tu.issues.empty());
    const std::vector<std::string> names = functionNames(program);
    EXPECT_TRUE(std::find(names.begin(), names.end(), "Ok") !=
                names.end())
        << "sibling function lost to stray top-level tokens";
}

TEST(Recovery, TruncatedFile)
{
    Program program(/*recover=*/true);
    TranslationUnit& tu = program.addSource(
        "trunc.c",
        "void Whole(void) { int a = 1; }\n"
        "void Truncated(void) {\n"
        "  while (1) {\n"
        "    int y =\n");
    EXPECT_TRUE(program.degraded());
    EXPECT_FALSE(tu.issues.empty());
    EXPECT_EQ(functionNames(program),
              (std::vector<std::string>{"Whole"}));
}

TEST(Recovery, LexErrorPoisonsUnitInsteadOfThrowing)
{
    Program program(/*recover=*/true);
    // The dialect lexer rejects stray characters like backticks.
    TranslationUnit& tu = program.addSource(
        "lexfail.c", "void A(void) { int x = 1; }\n`\n");
    EXPECT_TRUE(program.degraded());
    ASSERT_FALSE(tu.issues.empty());
    EXPECT_EQ(tu.issues[0].rule, "lex-error");
}

TEST(Recovery, CleanUnitsUnaffectedByRecoveryMode)
{
    Program program(/*recover=*/true);
    TranslationUnit& tu =
        program.addSource("clean.c", "void A(void) { int x = 1; }\n");
    EXPECT_FALSE(program.degraded());
    EXPECT_TRUE(tu.issues.empty());
    EXPECT_EQ(functionNames(program), (std::vector<std::string>{"A"}));
}

TEST(Recovery, DegradedUnitsExcludedFromFingerprints)
{
    Program program(/*recover=*/true);
    program.addSource("broken.c", kBrokenIf);
    program.addSource("clean.c", "void CleanFn(void) { int x = 1; }\n");
    // Names of the definitions that have a fingerprint.
    std::map<std::string, std::uint64_t> fps;
    const std::vector<std::uint64_t> all = fingerprintFunctions(program);
    ASSERT_EQ(all.size(), program.functions().size());
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i] != 0)
            fps.emplace(program.functions()[i]->name, all[i]);
    // The degraded unit's functions have no fingerprint — its token
    // stream contains the garbage region — while the clean unit's do.
    EXPECT_EQ(fps.count("SiblingGet"), 0u);
    EXPECT_EQ(fps.count("helper"), 0u);
    EXPECT_EQ(fps.count("CleanFn"), 1u);
}

TEST(Recovery, RecoveryIsDeterministic)
{
    auto issuesOf = [](const std::string& src) {
        Program program(true);
        TranslationUnit& tu = program.addSource("f.c", src);
        std::ostringstream os;
        for (const ParseIssue& issue : tu.issues)
            os << issue.loc.line << ':' << issue.loc.column << ' '
               << issue.rule << ' ' << issue.message << '\n';
        for (const FunctionDecl* fn :
             tu.functionDefinitions())
            os << fn->name << '\n';
        return os.str();
    };
    const std::string first = issuesOf(kBrokenIf);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(issuesOf(kBrokenIf), first);
}

// ---- golden degraded output ------------------------------------------

std::string
goldenPath(const std::string& name)
{
    return std::string(MCHECK_GOLDEN_DIR) + "/" + name;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open golden file " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Compare `actual` to the golden, or rewrite it in regen mode. */
void
expectGolden(const std::string& name, const std::string& actual)
{
    if (std::getenv("MCHECK_REGEN_GOLDENS") != nullptr) {
        std::ofstream out(goldenPath(name), std::ios::binary);
        out << actual;
        return;
    }
    EXPECT_EQ(actual, readFile(goldenPath(name)))
        << "golden mismatch for " << name
        << "; if the change is intentional, run "
           "tools/regen_goldens.sh and review the diff";
}

/** Fill `sink` with a degraded run's diagnostics: the recovered parse
 * issues, rendered the way the driver reports them ("frontend"). */
void
fillDegradedSink(const Program& program, support::DiagnosticSink& sink)
{
    for (const TranslationUnit& unit : program.units())
        for (const ParseIssue& issue : unit.issues)
            sink.error(issue.loc, "frontend", issue.rule, issue.message);
}

class RecoveryGolden : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        program_ = std::make_unique<Program>(/*recover=*/true);
        program_->addSource("handlers/broken.c", kBrokenIf);
        ASSERT_TRUE(program_->degraded());
    }

    std::string
    render(support::OutputFormat format)
    {
        support::DiagnosticSink sink;
        fillDegradedSink(*program_, sink);
        std::ostringstream os;
        sink.write(os, format, &program_->sourceManager());
        return os.str();
    }

    std::unique_ptr<Program> program_;
};

TEST_F(RecoveryGolden, Text)
{
    expectGolden("degraded_run.txt",
                 render(support::OutputFormat::Text));
}

TEST_F(RecoveryGolden, Json)
{
    expectGolden("degraded_run.json",
                 render(support::OutputFormat::Json));
}

TEST_F(RecoveryGolden, Sarif)
{
    expectGolden("degraded_run.sarif",
                 render(support::OutputFormat::Sarif));
}

} // namespace
} // namespace mc::lang
