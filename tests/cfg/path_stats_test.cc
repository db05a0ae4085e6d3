#include "cfg/path_stats.h"
#include "lang/program.h"
#include "metal/metal_parser.h"
#include "tests/metal/reference_sm.h"

#include <gtest/gtest.h>

namespace mc::cfg {
namespace {

struct Built
{
    lang::Program program;
    Cfg cfg;
};

std::unique_ptr<Built>
build(const std::string& body)
{
    auto b = std::make_unique<Built>();
    b->program.addSource("t.c", "void f(void) {\n" + body + "\n}");
    b->cfg = CfgBuilder::build(*b->program.findFunction("f"));
    return b;
}

TEST(PathStats, StraightLineIsOnePath)
{
    auto b = build("a();\nb();\nc();");
    PathStats stats = computePathStats(b->cfg);
    EXPECT_EQ(stats.path_count, 1u);
    EXPECT_EQ(stats.max_length_lines, 3u);
    EXPECT_DOUBLE_EQ(stats.avg_length_lines, 3.0);
}

TEST(PathStats, IfDoubles)
{
    auto b = build("if (c)\na();\nz();");
    PathStats stats = computePathStats(b->cfg);
    EXPECT_EQ(stats.path_count, 2u);
}

TEST(PathStats, SequentialIfsMultiply)
{
    // The paper's "if-else on the same condition twice" shape: 4 paths
    // statically (the checker famously cannot prune the 2 impossible
    // ones).
    auto b = build("if (c)\na();\nelse\nb();\nif (c)\nd();\nelse\ne();");
    PathStats stats = computePathStats(b->cfg);
    EXPECT_EQ(stats.path_count, 4u);
}

TEST(PathStats, SwitchAddsArms)
{
    auto b = build("switch (op) {\ncase 1: a(); break;\ncase 2: b(); "
                   "break;\ndefault: c();\n}");
    PathStats stats = computePathStats(b->cfg);
    EXPECT_EQ(stats.path_count, 3u);
}

TEST(PathStats, LoopCountsAsAcyclic)
{
    // Back edges are excluded, so a while is take-it-or-not: 2 acyclic
    // routes only when something follows... here entry->head->exit and
    // entry->head->body->(back edge dropped): body is a dead end, so 1.
    auto b = build("while (c)\nbody();\nz();");
    PathStats stats = computePathStats(b->cfg);
    EXPECT_EQ(stats.path_count, 1u);
}

TEST(PathStats, MaxLongerThanAvg)
{
    auto b = build("if (c) {\na();\nb();\nd();\n}\nz();");
    PathStats stats = computePathStats(b->cfg);
    EXPECT_EQ(stats.path_count, 2u);
    EXPECT_GT(stats.max_length_lines, 2u);
    EXPECT_LT(stats.avg_length_lines,
              static_cast<double>(stats.max_length_lines));
}

TEST(PathStats, DeepBranchingSaturatesNotHangs)
{
    // 40 sequential ifs = 2^40 paths; DP must stay fast and exact.
    std::string body;
    for (int i = 0; i < 40; ++i)
        body += "if (c" + std::to_string(i) + ")\nx();\n";
    auto b = build(body);
    PathStats stats = computePathStats(b->cfg);
    EXPECT_EQ(stats.path_count, 1ull << 40);
}

TEST(PathStats, AggregateAcrossFunctions)
{
    ProtocolPathStats agg;
    PathStats a;
    a.path_count = 2;
    a.avg_length_lines = 10.0;
    a.max_length_lines = 12;
    PathStats b;
    b.path_count = 2;
    b.avg_length_lines = 20.0;
    b.max_length_lines = 30;
    agg.add(a);
    agg.add(b);
    EXPECT_EQ(agg.total_paths, 4u);
    EXPECT_DOUBLE_EQ(agg.avg_length_lines, 15.0);
    EXPECT_EQ(agg.max_length_lines, 30u);
}

TEST(EnumeratePaths, YieldsEachAcyclicPath)
{
    auto b = build("if (c)\na();\nelse\nb();\nz();");
    int count = 0;
    bool complete = enumeratePaths(
        b->cfg, [&](const std::vector<int>& path) {
            ++count;
            EXPECT_EQ(path.front(), b->cfg.entryId());
            EXPECT_EQ(path.back(), b->cfg.exitId());
        });
    EXPECT_TRUE(complete);
    EXPECT_EQ(count, 2);
}

TEST(EnumeratePaths, RespectsLimit)
{
    std::string body;
    for (int i = 0; i < 10; ++i)
        body += "if (c" + std::to_string(i) + ")\nx();\n";
    auto b = build(body);
    int count = 0;
    bool complete =
        enumeratePaths(b->cfg, [&](const std::vector<int>&) { ++count; },
                       16);
    EXPECT_FALSE(complete);
    EXPECT_EQ(count, 16);
}

TEST(EnumeratePaths, ExactlyLimitPathsIsComplete)
{
    // 2^4 paths under a limit of 16: every path is seen, none is left.
    std::string body;
    for (int i = 0; i < 4; ++i)
        body += "if (c" + std::to_string(i) + ")\nx();\n";
    auto b = build(body);
    int count = 0;
    EXPECT_TRUE(enumeratePaths(
        b->cfg, [&](const std::vector<int>&) { ++count; }, 16));
    EXPECT_EQ(count, 16);
}

TEST(EnumeratePaths, BackEdgeTakesBoundLoopIterations)
{
    // A while loop: 0 takes gives only the path that skips the body;
    // each further take adds the path with one more iteration.
    auto b = build("while (c)\nbody();\nz();");
    for (unsigned takes : {0u, 1u, 3u}) {
        std::uint64_t paths = 0;
        EXPECT_TRUE(enumeratePaths(
            b->cfg, [&](const std::vector<int>&) { ++paths; }, 1u << 20,
            takes));
        EXPECT_EQ(paths, takes + 1u) << takes << " takes";
    }
}

/** Reports `use()` after two ticks; a tick moves start -> one -> two. */
const char* kTwoTicks = R"metal(
sm two_ticks {
    start:
        { tick(); } ==> one ;
    one:
        { tick(); } ==> two ;
    two:
        { use(); } ==> { err("used after two ticks"); } ;
}
)metal";

TEST(ReferenceEnumerator, SecondIterationFindingNeedsStateCountTakes)
{
    // The body changes the state on every iteration, but only the second
    // reaches `two`: a path must take the back edge twice. One take
    // misses the finding; the state count (start, one, two, stop) of
    // takes reports it.
    metal::MetalProgram mp = metal::parseMetal(kTwoTicks);
    auto b = build("while (c) {\ntick();\n}\nuse();");
    ASSERT_EQ(metal::reference::stateCount(*mp.sm), 4u);

    support::DiagnosticSink once;
    metal::reference::Result r1 =
        metal::reference::runEnumerated(*mp.sm, b->cfg, once, 1u);
    ASSERT_TRUE(r1.covered);
    EXPECT_EQ(once.diagnostics().size(), 0u);

    support::DiagnosticSink full;
    metal::reference::Result rk =
        metal::reference::runEnumerated(*mp.sm, b->cfg, full);
    ASSERT_TRUE(rk.covered);
    ASSERT_EQ(full.diagnostics().size(), 1u);
    EXPECT_EQ(full.diagnostics()[0].message, "used after two ticks");
    EXPECT_GT(rk.paths, r1.paths);
}

TEST(ReferenceEnumerator, OverThePathCapIsSkippedNotTruncated)
{
    // 2^12 paths are covered; 2^13 are over the cap, so the function is
    // reported as skipped: nothing runs and nothing is reported, even
    // though every path ends in the bug.
    const char* kReadBeforeWait = R"metal(
sm wait_for_db {
    decl { scalar } addr, buf;
    start:
        { WAIT_FOR_DB_FULL(addr); } ==> stop
      | { MISCBUS_READ_DB(addr, buf); } ==> { err("unsynchronized"); } ;
}
)metal";
    metal::MetalProgram mp = metal::parseMetal(kReadBeforeWait);
    for (int ifs : {12, 13}) {
        std::string body;
        for (int i = 0; i < ifs; ++i)
            body += "if (c" + std::to_string(i) + ")\nx();\n";
        body += "MISCBUS_READ_DB(a, b);";
        auto b = build(body);
        support::DiagnosticSink sink;
        metal::reference::Result r =
            metal::reference::runEnumerated(*mp.sm, b->cfg, sink);
        if (ifs == 12) {
            EXPECT_TRUE(r.covered);
            EXPECT_EQ(r.paths, metal::reference::kPathCap);
            EXPECT_EQ(sink.diagnostics().size(), 1u);
        } else {
            EXPECT_FALSE(r.covered);
            EXPECT_EQ(r.paths, 0u);
            EXPECT_TRUE(r.firings.empty());
            EXPECT_TRUE(sink.diagnostics().empty());
        }
    }
}

TEST(PathStats, MatchesEnumerationOnRandomShapes)
{
    // Property check: DP count equals explicit enumeration on a spread of
    // small bodies.
    const char* bodies[] = {
        "a();",
        "if (x)\na();\nz();",
        "if (x)\na();\nelse\nb();\nif (y)\nc();",
        "switch (o) {\ncase 1: a();\ncase 2: b(); break;\ndefault: c();\n}",
        "if (x) {\nif (y)\na();\nb();\n}\nz();",
        "if (x)\nreturn;\nif (y)\nreturn;\nz();",
    };
    for (const char* body : bodies) {
        auto b = build(body);
        PathStats stats = computePathStats(b->cfg);
        std::uint64_t enumerated = 0;
        enumeratePaths(b->cfg,
                       [&](const std::vector<int>&) { ++enumerated; });
        EXPECT_EQ(stats.path_count, enumerated) << "body: " << body;
    }
}

} // namespace
} // namespace mc::cfg
