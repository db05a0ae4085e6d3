/**
 * @file
 * Golden-file tests for the machine-readable diagnostic emitters: a small
 * fixture protocol is checked with the shipped wait_for_db metal checker,
 * a lanes-style inter-procedural finding (with back-trace) is added, and
 * the JSON / SARIF renderings are compared byte-for-byte against
 * tests/goldens/. Regenerate with:
 *     MCHECK_REGEN_GOLDENS=1 build/tests/test_observability
 */
#include "cfg/cfg.h"
#include "lang/program.h"
#include "metal/engine.h"
#include "metal/metal_parser.h"
#include "support/diagnostics.h"
#include "support/witness.h"

#include "json_test_util.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#ifndef MCHECK_GOLDEN_DIR
#error "MCHECK_GOLDEN_DIR must be defined by the build"
#endif

namespace mc {
namespace {

/** Two handlers; the second reads the DMA buffer without waiting. */
const char* const kFixtureSource =
    "void PILocalGet(void) {\n"
    "    WAIT_FOR_DB_FULL(addr);\n"
    "    MISCBUS_READ_DB(addr, buf);\n"
    "}\n"
    "void NILocalPut(void) {\n"
    "    MISCBUS_READ_DB(addr, buf);\n"
    "}\n";

/** Build the fixture sink every emitter test shares. */
void
buildFixture(lang::Program& program, support::DiagnosticSink& sink)
{
    program.addSource("fixture.c", kFixtureSource);
    metal::MetalProgram checker = metal::parseMetal(
        "sm wait_for_db {\n"
        "  decl { scalar } addr, buf;\n"
        "  start:\n"
        "    { WAIT_FOR_DB_FULL(addr); } ==> stop\n"
        "  | { MISCBUS_READ_DB(addr, buf); } ==> "
        "{ err(\"Buffer not synchronized\"); }\n"
        "  ;\n"
        "}\n");
    for (const lang::FunctionDecl* fn : program.functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        metal::runStateMachine(*checker.sm, cfg, sink);
    }

    // A lanes-style inter-procedural finding, to exercise back-traces.
    support::Diagnostic lanes;
    lanes.severity = support::Severity::Error;
    lanes.loc = support::SourceLoc{1, 6, 5};
    lanes.checker = "lanes";
    lanes.rule = "overflow";
    lanes.message = "lane quota exceeded";
    lanes.trace = {"NILocalPut (fixture.c:5)", "helper (fixture.c:6)"};
    sink.report(lanes);
}

std::string
goldenPath(const std::string& name)
{
    return std::string(MCHECK_GOLDEN_DIR) + "/" + name;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open golden file " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Compare `actual` to the golden, or rewrite it in regen mode. */
void
expectMatchesGolden(const std::string& actual, const std::string& name)
{
    if (std::getenv("MCHECK_REGEN_GOLDENS")) {
        std::ofstream out(goldenPath(name));
        out << actual;
        return;
    }
    EXPECT_EQ(actual, readFile(goldenPath(name)))
        << "golden mismatch for " << name
        << " — if the output change is intentional, run "
           "tools/regen_goldens.sh and review the diff";
}

/** Enable witness capture for one test; restores the default (off). */
struct WitnessConfigGuard
{
    explicit WitnessConfigGuard(unsigned limit = 0)
    {
        support::setWitnessConfig(true, limit);
    }
    ~WitnessConfigGuard() { support::setWitnessConfig(false, 0); }
};

TEST(DiagnosticFormats, JsonMatchesGoldenAndParses)
{
    lang::Program program;
    support::DiagnosticSink sink;
    buildFixture(program, sink);

    std::ostringstream os;
    sink.printJson(os, &program.sourceManager());

    testjson::Value root;
    ASSERT_NO_THROW(root = testjson::parse(os.str()));
    EXPECT_EQ(root.at("counts").at("error").number, 2.0);
    ASSERT_EQ(root.at("diagnostics").array.size(), 2u);
    // Both findings land on fixture.c:6:5, so the sorted emission order
    // breaks the tie by checker name: "lanes" before "wait_for_db".
    const auto& first = root.at("diagnostics").array[0];
    EXPECT_EQ(first.at("checker").string, "lanes");
    ASSERT_EQ(first.at("trace").array.size(), 2u);
    EXPECT_EQ(first.at("trace").array[0].string,
              "NILocalPut (fixture.c:5)");
    const auto& second = root.at("diagnostics").array[1];
    EXPECT_EQ(second.at("checker").string, "wait_for_db");
    EXPECT_EQ(second.at("file").string, "fixture.c");
    EXPECT_EQ(second.at("line").number, 6.0);

    expectMatchesGolden(os.str(), "fixture_diagnostics.json");
}

TEST(DiagnosticFormats, SarifMatchesGoldenAndParses)
{
    lang::Program program;
    support::DiagnosticSink sink;
    buildFixture(program, sink);

    std::ostringstream os;
    sink.printSarif(os, &program.sourceManager());

    testjson::Value root;
    ASSERT_NO_THROW(root = testjson::parse(os.str()));
    EXPECT_EQ(root.at("version").string, "2.1.0");
    ASSERT_EQ(root.at("runs").array.size(), 1u);
    const auto& run = root.at("runs").array[0];
    EXPECT_EQ(run.at("tool").at("driver").at("name").string, "mccheck");
    ASSERT_EQ(run.at("results").array.size(), 2u);
    // Tie on location, so sorted emission puts "lanes" first; it carries
    // its back-trace as a SARIF stack.
    const auto& lanes = run.at("results").array[0];
    EXPECT_EQ(lanes.at("ruleId").string, "lanes.overflow");
    ASSERT_EQ(lanes.at("stacks").array.size(), 1u);
    EXPECT_EQ(lanes.at("stacks").array[0].at("frames").array.size(), 2u);
    const auto& result = run.at("results").array[1];
    EXPECT_EQ(result.at("ruleId").string,
              "wait_for_db.buffer-not-synchronized");
    EXPECT_EQ(result.at("level").string, "error");
    const auto& region = result.at("locations")
                             .array[0]
                             .at("physicalLocation")
                             .at("region");
    EXPECT_EQ(region.at("startLine").number, 6.0);

    expectMatchesGolden(os.str(), "fixture_diagnostics.sarif");
}

TEST(WitnessFormats, TextMatchesGolden)
{
    WitnessConfigGuard witness;
    lang::Program program;
    support::DiagnosticSink sink;
    buildFixture(program, sink);

    std::ostringstream os;
    sink.print(os, &program.sourceManager());
    EXPECT_NE(os.str().find("witness: blocks"), std::string::npos);
    EXPECT_NE(os.str().find("step start => start"), std::string::npos);
    expectMatchesGolden(os.str(), "fixture_witness.txt");
}

TEST(WitnessFormats, JsonMatchesGoldenAndParses)
{
    WitnessConfigGuard witness;
    lang::Program program;
    support::DiagnosticSink sink;
    buildFixture(program, sink);

    std::ostringstream os;
    sink.printJson(os, &program.sourceManager());

    testjson::Value root;
    ASSERT_NO_THROW(root = testjson::parse(os.str()));
    ASSERT_EQ(root.at("diagnostics").array.size(), 2u);
    // The walker-sourced finding carries full provenance; the manually
    // reported lanes finding (no walk, no trail) gets the structural
    // fallback — one step at the rule's evaluation site, no block path —
    // so --witness guarantees every finding carries a witness.
    const auto& lanes = root.at("diagnostics").array[0];
    EXPECT_EQ(lanes.at("checker").string, "lanes");
    const auto& lanes_witness = lanes.at("witness");
    EXPECT_TRUE(lanes_witness.at("blocks").array.empty());
    ASSERT_EQ(lanes_witness.at("steps").array.size(), 1u);
    const auto& lanes_step = lanes_witness.at("steps").array[0];
    EXPECT_EQ(lanes_step.at("from").string, "decl");
    EXPECT_EQ(lanes_step.at("to").string, "decl");
    EXPECT_NE(lanes_step.at("note").string.find("structural"),
              std::string::npos);
    const auto& finding = root.at("diagnostics").array[1];
    EXPECT_EQ(finding.at("checker").string, "wait_for_db");
    const auto& witness_obj = finding.at("witness");
    EXPECT_FALSE(witness_obj.at("blocks").array.empty());
    ASSERT_EQ(witness_obj.at("steps").array.size(), 1u);
    const auto& step = witness_obj.at("steps").array[0];
    EXPECT_EQ(step.at("from").string, "start");
    EXPECT_EQ(step.at("to").string, "start");
    EXPECT_EQ(step.at("file").string, "fixture.c");
    EXPECT_EQ(step.at("line").number, 6.0);
    EXPECT_NE(step.at("note").string.find("rule"), std::string::npos);

    expectMatchesGolden(os.str(), "fixture_witness.json");
}

TEST(WitnessFormats, SarifCarriesCodeFlowsAndMatchesGolden)
{
    WitnessConfigGuard witness;
    lang::Program program;
    support::DiagnosticSink sink;
    buildFixture(program, sink);

    std::ostringstream os;
    sink.printSarif(os, &program.sourceManager());

    testjson::Value root;
    ASSERT_NO_THROW(root = testjson::parse(os.str()));
    const auto& run = root.at("runs").array[0];
    ASSERT_EQ(run.at("results").array.size(), 2u);
    const auto& result = run.at("results").array[1];
    EXPECT_EQ(result.at("ruleId").string,
              "wait_for_db.buffer-not-synchronized");
    ASSERT_EQ(result.at("codeFlows").array.size(), 1u);
    const auto& flow = result.at("codeFlows").array[0];
    EXPECT_NE(flow.at("message").at("text").string.find("block path"),
              std::string::npos);
    ASSERT_EQ(flow.at("threadFlows").array.size(), 1u);
    const auto& locations = flow.at("threadFlows").array[0].at("locations");
    ASSERT_FALSE(locations.array.empty());
    const auto& loc = locations.array[0].at("location");
    EXPECT_EQ(loc.at("physicalLocation")
                  .at("artifactLocation")
                  .at("uri")
                  .string,
              "fixture.c");
    EXPECT_NE(loc.at("message").at("text").string.find("start => start"),
              std::string::npos);

    expectMatchesGolden(os.str(), "fixture_witness.sarif");
}

TEST(WitnessFormats, OffByDefaultLeavesFindingsBare)
{
    // No guard: the process-wide default must be witness-off.
    lang::Program program;
    support::DiagnosticSink sink;
    buildFixture(program, sink);

    std::ostringstream os;
    sink.printJson(os, &program.sourceManager());
    EXPECT_EQ(os.str().find("\"witness\""), std::string::npos);
    for (const support::Diagnostic& d : sink.diagnostics())
        EXPECT_TRUE(d.witness.empty());
}

TEST(WitnessFormats, ReportedWitnessSurvivesSinkToSinkMerge)
{
    // The parallel runner replays private-sink findings into the shared
    // sink outside any walk; the witness attached at capture time must
    // ride along unchanged.
    lang::Program program;
    support::DiagnosticSink unit_sink;
    {
        WitnessConfigGuard witness;
        buildFixture(program, unit_sink);
    }
    support::DiagnosticSink merged;
    for (const support::Diagnostic& d : unit_sink.diagnostics())
        merged.report(d);

    std::ostringstream a, b;
    unit_sink.printJson(a, &program.sourceManager());
    merged.printJson(b, &program.sourceManager());
    EXPECT_EQ(a.str(), b.str());
}

TEST(DiagnosticFormats, WriteDispatchesOnFormat)
{
    support::DiagnosticSink sink;
    sink.error(support::SourceLoc{1, 1, 1}, "c", "r", "m");

    std::ostringstream text, json, sarif;
    sink.write(text, support::OutputFormat::Text);
    sink.write(json, support::OutputFormat::Json);
    sink.write(sarif, support::OutputFormat::Sarif);
    EXPECT_NE(text.str().find("[c.r]"), std::string::npos);
    EXPECT_NE(json.str().find("\"diagnostics\""), std::string::npos);
    EXPECT_NE(sarif.str().find("\"2.1.0\""), std::string::npos);
}

TEST(DiagnosticSink, DedupKeyIsNotFooledByDelimiters)
{
    // With string-concatenated keys, ("a\x1f" "b", "c") and ("a", "b\x1f"
    // "c") collided. The structured tuple key keeps them distinct.
    support::DiagnosticSink sink;
    support::SourceLoc at{1, 1, 1};
    EXPECT_TRUE(sink.error(at, "a\x1f"
                               "b",
                           "c", "first"));
    EXPECT_TRUE(sink.error(at, "a",
                           "b\x1f"
                           "c",
                           "second"));
    EXPECT_EQ(sink.count(support::Severity::Error), 2);
}

TEST(DiagnosticFormats, MessagesWithQuotesAndNewlinesStayWellFormed)
{
    support::DiagnosticSink sink;
    sink.error(support::SourceLoc{1, 2, 3}, "checker\"q", "rule\\b",
               "line1\nline2\t\"quoted\"");

    std::ostringstream json, sarif;
    sink.printJson(json);
    sink.printSarif(sarif);
    testjson::Value jroot, sroot;
    ASSERT_NO_THROW(jroot = testjson::parse(json.str()));
    ASSERT_NO_THROW(sroot = testjson::parse(sarif.str()));
    EXPECT_EQ(jroot.at("diagnostics").array[0].at("message").string,
              "line1\nline2\t\"quoted\"");
}

} // namespace
} // namespace mc
