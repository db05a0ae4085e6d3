/**
 * @file
 * ResidentState and memory-cache tests: overlay precedence for the
 * daemon's open/change/close documents, snapshot reuse with in-place
 * re-parse of exactly the changed files (stable file ids), LRU
 * eviction of file snapshots, protocol/metal snapshot reuse, resident
 * unit results (ResidentUnits: what a re-check may reuse, and what the
 * store keeps, always byte-identical to a fresh batch run), and the
 * in-memory AnalysisCache mode (decoded units that equal a disk round
 * trip, zero filesystem traffic, safe to share across threads).
 */
#include "server/resident.h"

#include "cache/analysis_cache.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "metal/feasibility.h"
#include "server/check_request.h"
#include "server/daemon.h"
#include "server/json.h"
#include "support/fault_injection.h"
#include "tests/cache/unit_fixtures.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace mc::server {
namespace {

/** A FileReader over an in-test map (no filesystem). */
class MapReader
{
  public:
    std::map<std::string, std::string> files;

    FileReader reader()
    {
        return [this](const std::string& path, std::string& contents,
                      std::string& error) {
            auto it = files.find(path);
            if (it == files.end()) {
                error = "cannot open " + path;
                return false;
            }
            contents = it->second;
            return true;
        };
    }
};

TEST(ResidentDocuments, OverlayShadowsDiskAndCloseRestoresIt)
{
    ResidentState resident;
    EXPECT_FALSE(resident.hasDocument("doc.c"));

    resident.openDocument("doc.c", "int overlay;\n");
    ASSERT_TRUE(resident.hasDocument("doc.c"));
    EXPECT_EQ(resident.documentCount(), 1u);

    std::string contents;
    std::string error;
    ASSERT_TRUE(resident.readFile("doc.c", contents, error));
    EXPECT_EQ(contents, "int overlay;\n");

    // Re-open replaces the overlay in place.
    resident.openDocument("doc.c", "int newer;\n");
    EXPECT_EQ(resident.documentCount(), 1u);
    ASSERT_TRUE(resident.readFile("doc.c", contents, error));
    EXPECT_EQ(contents, "int newer;\n");

    // Close drops the overlay; the path now resolves to disk (and this
    // one does not exist there).
    EXPECT_TRUE(resident.closeDocument("doc.c"));
    EXPECT_FALSE(resident.closeDocument("doc.c"));
    EXPECT_FALSE(resident.readFile("doc.c", contents, error));
    EXPECT_FALSE(error.empty());
}

TEST(ResidentPrograms, SameFileListReusesTheSnapshot)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    disk.files["b.c"] = "void fb(void) { y = 2; }\n";
    const std::vector<std::string> files = {"a.c", "b.c"};

    PreparedProgram first = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.reused);
    EXPECT_EQ(first.files_reparsed, 2u);
    ASSERT_NE(first.program, nullptr);
    ASSERT_NE(first.cfg_cache, nullptr);
    EXPECT_EQ(resident.fileSnapshotCount(), 1u);

    PreparedProgram second = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(second.ok);
    EXPECT_TRUE(second.reused);
    EXPECT_EQ(second.files_reparsed, 0u);
    // The very same resident program object serves again.
    EXPECT_EQ(second.program, first.program);
    EXPECT_EQ(resident.fileSnapshotCount(), 1u);
}

TEST(ResidentPrograms, EditedFileReparsesInPlaceOnly)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    disk.files["b.c"] = "void fb(void) { y = 2; }\n";
    const std::vector<std::string> files = {"a.c", "b.c"};

    PreparedProgram first = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(first.ok) << first.error;
    const std::size_t functions_before = resident.residentFunctionCount();

    // Grow b.c by one routine: exactly one file re-parses, in place.
    disk.files["b.c"] =
        "void fb(void) { y = 2; }\nvoid fb2(void) { z = 3; }\n";
    PreparedProgram second = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.reused);
    EXPECT_EQ(second.files_reparsed, 1u);
    EXPECT_EQ(second.program, first.program);
    EXPECT_EQ(resident.residentFunctionCount(), functions_before + 1);

    // Unchanged again: free.
    PreparedProgram third = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(third.ok);
    EXPECT_EQ(third.files_reparsed, 0u);
}

TEST(ResidentPrograms, IdenticalBytesReparseNothing)
{
    // A `change` that writes back the bytes already resident costs no
    // re-parse: the resident program's own text is the reference.
    ResidentState resident;
    resident.openDocument("a.c", "void fa(void) { x = 1; }\n");
    resident.openDocument("b.c", "void fb(void) { y = 2; }\n");
    const std::vector<std::string> files = {"a.c", "b.c"};
    FileReader reader = [&](const std::string& path, std::string& contents,
                            std::string& error) {
        return resident.readFile(path, contents, error);
    };
    PreparedProgram first = resident.prepareFiles(files, reader);
    ASSERT_TRUE(first.ok) << first.error;

    resident.openDocument("b.c", "void fb(void) { y = 2; }\n");
    PreparedProgram second = resident.prepareFiles(files, reader);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.reused);
    EXPECT_EQ(second.files_reparsed, 0u);
    EXPECT_EQ(second.program, first.program);
}

TEST(ResidentPrograms, SameLengthOneByteEditReparsesOnlyThatFile)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    disk.files["b.c"] = "void fb(void) { y = 2; }\n";
    disk.files["c.c"] = "void fc(void) { z = 3; }\n";
    const std::vector<std::string> files = {"a.c", "b.c", "c.c"};
    PreparedProgram first = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(first.ok) << first.error;
    const lang::Program& program = *first.program;
    const lang::FunctionDecl* fa = program.functions()[0];
    const lang::FunctionDecl* fb = program.functions()[1];
    const lang::FunctionDecl* fc = program.functions()[2];

    // Same length, one byte apart: no size check can tell them apart.
    disk.files["b.c"] = "void fb(void) { y = 7; }\n";
    PreparedProgram second = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.reused);
    EXPECT_EQ(second.files_reparsed, 1u);
    EXPECT_EQ(program.sourceManager().fileContents(
                  program.units()[1].file_id),
              disk.files["b.c"]);
    // The untouched files keep their declarations (and resident CFGs).
    EXPECT_EQ(program.functions()[0], fa);
    EXPECT_NE(program.functions()[1], fb);
    EXPECT_EQ(program.functions()[2], fc);
}

TEST(ResidentPrograms, ReaderErrorReportsTheFirstFailingFile)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    disk.files["b.c"] = "void fb(void) { y = 2; }\n";
    disk.files["c.c"] = "void fc(void) { z = 3; }\n";
    const std::vector<std::string> files = {"a.c", "b.c", "c.c"};
    PreparedProgram first = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(first.ok) << first.error;

    // Both b.c and c.c fail; the error names b.c, as a batch run would.
    const std::map<std::string, std::string> saved = disk.files;
    disk.files.erase("b.c");
    disk.files.erase("c.c");
    PreparedProgram failed = resident.prepareFiles(files, disk.reader());
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("b.c"), std::string::npos) << failed.error;
    EXPECT_EQ(failed.error.find("c.c"), std::string::npos) << failed.error;

    // The snapshot is untouched and serves the restored files for free.
    disk.files = saved;
    PreparedProgram again = resident.prepareFiles(files, disk.reader());
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_TRUE(again.reused);
    EXPECT_EQ(again.files_reparsed, 0u);
    EXPECT_EQ(again.program, first.program);
}

TEST(ResidentPrograms, DifferentFileListBuildsASecondSnapshot)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    disk.files["b.c"] = "void fb(void) { y = 2; }\n";

    PreparedProgram both =
        resident.prepareFiles({"a.c", "b.c"}, disk.reader());
    ASSERT_TRUE(both.ok);
    PreparedProgram just_a = resident.prepareFiles({"a.c"}, disk.reader());
    ASSERT_TRUE(just_a.ok);
    EXPECT_FALSE(just_a.reused);
    EXPECT_NE(just_a.program, both.program);
    EXPECT_EQ(resident.fileSnapshotCount(), 2u);
}

TEST(ResidentPrograms, SnapshotsAreLruBounded)
{
    ResidentState resident;
    MapReader disk;
    for (int i = 0; i < 6; ++i)
        disk.files["f" + std::to_string(i) + ".c"] =
            "void fn" + std::to_string(i) + "(void) { x = 1; }\n";

    for (int i = 0; i < 6; ++i) {
        PreparedProgram p = resident.prepareFiles(
            {"f" + std::to_string(i) + ".c"}, disk.reader());
        ASSERT_TRUE(p.ok);
    }
    // The resident set is bounded; the oldest snapshots were evicted.
    EXPECT_LE(resident.fileSnapshotCount(), 4u);

    // The most recent list is still resident...
    PreparedProgram recent = resident.prepareFiles({"f5.c"}, disk.reader());
    EXPECT_TRUE(recent.reused);
    // ...and the evicted one rebuilds from scratch.
    PreparedProgram evicted = resident.prepareFiles({"f0.c"}, disk.reader());
    EXPECT_FALSE(evicted.reused);
}

TEST(ResidentPrograms, MissingFileFailsWithoutPoisoningTheSnapshot)
{
    ResidentState resident;
    MapReader disk;
    disk.files["a.c"] = "void fa(void) { x = 1; }\n";
    PreparedProgram ok = resident.prepareFiles({"a.c"}, disk.reader());
    ASSERT_TRUE(ok.ok);

    PreparedProgram missing =
        resident.prepareFiles({"a.c", "ghost.c"}, disk.reader());
    EXPECT_FALSE(missing.ok);
    EXPECT_NE(missing.error.find("ghost.c"), std::string::npos);

    // The original snapshot still serves.
    PreparedProgram again = resident.prepareFiles({"a.c"}, disk.reader());
    ASSERT_TRUE(again.ok);
    EXPECT_TRUE(again.reused);
}

TEST(ResidentPrograms, ProtocolSnapshotLoadsOnceAndReuses)
{
    ResidentState resident;
    checkers::CfgCache* cfgs = nullptr;
    checkers::ResidentUnits* units = nullptr;
    bool reused = true;
    corpus::LoadedProtocol& first =
        resident.protocolSnapshot("bitvector", cfgs, units, reused);
    EXPECT_FALSE(reused);
    ASSERT_NE(cfgs, nullptr);
    ASSERT_NE(units, nullptr);
    ASSERT_NE(first.program, nullptr);
    EXPECT_EQ(resident.protocolSnapshotCount(), 1u);

    checkers::CfgCache* cfgs2 = nullptr;
    checkers::ResidentUnits* units2 = nullptr;
    corpus::LoadedProtocol& second =
        resident.protocolSnapshot("bitvector", cfgs2, units2, reused);
    EXPECT_TRUE(reused);
    EXPECT_EQ(&second, &first);
    EXPECT_EQ(cfgs2, cfgs);
    EXPECT_EQ(units2, units);

    EXPECT_THROW(resident.protocolSnapshot("no_such", cfgs, units, reused),
                 std::out_of_range);
}

TEST(ResidentMetal, ProgramsAreKeyedBySourceContent)
{
    ResidentState resident;
    const std::string source = "sm probe {\n"
                               "    pat assign = { x = 1 } ;\n"
                               "    first:\n"
                               "        assign ==> { err(\"assign seen\"); } ;\n"
                               "}\n";
    const checkers::CheckerSetOptions options;
    const checkers::CheckerDef& first =
        resident.metalChecker(source, "probe.metal", options);
    EXPECT_EQ(first.name(), "metal:probe");
    EXPECT_EQ(resident.metalProgramCount(), 1u);
    const checkers::CheckerDef& second =
        resident.metalChecker(source, "probe.metal", options);
    EXPECT_EQ(&second, &first);
    EXPECT_EQ(resident.metalProgramCount(), 1u);

    // Different source text compiles a second resident program.
    resident.metalChecker(source + "\n", "probe.metal", options);
    EXPECT_EQ(resident.metalProgramCount(), 2u);

    EXPECT_THROW(resident.metalChecker("sm broken {", "broken.metal",
                                       options),
                 metal::MetalParseError);
}

// ---- resident unit results ------------------------------------------------

/** The knobs of a check that change what a unit produces. */
struct RunConfig
{
    bool witness = false;
    metal::PruneStrategy prune = metal::PruneStrategy::Off;
    unsigned long max_steps = 0;
};

/** What a check answered: its bytes and the daemon's reuse stats. */
struct Answer
{
    std::string output;
    int exit_code = 3;
    std::int64_t units_total = 0;
    std::int64_t units_reused = 0;
};

/**
 * A daemon over overlay documents, checked side by side with a fresh
 * batch run of the same bytes: every check asserts the two agree.
 */
class ResidentSession
{
  public:
    explicit ResidentSession(std::map<std::string, std::string> files)
        : daemon_({}), files_(std::move(files))
    {
        for (const auto& [path, text] : files_)
            send("open", path, text);
    }

    std::vector<std::string> paths() const
    {
        std::vector<std::string> out;
        for (const auto& [path, _] : files_)
            out.push_back(path);
        return out;
    }

    const std::string& text(const std::string& path) const
    {
        return files_.at(path);
    }

    void change(const std::string& path, std::string text)
    {
        files_[path] = text;
        send("change", path, text);
    }

    /** Check `files` in the daemon and in batch; they must agree. */
    Answer check(const std::vector<std::string>& files,
                 const RunConfig& config = {})
    {
        JsonValue params = JsonValue::object();
        JsonValue list = JsonValue::array();
        for (const std::string& f : files)
            list.push(JsonValue::string(f));
        params.set("files", std::move(list));
        params.set("format", JsonValue::string("json"));
        params.set("jobs", JsonValue::number(std::int64_t{2}));
        params.set("witness", JsonValue::boolean(config.witness));
        params.set("prune_paths", JsonValue::string(metal::pruneStrategyName(
                                      config.prune)));
        if (config.max_steps != 0)
            params.set("unit_max_steps",
                       JsonValue::number(
                           static_cast<std::uint64_t>(config.max_steps)));
        JsonValue request = JsonValue::object();
        request.set("method", JsonValue::string("check"));
        request.set("params", std::move(params));
        const std::string line = daemon_.handleRequestLine(request.dump());
        JsonValue response;
        std::string error;
        EXPECT_TRUE(JsonValue::parse(line, response, error)) << line;
        const JsonValue* result = response.get("result");
        EXPECT_NE(result, nullptr) << line;
        Answer answer;
        if (!result)
            return answer;
        answer.output = result->get("output")->asString();
        answer.exit_code =
            static_cast<int>(result->get("exit_code")->asInt());
        const JsonValue* stats = result->get("stats");
        answer.units_total = stats->get("units_total")->asInt();
        answer.units_reused = stats->get("units_reused")->asInt();

        const Answer batch = batchRun(files, config);
        EXPECT_EQ(answer.output, batch.output);
        EXPECT_EQ(answer.exit_code, batch.exit_code);
        return answer;
    }

    /** Unit results resident across every snapshot. */
    std::size_t residentUnits() { return daemon_.resident().residentUnitCount(); }

  private:
    Answer batchRun(const std::vector<std::string>& files,
                    const RunConfig& config) const
    {
        CheckRequest request;
        request.mode = CheckRequest::Mode::Files;
        request.files = files;
        request.format = support::OutputFormat::Json;
        request.jobs = 2;
        request.witness = config.witness;
        request.prune_strategy = config.prune;
        request.unit_max_steps = config.max_steps;
        request.read_file = [this](const std::string& path,
                                   std::string& contents,
                                   std::string& error) {
            auto it = files_.find(path);
            if (it == files_.end()) {
                error = "cannot open " + path;
                return false;
            }
            contents = it->second;
            return true;
        };
        std::ostringstream out;
        std::ostringstream err;
        const CheckOutcome outcome =
            runCheckRequest(request, nullptr, nullptr, out, err);
        Answer answer;
        answer.output = out.str();
        answer.exit_code = outcome.exit_code;
        return answer;
    }

    void send(const std::string& method, const std::string& path,
              const std::string& text)
    {
        JsonValue params = JsonValue::object();
        params.set("path", JsonValue::string(path));
        params.set("text", JsonValue::string(text));
        JsonValue request = JsonValue::object();
        request.set("method", JsonValue::string(method));
        request.set("params", std::move(params));
        const std::string line = daemon_.handleRequestLine(request.dump());
        EXPECT_EQ(line.find("\"error\""), std::string::npos) << line;
    }

    Daemon daemon_;
    std::map<std::string, std::string> files_;
};

/** The first `n` files of a generated protocol: real handler code. */
std::map<std::string, std::string>
corpusFiles(std::size_t n)
{
    const corpus::GeneratedProtocol gen =
        corpus::generateProtocol(corpus::profileByName("bitvector"));
    std::map<std::string, std::string> files;
    for (const corpus::GeneratedFile& file : gen.files) {
        if (files.size() == n)
            break;
        files.emplace(file.name, file.source);
    }
    return files;
}

TEST(ResidentUnits, AnEditReusesEveryUnitOutsideTheEditedFile)
{
    ResidentSession session(corpusFiles(4));
    const std::vector<std::string> files = session.paths();
    const Answer cold = session.check(files);
    EXPECT_EQ(cold.units_reused, 0);
    EXPECT_EQ(static_cast<std::int64_t>(session.residentUnits()),
              cold.units_total);

    // A declaration appended to one file: its units re-run, no other.
    const std::string& edited = files[1];
    const std::int64_t edited_units =
        session.check({edited}).units_total;
    session.change(edited, session.text(edited) + "int probe_decl;\n");
    const Answer warm = session.check(files);
    EXPECT_EQ(warm.units_reused, cold.units_total - edited_units);

    const Answer again = session.check(files);
    EXPECT_EQ(again.units_reused, again.units_total);
}

TEST(ResidentUnits, AddingOrRemovingAFunctionReusesNothing)
{
    ResidentSession session(corpusFiles(4));
    const std::vector<std::string> files = session.paths();
    const std::string original = session.text(files[2]);
    session.check(files);

    // Files mode classifies every function into the spec, so a new
    // function changes every unit's key...
    session.change(files[2], original + "void added_fn(void) { y = 1; }\n");
    const Answer added = session.check(files);
    EXPECT_GT(added.units_total, 0);
    EXPECT_EQ(added.units_reused, 0);

    // ...and so does taking it away again.
    session.change(files[2], original);
    const Answer removed = session.check(files);
    EXPECT_EQ(removed.units_reused, 0);
    EXPECT_EQ(removed.units_total + 9, added.units_total);
}

TEST(ResidentUnits, ConfigurationsNeverShareResults)
{
    ResidentSession session(corpusFiles(3));
    const std::vector<std::string> files = session.paths();
    RunConfig witness_on;
    witness_on.witness = true;
    RunConfig witness_off;
    RunConfig correlated;
    correlated.prune = metal::PruneStrategy::Correlated;
    RunConfig constraints;
    constraints.prune = metal::PruneStrategy::Constraints;

    EXPECT_EQ(session.check(files, witness_on).units_reused, 0);
    EXPECT_EQ(session.check(files, witness_off).units_reused, 0);
    EXPECT_EQ(session.check(files, witness_on).units_reused, 0);
    // The same configuration twice in a row reuses everything.
    const Answer repeat = session.check(files, witness_on);
    EXPECT_EQ(repeat.units_reused, repeat.units_total);

    EXPECT_EQ(session.check(files, correlated).units_reused, 0);
    EXPECT_EQ(session.check(files, constraints).units_reused, 0);
    EXPECT_EQ(session.check(files, witness_off).units_reused, 0);
    EXPECT_EQ(session.check(files, correlated).units_reused, 0);
}

TEST(ResidentUnits, FailedUnitsAreNotKept)
{
    ResidentSession session(corpusFiles(4));
    const std::vector<std::string> files = session.paths();
    if (!support::fault::arm("checker.unit:5"))
        GTEST_SKIP() << "fault injection compiled out";
    const Answer faulted = session.check(files);
    support::fault::disarm();
    EXPECT_EQ(faulted.exit_code, 2);
    const std::size_t kept = session.residentUnits();
    EXPECT_GT(kept, 0u);
    EXPECT_LT(static_cast<std::int64_t>(kept), faulted.units_total);

    // Every failed unit runs again; every completed one is reused.
    const Answer healed = session.check(files);
    EXPECT_NE(healed.exit_code, 2);
    EXPECT_EQ(healed.units_reused, static_cast<std::int64_t>(kept));
    EXPECT_EQ(static_cast<std::int64_t>(session.residentUnits()),
              healed.units_total);
}

TEST(ResidentUnits, BudgetTruncatedUnitsAreNotKept)
{
    ResidentSession session(corpusFiles(4));
    const std::vector<std::string> files = session.paths();
    RunConfig tight;
    tight.max_steps = 1;
    const Answer truncated = session.check(files, tight);
    EXPECT_EQ(truncated.exit_code, 2);
    const std::size_t kept = session.residentUnits();
    EXPECT_LT(static_cast<std::int64_t>(kept), truncated.units_total);

    const Answer full = session.check(files);
    EXPECT_NE(full.exit_code, 2);
    EXPECT_EQ(full.units_reused, static_cast<std::int64_t>(kept));
    EXPECT_EQ(static_cast<std::int64_t>(session.residentUnits()),
              full.units_total);
}

TEST(ResidentUnits, StoreHoldsExactlyUnitsTotalAfter200Edits)
{
    ResidentSession session(corpusFiles(4));
    const std::vector<std::string> files = session.paths();
    std::map<std::string, std::string> original;
    for (const std::string& path : files)
        original[path] = session.text(path);
    std::mt19937 rng(17);
    Answer last = session.check(files);
    for (int edit = 1; edit <= 200; ++edit) {
        SCOPED_TRACE("edit " + std::to_string(edit));
        const std::string& path = files[rng() % files.size()];
        const std::string n = std::to_string(edit);
        switch (rng() % 3) {
          case 0:
            session.change(path, session.text(path) + "int edit_" + n +
                                     ";\n");
            break;
          case 1:
            session.change(path, session.text(path) + "void edit_fn_" + n +
                                     "(void) { y = " + n + "; }\n");
            break;
          default:
            session.change(path, original[path]);
            break;
        }
        last = session.check(files);
        ASSERT_EQ(static_cast<std::int64_t>(session.residentUnits()),
                  last.units_total);
    }
    EXPECT_GT(last.units_total, 0);
}

TEST(ResidentUnits, SameNamedHelpersInTwoFilesKeepTheirOwnResults)
{
    // Each file defines its own static helper: editing one helper must
    // re-run that helper's units and reuse the other file's.
    const std::string helper = "static void helper(void) { int x = 1; }\n";
    ResidentSession session({{"a.c", helper}, {"b.c", helper}});
    const std::vector<std::string> files = session.paths();
    const Answer cold = session.check(files);
    EXPECT_EQ(cold.units_reused, 0);

    session.change("a.c", "static void helper(void) { float x = 1.5; }\n");
    const Answer edited = session.check(files);
    EXPECT_EQ(edited.units_reused * 2, edited.units_total);
    EXPECT_NE(edited.output, cold.output);
    const Answer again = session.check(files);
    EXPECT_EQ(again.units_reused, again.units_total);
}

TEST(ResidentUnits, ANameDefinedTwiceInOneFileKeepsBothResults)
{
    // Two definitions of one name in one file: a re-check reuses each
    // one's own findings, not one definition's for both.
    ResidentSession session(std::map<std::string, std::string>{
        {"c.c", "static void helper(void) { int x = 1; }\n"
                "static void helper(void) { float y = 1.5; }\n"}});
    const std::vector<std::string> files = session.paths();
    const Answer cold = session.check(files);
    const Answer again = session.check(files);
    EXPECT_EQ(again.units_reused, again.units_total);
    EXPECT_EQ(again.output, cold.output);
}

TEST(ResidentUnits, EvictingASnapshotDropsItsUnits)
{
    ResidentSession session(corpusFiles(ResidentState::kMaxFileSnapshots + 1));
    const std::vector<std::string> files = session.paths();
    ASSERT_EQ(files.size(), ResidentState::kMaxFileSnapshots + 1);
    // One single-file set per snapshot; the fifth evicts the first.
    std::int64_t held = 0;
    for (std::size_t i = 0; i < files.size(); ++i) {
        const Answer cold = session.check({files[i]});
        EXPECT_EQ(cold.units_reused, 0);
        if (i > 0)
            held += cold.units_total;
    }
    EXPECT_EQ(static_cast<std::int64_t>(session.residentUnits()), held);

    EXPECT_EQ(session.check({files[0]}).units_reused, 0);
    // The most recent sets still reuse everything.
    const Answer recent = session.check({files.back()});
    EXPECT_EQ(recent.units_reused, recent.units_total);
}

TEST(ResidentUnits, RebuildingASnapshotDropsItsUnits)
{
    std::map<std::string, std::string> base = corpusFiles(3);
    // A file large enough that two in-place re-parses pass the arena
    // waste bound, so the third check rebuilds the program.
    const std::string big = base.begin()->first;
    base[big] += "/*" + std::string(4u << 20, 'x') + "*/\n";
    ResidentSession session(std::move(base));
    const std::vector<std::string> files = session.paths();
    const Answer cold = session.check(files);

    session.change(big, session.text(big) + "int edit_1;\n");
    const Answer first = session.check(files);
    EXPECT_GT(first.units_reused, 0);
    session.change(big, session.text(big) + "int edit_2;\n");
    const Answer second = session.check(files);
    EXPECT_GT(second.units_reused, 0);

    // No edit: only the rebuild can make this check reuse nothing.
    const Answer rebuilt = session.check(files);
    EXPECT_EQ(rebuilt.units_reused, 0);
    EXPECT_EQ(rebuilt.units_total, cold.units_total);
    const Answer again = session.check(files);
    EXPECT_EQ(again.units_reused, again.units_total);
}

TEST(MemoryCache, StoresAndReplaysWithoutAFilesystem)
{
    std::unique_ptr<cache::AnalysisCache> cache =
        cache::AnalysisCache::inMemory();
    EXPECT_TRUE(cache->memoryBacked());
    EXPECT_FALSE(cache->readonly());
    EXPECT_EQ(cache->entryCount(), 0u);

    cache::CachedUnit unit;
    unit.checker = "lanes";
    unit.function = "PILocalGet";
    unit.state = "applied 1\n";
    cache::CachedDiagnostic diag;
    diag.severity = 1;
    diag.file = "a.c";
    diag.line = 3;
    diag.column = 1;
    diag.checker = "lanes";
    diag.rule = "lane-overflow";
    diag.message = "too many lanes";
    unit.diags.push_back(diag);
    cache->store(0xabcdefu, unit);

    EXPECT_EQ(cache->entryCount(), 1u);
    EXPECT_GT(cache->residentBytes(), 0u);

    std::shared_ptr<const cache::CachedUnit> loaded =
        cache->lookup(0xabcdefu);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->checker, unit.checker);
    EXPECT_EQ(loaded->function, unit.function);
    EXPECT_EQ(loaded->state, unit.state);
    ASSERT_EQ(loaded->diags.size(), 1u);
    EXPECT_EQ(loaded->diags[0].message, "too many lanes");

    EXPECT_EQ(cache->lookup(0x1234u), nullptr);

    cache::CacheStats stats = cache->stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_TRUE(cache->takeWarnings().empty());
}

TEST(MemoryCache, TrimEvictsOldestStoredFirst)
{
    std::unique_ptr<cache::AnalysisCache> cache =
        cache::AnalysisCache::inMemory();
    cache::CachedUnit unit;
    unit.checker = "lanes";
    unit.state = "applied 1\n";
    for (std::uint64_t key = 1; key <= 3; ++key) {
        unit.function = "fn" + std::to_string(key);
        cache->store(key, unit);
    }
    const std::uint64_t total = cache->residentBytes();
    ASSERT_GT(total, 0u);

    // Room for roughly two entries: the first-stored key goes.
    cache->trim(total - total / 3);
    EXPECT_LT(cache->entryCount(), 3u);
    EXPECT_EQ(cache->lookup(1), nullptr);
    EXPECT_NE(cache->lookup(3), nullptr);
    EXPECT_GE(cache->stats().evictions, 1u);

    // trim(0) empties the store.
    cache->trim(0);
    EXPECT_EQ(cache->entryCount(), 0u);
    EXPECT_EQ(cache->residentBytes(), 0u);
}

TEST(MemoryCache, ResidentUnitsEqualTheDiskRoundTrip)
{
    std::unique_ptr<cache::AnalysisCache> cache =
        cache::AnalysisCache::inMemory();
    const cache::CachedUnit unit = cache::testing::sampleUnit();
    cache::CachedUnit plain;
    plain.checker = "no_float";
    plain.function = "f";
    const std::string text = cache::AnalysisCache::encodeUnit(unit);
    const std::string plain_text = cache::AnalysisCache::encodeUnit(plain);
    cache::CachedUnit round_trip;
    std::string error;
    ASSERT_TRUE(cache::AnalysisCache::decodeUnit(text, round_trip, error))
        << error;

    cache->store(1, unit);
    cache->store(2, plain);
    EXPECT_EQ(cache->residentBytes(), text.size() + plain_text.size());
    EXPECT_EQ(cache->stats().bytes_written,
              text.size() + plain_text.size());

    std::shared_ptr<const cache::CachedUnit> loaded = cache->lookup(1);
    ASSERT_NE(loaded, nullptr);
    ASSERT_EQ(loaded->diags.size(), 2u);
    ASSERT_EQ(loaded->diags[0].wsteps.size(), 2u);
    cache::testing::expectSameUnit(round_trip, *loaded);
    EXPECT_EQ(cache->stats().bytes_read, text.size());

    // A hit shares the resident unit instead of decoding a copy, and the
    // unit outlives its eviction.
    EXPECT_EQ(cache->lookup(1).get(), loaded.get());
    cache->trim(0);
    EXPECT_EQ(cache->residentBytes(), 0u);
    cache::testing::expectSameUnit(round_trip, *loaded);
}

TEST(MemoryCache, UnitsThatFailTheRoundTripAreNotStored)
{
    std::unique_ptr<cache::AnalysisCache> cache =
        cache::AnalysisCache::inMemory();
    cache::CachedUnit unit;
    unit.checker = "lanes";
    unit.function = "f";
    cache::CachedDiagnostic diag;
    diag.severity = 7; // encodes, but no decoder accepts it
    diag.file = "a.c";
    unit.diags.push_back(diag);
    cache->store(5, unit);

    EXPECT_EQ(cache->entryCount(), 0u);
    EXPECT_EQ(cache->stats().stores, 0u);
    EXPECT_EQ(cache->lookup(5), nullptr);
    std::vector<std::string> warnings = cache->takeWarnings();
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("not stored"), std::string::npos);
}

TEST(MemoryCache, ArmedLookupProbeDemotesAHitAndEvicts)
{
    std::unique_ptr<cache::AnalysisCache> cache =
        cache::AnalysisCache::inMemory();
    cache->store(9, cache::testing::sampleUnit());
    ASSERT_EQ(cache->entryCount(), 1u);

    if (!support::fault::arm("cache.lookup:1"))
        GTEST_SKIP() << "fault injection compiled out";
    EXPECT_EQ(cache->lookup(9), nullptr);
    support::fault::disarm();

    EXPECT_EQ(cache->entryCount(), 0u);
    EXPECT_EQ(cache->lookup(9), nullptr);
    cache::CacheStats stats = cache->stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.corrupt, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(cache->takeWarnings().size(), 1u);
}

TEST(MemoryCache, ConcurrentLookupsAndStoresShareEntries)
{
    // Phase-0 workers share one resident tier; run under TSan in CI.
    std::unique_ptr<cache::AnalysisCache> cache =
        cache::AnalysisCache::inMemory();
    constexpr int kThreads = 8;
    constexpr std::uint64_t kKeys = 64;
    const cache::CachedUnit unit = cache::testing::sampleUnit();
    const std::string text = cache::AnalysisCache::encodeUnit(unit);
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int round = 0; round < 4; ++round) {
                for (std::uint64_t k = 0; k < kKeys; ++k) {
                    const std::uint64_t key = (k * 7 + t) % kKeys;
                    if ((key + round) % 2 == 0)
                        cache->store(key, unit);
                    std::shared_ptr<const cache::CachedUnit> hit =
                        cache->lookup(key);
                    if (hit && (hit->function != unit.function ||
                                hit->diags.size() != unit.diags.size()))
                        wrong.fetch_add(1);
                }
            }
        });
    }
    go.store(true);
    for (std::thread& thread : threads)
        thread.join();

    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_EQ(cache->entryCount(), kKeys);
    EXPECT_EQ(cache->residentBytes(), kKeys * text.size());
    cache::CacheStats stats = cache->stats();
    EXPECT_EQ(stats.hits + stats.misses, kThreads * 4 * kKeys);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_TRUE(cache->takeWarnings().empty());
}

} // namespace
} // namespace mc::server
