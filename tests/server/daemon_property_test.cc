/**
 * @file
 * Randomized edit-session differential: a seeded generator drives the
 * daemon through open/change/check sequences over corpus-derived
 * sources, and after EVERY intermediate step the daemon's check
 * response must be byte-identical (output and exit code) to a fresh
 * batch runCheckRequest over the same snapshot — resident programs,
 * in-place re-parses, and fingerprint-keyed replay may never show
 * through in the bytes. Edits add, remove and damage functions, touch
 * two files at once, and close and reopen documents; sessions run
 * plain, with --witness and under --prune-paths correlated. Failures print the seed (SCOPED_TRACE) so any
 * divergence replays deterministically.
 */
#include "server/daemon.h"

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "server/check_request.h"
#include "server/json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace mc::server {
namespace {

/** The check options a session runs both sides under. */
struct SessionOptions
{
    bool witness = false;
    metal::PruneStrategy prune = metal::PruneStrategy::Off;
};

/** The authoritative answer: a cold batch run over `snapshot`. */
struct BatchResult
{
    std::string output;
    int exit_code = 3;
};

BatchResult
batchRun(const std::map<std::string, std::string>& snapshot,
         const std::vector<std::string>& files,
         const SessionOptions& options = {})
{
    CheckRequest request;
    request.mode = CheckRequest::Mode::Files;
    request.files = files;
    request.format = support::OutputFormat::Json;
    request.jobs = 2;
    request.witness = options.witness;
    request.prune_strategy = options.prune;
    request.read_file = [&snapshot](const std::string& path,
                                    std::string& contents,
                                    std::string& error) {
        auto it = snapshot.find(path);
        if (it == snapshot.end()) {
            error = "no such overlay";
            return false;
        }
        contents = it->second;
        return true;
    };
    std::ostringstream out;
    std::ostringstream err;
    CheckOutcome outcome =
        runCheckRequest(request, /*cache=*/nullptr, /*resident=*/nullptr,
                        out, err);
    return BatchResult{out.str(), outcome.exit_code};
}

JsonValue
jsonRequest(Daemon& daemon, const JsonValue& request)
{
    std::string line = daemon.handleRequestLine(request.dump());
    JsonValue response;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(line, response, error)) << line;
    EXPECT_EQ(response.get("error"), nullptr) << line;
    return response;
}

void
closeDocument(Daemon& daemon, const std::string& path)
{
    JsonValue request = JsonValue::object();
    request.set("method", JsonValue::string("close"));
    JsonValue params = JsonValue::object();
    params.set("path", JsonValue::string(path));
    request.set("params", std::move(params));
    jsonRequest(daemon, request);
}

void
sendDocument(Daemon& daemon, const std::string& method,
             const std::string& path, const std::string& text)
{
    JsonValue request = JsonValue::object();
    request.set("method", JsonValue::string(method));
    JsonValue params = JsonValue::object();
    params.set("path", JsonValue::string(path));
    params.set("text", JsonValue::string(text));
    request.set("params", std::move(params));
    jsonRequest(daemon, request);
}

/** One daemon check over `files`; returns (output, exit_code, stats). */
JsonValue
daemonCheck(Daemon& daemon, const std::vector<std::string>& files,
            const SessionOptions& options = {})
{
    JsonValue request = JsonValue::object();
    request.set("method", JsonValue::string("check"));
    JsonValue params = JsonValue::object();
    JsonValue list = JsonValue::array();
    for (const std::string& f : files)
        list.push(JsonValue::string(f));
    params.set("files", std::move(list));
    params.set("format", JsonValue::string("json"));
    params.set("jobs", JsonValue::number(std::int64_t{2}));
    if (options.witness)
        params.set("witness", JsonValue::boolean(true));
    if (options.prune != metal::PruneStrategy::Off)
        params.set("prune_paths", JsonValue::string(metal::pruneStrategyName(
                                      options.prune)));
    request.set("params", std::move(params));
    JsonValue response = jsonRequest(daemon, request);
    const JsonValue* result = response.get("result");
    EXPECT_NE(result, nullptr);
    return result ? *result : JsonValue();
}

/** Corpus-derived base sources: real handler code, kept small. */
std::map<std::string, std::string>
baseSources(std::size_t max_files)
{
    corpus::ProtocolProfile profile = corpus::profileByName("bitvector");
    corpus::GeneratedProtocol gen = corpus::generateProtocol(profile);
    std::map<std::string, std::string> snapshot;
    for (const corpus::GeneratedFile& file : gen.files) {
        if (snapshot.size() >= max_files)
            break;
        snapshot.emplace(file.name, file.source);
    }
    return snapshot;
}

class EditSession
{
  public:
    EditSession(std::uint32_t seed,
                std::map<std::string, std::string> base)
        : rng_(seed), snapshot_(std::move(base)), original_(snapshot_)
    {
        for (const auto& [path, _] : snapshot_)
            paths_.push_back(path);
    }

    /** Apply one random mutation through both the daemon and snapshot. */
    void mutate(Daemon& daemon)
    {
        const std::string& path = pick(paths_);
        switch (rng_() % 7) {
          case 5: { // two files in one step
            const std::string& other = pick(paths_);
            edit(daemon, path);
            if (other != path)
                edit(daemon, other);
            return;
          }
          case 6: { // close the document, then reopen it edited
            closeDocument(daemon, path);
            snapshot_[path] += "int reopened_" + std::to_string(++counter_) +
                               ";\n";
            sendDocument(daemon, "open", path, snapshot_[path]);
            return;
          }
          default:
            edit(daemon, path);
            return;
        }
    }

    /** One random change of `path`'s text. */
    void edit(Daemon& daemon, const std::string& path)
    {
        std::string& text = snapshot_[path];
        const std::string n = std::to_string(++counter_);
        switch (rng_() % 5) {
          case 0: // benign declaration: fingerprints shift, findings don't
            text += "int probe_" + n + ";\n";
            break;
          case 1: // new routine: the unit set itself changes
            text += "void extra_" + n + "(void) { y = " + n + "; }\n";
            break;
          case 2: // parse damage: error-recovery must stay byte-stable
            text += "int broken_" + n + "(\n";
            break;
          case 3: { // remove the last routine an edit added, if any
            const std::size_t at = text.rfind("void extra_");
            if (at != std::string::npos) {
                const std::size_t eol = text.find('\n', at);
                text.erase(at, eol == std::string::npos ? std::string::npos
                                                        : eol + 1 - at);
                break;
            }
            text = original_.at(path);
            break;
          }
          default: // revert to the pristine generated source
            text = original_.at(path);
            break;
        }
        sendDocument(daemon, "change", path, text);
    }

    /** A random non-empty subset of the files, in stable order. */
    std::vector<std::string> someFiles()
    {
        std::vector<std::string> files;
        for (const std::string& path : paths_)
            if (rng_() % 3 != 0)
                files.push_back(path);
        if (files.empty())
            files.push_back(pick(paths_));
        return files;
    }

    const std::map<std::string, std::string>& snapshot() const
    {
        return snapshot_;
    }

  private:
    const std::string& pick(const std::vector<std::string>& v)
    {
        return v[rng_() % v.size()];
    }

    std::mt19937 rng_;
    std::map<std::string, std::string> snapshot_;
    std::map<std::string, std::string> original_;
    std::vector<std::string> paths_;
    int counter_ = 0;
};

void
runSession(std::uint32_t seed, int steps, const SessionOptions& options = {})
{
    SCOPED_TRACE("edit-session seed " + std::to_string(seed));
    Daemon daemon({});
    EditSession session(seed, baseSources(/*max_files=*/6));
    for (const auto& [path, text] : session.snapshot())
        sendDocument(daemon, "open", path, text);

    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        if (step > 0)
            session.mutate(daemon);
        const std::vector<std::string> files = session.someFiles();
        JsonValue result = daemonCheck(daemon, files, options);
        BatchResult batch = batchRun(session.snapshot(), files, options);
        ASSERT_NE(result.get("output"), nullptr);
        EXPECT_EQ(result.get("output")->asString(), batch.output);
        EXPECT_EQ(result.get("exit_code")->asInt(), batch.exit_code);
    }
}

TEST(DaemonProperty, EditSessionsMatchBatchSeed1)
{
    runSession(1, 10);
}

TEST(DaemonProperty, EditSessionsMatchBatchSeed2)
{
    runSession(20260807, 10);
}

TEST(DaemonProperty, EditSessionsMatchBatchSeed3)
{
    runSession(424242, 10);
}

TEST(DaemonProperty, EditSessionsMatchBatchWithWitness)
{
    SessionOptions options;
    options.witness = true;
    runSession(1, 16, options);
    runSession(31337, 16, options);
}

TEST(DaemonProperty, EditSessionsMatchBatchPruneCorrelated)
{
    SessionOptions options;
    options.prune = metal::PruneStrategy::Correlated;
    runSession(2, 16, options);
    runSession(8675309, 16, options);
}

/** Re-checking an unchanged snapshot must fully reuse resident state —
 *  and still match batch bytes exactly. */
TEST(DaemonProperty, UnchangedRecheckReusesEverything)
{
    Daemon daemon({});
    EditSession session(7, baseSources(/*max_files=*/4));
    for (const auto& [path, text] : session.snapshot())
        sendDocument(daemon, "open", path, text);

    std::vector<std::string> files;
    for (const auto& [path, _] : session.snapshot())
        files.push_back(path);

    JsonValue cold = daemonCheck(daemon, files);
    JsonValue warm = daemonCheck(daemon, files);
    EXPECT_EQ(warm.get("output")->asString(),
              cold.get("output")->asString());

    const JsonValue* stats = warm.get("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->get("files_reparsed")->asInt(), 0);
    EXPECT_TRUE(stats->get("program_reused")->asBool());
    EXPECT_GT(stats->get("units_total")->asInt(), 0);
    EXPECT_EQ(stats->get("units_reused")->asInt(),
              stats->get("units_total")->asInt());
}

} // namespace
} // namespace mc::server
