/**
 * @file
 * Byte-for-byte differential of the engine against itself across
 * substrates: for all five paper protocols, the rendered diagnostics
 * (text, JSON, SARIF) must be identical at --jobs 1 and 4, cold and
 * against a warm analysis cache, with witnesses off and on, and the
 * engine must count the goldens' visits, transitions and firings. The
 * reference that does not share the engine's walk is the path
 * enumerator (path_enumerator_test.cc).
 */
#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "support/metrics.h"
#include "support/witness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

namespace mc {
namespace {

namespace fs = std::filesystem;

/** One protocol checked under one configuration, rendered three ways. */
struct Rendered
{
    std::string text;
    std::string json;
    std::string sarif;
    std::uint64_t cache_hits = 0;
};

Rendered
checkProtocol(const corpus::LoadedProtocol& loaded, unsigned jobs,
              cache::AnalysisCache* cache,
              metal::PruneStrategy prune = metal::PruneStrategy::Off)
{
    checkers::CheckerSetOptions set_options;
    set_options.prune_strategy = prune;
    auto set = checkers::makeAllCheckers(set_options);
    support::DiagnosticSink sink;
    checkers::ParallelRunOptions options;
    options.jobs = jobs;
    options.cache = cache;
    checkers::runCheckersParallel(*loaded.program, loaded.gen.spec,
                                  set.pointers(), sink, options);
    Rendered out;
    const support::SourceManager* sm = &loaded.program->sourceManager();
    std::ostringstream text, json, sarif;
    sink.write(text, support::OutputFormat::Text, sm);
    sink.write(json, support::OutputFormat::Json, sm);
    sink.write(sarif, support::OutputFormat::Sarif, sm);
    out.text = text.str();
    out.json = json.str();
    out.sarif = sarif.str();
    if (cache)
        out.cache_hits = cache->stats().hits;
    return out;
}

class EngineDifferential : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        // The witness configuration is process-global; never leak
        // witnesses into other tests.
        support::setWitnessConfig(false, 0);
        support::MetricsRegistry::global().setEnabled(false);
    }
};

/** Every arm must render the first arm's text, JSON and SARIF bytes. */
void
expectArmsIdentical(const std::string& name,
                    const std::vector<Rendered>& renders,
                    const std::vector<const char*>& arms)
{
    ASSERT_EQ(renders.size(), arms.size());
    for (std::size_t i = 1; i < renders.size(); ++i) {
        EXPECT_EQ(renders[i].text, renders[0].text)
            << name << " text " << arms[i];
        EXPECT_EQ(renders[i].json, renders[0].json)
            << name << " json " << arms[i];
        EXPECT_EQ(renders[i].sarif, renders[0].sarif)
            << name << " sarif " << arms[i];
    }
}

TEST_F(EngineDifferential, ByteIdenticalAcrossProtocolsJobsAndCache)
{
    fs::path cache_root =
        fs::temp_directory_path() / "mccheck_engine_diff_cache";
    fs::remove_all(cache_root);

    for (const char* name :
         {"bitvector", "dyn_ptr", "sci", "coma", "rac"}) {
        corpus::LoadedProtocol loaded =
            corpus::loadProtocol(corpus::profileByName(name));
        const fs::path dir = cache_root / name;
        std::vector<Rendered> renders;
        for (unsigned jobs : {1u, 4u})
            renders.push_back(checkProtocol(loaded, jobs, nullptr));
        {
            // Cold fill (not compared; hits may be zero).
            cache::AnalysisCache cache(dir.string());
            checkProtocol(loaded, 1, &cache);
        }
        for (unsigned jobs : {1u, 4u}) {
            cache::AnalysisCache cache(dir.string());
            renders.push_back(checkProtocol(loaded, jobs, &cache));
            EXPECT_GT(renders.back().cache_hits, 0u)
                << name << " jobs=" << jobs;
        }
        expectArmsIdentical(name, renders,
                            {"cold j1", "cold j4", "warm j1", "warm j4"});
    }
    fs::remove_all(cache_root);
}

/**
 * The same differential crossed with --prune-paths constraints: pruning
 * changes which paths are walked (and thus which diagnostics survive),
 * so job counts must agree under it independently of the prune-off arms
 * above.
 */
TEST_F(EngineDifferential, ByteIdenticalUnderConstraintsPruning)
{
    for (const char* name :
         {"bitvector", "dyn_ptr", "sci", "coma", "rac"}) {
        corpus::LoadedProtocol loaded =
            corpus::loadProtocol(corpus::profileByName(name));
        std::vector<Rendered> renders;
        for (unsigned jobs : {1u, 4u})
            renders.push_back(checkProtocol(
                loaded, jobs, nullptr, metal::PruneStrategy::Constraints));
        expectArmsIdentical(name, renders, {"prune j1", "prune j4"});
    }
}

/**
 * With --witness on, each finding carries its SM transition history and
 * CFG block path; those bytes too must not depend on the job count or
 * cache temperature (the cache key includes the witness configuration,
 * so the warm arms replay witness-bearing entries).
 */
TEST_F(EngineDifferential, WitnessBytesIdenticalAcrossJobsAndCache)
{
    fs::path cache_root =
        fs::temp_directory_path() / "mccheck_engine_witness_cache";
    fs::remove_all(cache_root);
    support::setWitnessConfig(true, 0);

    for (const char* name : {"bitvector", "sci"}) {
        corpus::LoadedProtocol loaded =
            corpus::loadProtocol(corpus::profileByName(name));
        std::vector<std::string> arms;
        std::vector<std::string> json;
        for (unsigned jobs : {1u, 4u}) {
            json.push_back(checkProtocol(loaded, jobs, nullptr).json);
            arms.push_back("cold j" + std::to_string(jobs));
        }
        const fs::path dir = cache_root / name;
        for (const char* temperature : {"cold", "warm"}) {
            cache::AnalysisCache cache(dir.string());
            json.push_back(checkProtocol(loaded, 4, &cache).json);
            arms.push_back(std::string(temperature) + " cache j4");
            if (temperature == std::string("warm")) {
                EXPECT_GT(cache.stats().hits, 0u) << name;
            }
        }
        ASSERT_NE(json[0].find("\"witness\""), std::string::npos)
            << name << ": no witness objects; the comparison is vacuous";
        for (std::size_t i = 1; i < json.size(); ++i)
            EXPECT_EQ(json[i], json[0]) << name << " " << arms[i];
    }
    fs::remove_all(cache_root);
}

/**
 * Counting semantics, not wall time: on sci the engine must visit,
 * transition and fire exactly as the goldens say (the counts
 * `mccheck --protocol sci --metrics` reports) at every job count.
 */
TEST_F(EngineDifferential, SciEngineCountersMatchGoldens)
{
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("sci"));
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    for (unsigned jobs : {1u, 4u}) {
        metrics.reset();
        metrics.setEnabled(true);
        checkProtocol(loaded, jobs, nullptr);
        metrics.setEnabled(false);
        EXPECT_EQ(metrics.counterValue("engine.visits"), 3096u)
            << "j" << jobs;
        EXPECT_EQ(metrics.counterValue("engine.sm_transitions"), 158u)
            << "j" << jobs;
        EXPECT_EQ(metrics.counterValue("engine.rule_firings"), 158u)
            << "j" << jobs;
    }
}

} // namespace
} // namespace mc
