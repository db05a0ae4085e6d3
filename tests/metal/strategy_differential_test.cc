/**
 * @file
 * Byte-for-byte differential of the table-driven matcher against the
 * legacy re-match-per-visit strategy: for all five paper protocols, the
 * rendered diagnostics (text, JSON, SARIF) must be identical at --jobs 1
 * and 4, cold and against a warm analysis cache, with witnesses off and
 * on, and the engine must count the same visits, transitions and
 * firings. This pins the table matcher's hard constraint: the strategy
 * may never change output. The legacy matcher is reachable only
 * in-process (metal::setDefaultMatchStrategy), so this is where its
 * reference runs live.
 */
#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "metal/engine.h"
#include "support/metrics.h"
#include "support/witness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
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

class StrategyDifferential : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        // The strategy default and the witness configuration are
        // process-global; never leak Legacy or witnesses into other
        // tests.
        metal::setDefaultMatchStrategy(metal::MatchStrategy::Table);
        support::setWitnessConfig(false, 0);
        support::MetricsRegistry::global().setEnabled(false);
    }
};

void
useStrategy(const std::string& strategy)
{
    metal::setDefaultMatchStrategy(strategy == "legacy"
                                       ? metal::MatchStrategy::Legacy
                                       : metal::MatchStrategy::Table);
}

TEST_F(StrategyDifferential, ByteIdenticalAcrossProtocolsJobsAndCache)
{
    fs::path cache_root =
        fs::temp_directory_path() / "mccheck_strategy_diff_cache";
    fs::remove_all(cache_root);

    for (const char* name :
         {"bitvector", "dyn_ptr", "sci", "coma", "rac"}) {
        corpus::LoadedProtocol loaded =
            corpus::loadProtocol(corpus::profileByName(name));
        // renders[strategy] = {cold j1, cold j4, warm j1, warm j4}
        std::map<std::string, std::vector<Rendered>> renders;
        for (const char* strategy : {"table", "legacy"}) {
            metal::setDefaultMatchStrategy(
                strategy == std::string("legacy")
                    ? metal::MatchStrategy::Legacy
                    : metal::MatchStrategy::Table);
            fs::path dir =
                cache_root / (std::string(name) + "_" + strategy);
            std::vector<Rendered>& out = renders[strategy];
            for (unsigned jobs : {1u, 4u})
                out.push_back(checkProtocol(loaded, jobs, nullptr));
            {
                // Cold fill (not compared; hits may be zero).
                cache::AnalysisCache cache(dir.string());
                checkProtocol(loaded, 1, &cache);
            }
            for (unsigned jobs : {1u, 4u}) {
                cache::AnalysisCache cache(dir.string());
                out.push_back(checkProtocol(loaded, jobs, &cache));
                EXPECT_GT(out.back().cache_hits, 0u)
                    << name << " " << strategy << " jobs=" << jobs;
            }
        }
        const std::vector<Rendered>& table = renders["table"];
        const std::vector<Rendered>& legacy = renders["legacy"];
        ASSERT_EQ(table.size(), 4u);
        ASSERT_EQ(legacy.size(), 4u);
        const char* arm[] = {"cold j1", "cold j4", "warm j1", "warm j4"};
        for (std::size_t i = 0; i < table.size(); ++i) {
            // Strategy differential, same arm.
            EXPECT_EQ(table[i].text, legacy[i].text)
                << name << " text " << arm[i];
            EXPECT_EQ(table[i].json, legacy[i].json)
                << name << " json " << arm[i];
            EXPECT_EQ(table[i].sarif, legacy[i].sarif)
                << name << " sarif " << arm[i];
            // And every arm agrees with the first (jobs/cache
            // determinism within a strategy).
            EXPECT_EQ(table[i].json, table[0].json)
                << name << " table arm " << arm[i];
            EXPECT_EQ(legacy[i].json, legacy[0].json)
                << name << " legacy arm " << arm[i];
        }
    }
    fs::remove_all(cache_root);
}

/**
 * The same differential crossed with --prune-paths constraints: pruning
 * changes which paths are walked (and thus which diagnostics survive),
 * so the two strategies must agree under it independently of the
 * prune-off arms above. The walker disables the table's block-skip
 * prefilter while pruning, making this the arm that would catch a skip
 * hook leaking into feasibility invalidation.
 */
TEST_F(StrategyDifferential, ByteIdenticalUnderConstraintsPruning)
{
    for (const char* name :
         {"bitvector", "dyn_ptr", "sci", "coma", "rac"}) {
        corpus::LoadedProtocol loaded =
            corpus::loadProtocol(corpus::profileByName(name));
        std::map<std::string, std::vector<Rendered>> renders;
        for (const char* strategy : {"table", "legacy"}) {
            metal::setDefaultMatchStrategy(
                strategy == std::string("legacy")
                    ? metal::MatchStrategy::Legacy
                    : metal::MatchStrategy::Table);
            std::vector<Rendered>& out = renders[strategy];
            for (unsigned jobs : {1u, 4u})
                out.push_back(
                    checkProtocol(loaded, jobs, nullptr,
                                  metal::PruneStrategy::Constraints));
        }
        const std::vector<Rendered>& table = renders["table"];
        const std::vector<Rendered>& legacy = renders["legacy"];
        ASSERT_EQ(table.size(), 2u);
        ASSERT_EQ(legacy.size(), 2u);
        const char* arm[] = {"prune j1", "prune j4"};
        for (std::size_t i = 0; i < table.size(); ++i) {
            EXPECT_EQ(table[i].text, legacy[i].text)
                << name << " text " << arm[i];
            EXPECT_EQ(table[i].json, legacy[i].json)
                << name << " json " << arm[i];
            EXPECT_EQ(table[i].sarif, legacy[i].sarif)
                << name << " sarif " << arm[i];
            EXPECT_EQ(table[i].json, table[0].json)
                << name << " table arm " << arm[i];
            EXPECT_EQ(legacy[i].json, legacy[0].json)
                << name << " legacy arm " << arm[i];
        }
    }
}

/**
 * With --witness on, each finding carries its SM transition history and
 * CFG block path; those bytes too must not depend on the matcher, the
 * job count or cache temperature (the cache key includes the witness
 * configuration, so the warm arms replay witness-bearing entries).
 */
TEST_F(StrategyDifferential, WitnessBytesIdenticalAcrossJobsAndCache)
{
    fs::path cache_root =
        fs::temp_directory_path() / "mccheck_strategy_witness_cache";
    fs::remove_all(cache_root);
    support::setWitnessConfig(true, 0);

    for (const char* name : {"bitvector", "sci"}) {
        corpus::LoadedProtocol loaded =
            corpus::loadProtocol(corpus::profileByName(name));
        std::vector<std::string> arms;
        std::vector<std::string> json;
        for (const char* strategy : {"table", "legacy"}) {
            useStrategy(strategy);
            for (unsigned jobs : {1u, 4u}) {
                json.push_back(checkProtocol(loaded, jobs, nullptr).json);
                arms.push_back(std::string(strategy) + " cold j" +
                               std::to_string(jobs));
            }
            const fs::path dir =
                cache_root / (std::string(name) + "_" + strategy);
            for (const char* temperature : {"cold", "warm"}) {
                cache::AnalysisCache cache(dir.string());
                json.push_back(checkProtocol(loaded, 4, &cache).json);
                arms.push_back(std::string(strategy) + " " + temperature +
                               " cache j4");
                if (temperature == std::string("warm")) {
                    EXPECT_GT(cache.stats().hits, 0u) << name << " "
                                                       << strategy;
                }
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
 * Counting semantics, not wall time: on sci both matchers must visit,
 * transition and fire exactly as the goldens say (the counts
 * `mccheck --protocol sci --metrics` reports).
 */
TEST_F(StrategyDifferential, SciEngineCountersMatchGoldensUnderBothMatchers)
{
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("sci"));
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    for (const char* strategy : {"table", "legacy"}) {
        useStrategy(strategy);
        for (unsigned jobs : {1u, 4u}) {
            metrics.reset();
            metrics.setEnabled(true);
            checkProtocol(loaded, jobs, nullptr);
            metrics.setEnabled(false);
            EXPECT_EQ(metrics.counterValue("engine.visits"), 3096u)
                << strategy << " j" << jobs;
            EXPECT_EQ(metrics.counterValue("engine.sm_transitions"), 158u)
                << strategy << " j" << jobs;
            EXPECT_EQ(metrics.counterValue("engine.rule_firings"), 158u)
                << strategy << " j" << jobs;
        }
    }
}

} // namespace
} // namespace mc
