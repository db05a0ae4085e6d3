/**
 * @file
 * Shared checker definitions: every instance of a metal checker runs the
 * one state machine its definition compiled, no run — any job count,
 * cold or replayed from the analysis cache — compiles another,
 * concurrent first use from many threads is race-free, and the
 * per-run cache-key prefix a definition yields keys units exactly as
 * hashing every ingredient per unit does.
 */
#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "metal/transition_table.h"
#include "server/check_request.h"
#include "support/hash.h"
#include "support/version.h"
#include "support/witness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

namespace mc::checkers {
namespace {

using metal::CompiledSm;

/** msglen_check, wait_for_db, send_wait and dir_check. */
constexpr std::size_t kMetalCheckers = 4;

/** The compiled machine `checker` runs, read off its definition, or
 *  nullptr for a hand-written checker. */
const CompiledSm*
compiledOf(const Checker& checker)
{
    if (auto* m = dynamic_cast<const MetalChecker*>(&checker))
        return &m->def().metal()->sm->compiled();
    return nullptr;
}

TEST(CheckerDefs, InstancesShareOneCompiledMachine)
{
    auto a = makeChecker("msglen_check");
    auto b = makeChecker("msglen_check");
    ASSERT_TRUE(a && b);
    EXPECT_NE(compiledOf(*a), nullptr);
    EXPECT_EQ(compiledOf(*a), compiledOf(*b));
    // A checker constructed from the registered definition runs it too.
    MetalChecker direct(*checkerDef("msglen_check"));
    EXPECT_EQ(compiledOf(direct), compiledOf(*a));
    EXPECT_NE(compiledOf(*makeChecker("wait_for_db")), compiledOf(*a));

    for (const std::string& name : allCheckerNames())
        ASSERT_NE(checkerDef(name), nullptr);
    const std::uint64_t before = CompiledSm::compilations();
    for (int i = 0; i < 100; ++i)
        for (const std::string& name : allCheckerNames())
            ASSERT_NE(makeChecker(name), nullptr);
    EXPECT_EQ(CompiledSm::compilations(), before);
}

TEST(CheckerDefs, DefinitionsAreKeyedByNameAndOptions)
{
    for (const std::string& name : allCheckerNames()) {
        const CheckerDef* def = checkerDef(name);
        ASSERT_NE(def, nullptr) << name;
        EXPECT_EQ(def->name(), name);
        EXPECT_EQ(def->instantiate()->name(), name);
        const bool metal = name == "msglen_check" ||
                           name == "wait_for_db" || name == "send_wait" ||
                           name == "dir_check";
        EXPECT_EQ(def->metal() != nullptr, metal) << name;
        EXPECT_EQ(def->metalSource().empty(), !metal) << name;
        EXPECT_EQ(checkerDef(name), def) << name;
    }
    EXPECT_EQ(checkerDef("no_such_checker"), nullptr);
    EXPECT_EQ(makeChecker("no_such_checker"), nullptr);

    CheckerSetOptions pruned;
    pruned.prune_strategy = metal::PruneStrategy::Correlated;
    EXPECT_NE(checkerDef("msglen_check", pruned), checkerDef("msglen_check"));
    EXPECT_EQ(checkerDef("msglen_check", pruned),
              checkerDef("msglen_check", pruned));
    EXPECT_EQ(checkerDef("msglen_check", pruned)->options().prune_strategy,
              metal::PruneStrategy::Correlated);
}

TEST(CheckerDefs, UserMetalHasNoCallTests)
{
    // A --metal checker has no C++ half to bind an extern to.
    EXPECT_THROW(CheckerDef::fromMetal("sm t { extern a; s: a ==> stop ; }",
                                       "t.metal", CheckerSetOptions()),
                 metal::MetalParseError);
    EXPECT_NE(CheckerDef::fromMetal("sm t { s: { f(); } ==> stop ; }",
                                    "t.metal", CheckerSetOptions()),
              nullptr);
}

TEST(CheckerDefs, ProtocolRunsCompileNothing)
{
    // Resolving the definitions compiles at most the four shipped metal
    // checkers (none if this process already did); after that, no run
    // may compile another machine.
    const std::uint64_t before = CompiledSm::compilations();
    for (const std::string& name : allCheckerNames())
        ASSERT_NE(checkerDef(name), nullptr);
    EXPECT_LE(CompiledSm::compilations() - before, kMetalCheckers);
    const std::uint64_t compiled = CompiledSm::compilations();

    auto run = [](unsigned jobs, cache::AnalysisCache* cache) {
        server::CheckRequest request;
        request.mode = server::CheckRequest::Mode::Protocol;
        request.protocol = "dyn_ptr";
        request.format = support::OutputFormat::Json;
        request.jobs = jobs;
        std::ostringstream out, err;
        server::CheckOutcome outcome =
            server::runCheckRequest(request, cache, nullptr, out, err);
        EXPECT_EQ(outcome.exit_code, 1) << err.str();
        return out.str();
    };
    const std::string one_lane = run(1, nullptr);
    EXPECT_EQ(CompiledSm::compilations(), compiled) << "jobs 1";
    EXPECT_EQ(run(4, nullptr), one_lane);
    EXPECT_EQ(CompiledSm::compilations(), compiled) << "jobs 4";

    auto cache = cache::AnalysisCache::inMemory();
    EXPECT_EQ(run(1, cache.get()), one_lane);
    const std::uint64_t cold_misses = cache->stats().misses;
    EXPECT_EQ(run(4, cache.get()), one_lane);
    EXPECT_EQ(cache->stats().misses, cold_misses) << "warm run re-walked";
    EXPECT_GT(cache->stats().hits, 0u);
    EXPECT_EQ(CompiledSm::compilations(), compiled) << "cache replay";
}

TEST(CheckerDefs, ConcurrentFirstUseIsRaceFree)
{
    // An option set no other test here uses, so the threads race on the
    // first compilation of these definitions.
    CheckerSetOptions options;
    options.value_sensitive_frees = false;
    options.prune_strategy = metal::PruneStrategy::Constraints;
    constexpr int kThreads = 8;
    const std::uint64_t before = CompiledSm::compilations();
    std::atomic<bool> go{false};
    std::vector<std::vector<const CompiledSm*>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (const std::string& name : allCheckerNames()) {
                std::unique_ptr<Checker> checker = makeChecker(name, options);
                if (const CompiledSm* compiled = compiledOf(*checker))
                    seen[t].push_back(compiled);
            }
        });
    }
    go.store(true);
    for (std::thread& thread : threads)
        thread.join();
    EXPECT_EQ(CompiledSm::compilations() - before, kMetalCheckers);
    ASSERT_EQ(seen[0].size(), kMetalCheckers);
    EXPECT_EQ(std::set<const CompiledSm*>(seen[0].begin(), seen[0].end())
                  .size(),
              kMetalCheckers);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
}

/**
 * The unit cache key as the analysis cache has always spelled it, every
 * ingredient hashed in one pass. Kept verbatim so a change to the
 * prefix path that would orphan existing entries fails here.
 */
std::uint64_t
referenceUnitKey(const CheckerDef& def, std::uint64_t spec_fp,
                 std::uint64_t fn_fp)
{
    return support::Fnv1a()
        .i64(cache::kCacheFormatVersion)
        .str(support::kToolVersion)
        .str(def.name())
        .str(def.metalSource())
        .u8(def.options().value_sensitive_frees ? 1 : 0)
        .u8(static_cast<std::uint8_t>(def.options().prune_strategy))
        .u8(support::witnessEnabled() ? 1 : 0)
        .u64(support::witnessLimit())
        .u64(spec_fp)
        .u64(fn_fp)
        .value();
}

TEST(CheckerDefs, KeyPrefixesMatchTheOnePassKey)
{
    const bool witness_was = support::witnessEnabled();
    const unsigned limit_was = support::witnessLimit();
    const std::uint64_t fps[][2] = {
        {0, 0}, {0x0123456789abcdefull, 42}, {~0ull, 0xfeedfacecafebeefull}};
    int checked = 0;
    for (bool frees : {true, false}) {
        for (metal::PruneStrategy prune :
             {metal::PruneStrategy::Off, metal::PruneStrategy::Correlated,
              metal::PruneStrategy::Constraints}) {
            CheckerSetOptions options;
            options.value_sensitive_frees = frees;
            options.prune_strategy = prune;
            for (const std::string& name : allCheckerNames()) {
                const CheckerDef& def = *checkerDef(name, options);
                for (bool witness : {false, true}) {
                    for (unsigned limit : {16u, 64u}) {
                        support::setWitnessConfig(witness, limit);
                        const support::Fnv1a prefix = unitCacheKeyPrefix(def);
                        for (const auto& fp : fps) {
                            const std::uint64_t want =
                                referenceUnitKey(def, fp[0], fp[1]);
                            EXPECT_EQ(unitCacheKey(prefix, fp[0], fp[1]),
                                      want)
                                << name << " frees=" << frees
                                << " prune=" << metal::pruneStrategyName(prune)
                                << " witness=" << witness << "/" << limit;
                            EXPECT_EQ(unitCacheKey(def, fp[0], fp[1]), want)
                                << name;
                            ++checked;
                        }
                    }
                }
            }
        }
    }
    support::setWitnessConfig(witness_was, limit_was);
    EXPECT_EQ(checked, 2 * 3 * 9 * 2 * 2 * 3);
}

/**
 * unitCacheKeyPrefix hashed from scratch under the current witness
 * configuration, ingredient by ingredient.
 */
std::uint64_t
referencePrefix(const CheckerDef& def)
{
    return support::Fnv1a()
        .i64(cache::kCacheFormatVersion)
        .str(support::kToolVersion)
        .str(def.name())
        .str(def.metalSource())
        .u8(def.options().value_sensitive_frees ? 1 : 0)
        .u8(static_cast<std::uint8_t>(def.options().prune_strategy))
        .u8(support::witnessEnabled() ? 1 : 0)
        .u64(support::witnessLimit())
        .value();
}

TEST(CheckerDefs, MemoizedPrefixesMatchAFromScratchHash)
{
    const bool witness_was = support::witnessEnabled();
    const unsigned limit_was = support::witnessLimit();
    std::vector<std::unique_ptr<const CheckerDef>> user;
    std::vector<const CheckerDef*> defs;
    for (metal::PruneStrategy prune :
         {metal::PruneStrategy::Off, metal::PruneStrategy::Correlated,
          metal::PruneStrategy::Constraints}) {
        for (bool frees : {true, false}) {
            CheckerSetOptions options;
            options.value_sensitive_frees = frees;
            options.prune_strategy = prune;
            for (const std::string& name : allCheckerNames())
                defs.push_back(checkerDef(name, options));
            user.push_back(CheckerDef::fromMetal(
                "sm t { s: { f(); } ==> stop ; }", "t.metal", options));
            defs.push_back(user.back().get());
        }
    }
    // Witness off, on, and on under --witness-limit 3 (0 is the default
    // cap, as the request front ends install it).
    const std::pair<bool, unsigned> configs[] = {
        {false, 0}, {true, 0}, {true, 3}};
    int checked = 0;
    for (const auto& [witness, limit] : configs) {
        support::setWitnessConfig(witness, limit);
        for (const CheckerDef* def : defs) {
            EXPECT_EQ(unitCacheKeyPrefix(*def).value(), referencePrefix(*def))
                << def->name() << " witness=" << witness << "/" << limit;
            ++checked;
        }
    }
    support::setWitnessConfig(witness_was, limit_was);
    EXPECT_EQ(checked, 3 * 3 * 2 * 10);
}

} // namespace
} // namespace mc::checkers
