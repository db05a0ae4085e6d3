/**
 * @file
 * Analysis-cache tests: on-disk round-trips, the corruption contract
 * (truncated / version-mismatched / bit-flipped entries fall back to
 * cold analysis with a warning — never a crash, never stale findings),
 * fingerprint sensitivity, eviction, and warm-vs-cold byte-identity of
 * the full checking pipeline.
 */
#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "lang/fingerprint.h"
#include "support/hash.h"
#include "support/version.h"
#include "support/witness.h"
#include "tests/cache/unit_fixtures.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace mc::cache {
namespace {

namespace fs = std::filesystem;
using testing::expectSameUnit;
using testing::sampleUnit;

/** Fresh scratch directory per test, removed on destruction. */
class TempCacheDir
{
  public:
    explicit TempCacheDir(const std::string& tag)
        : path_(fs::path(::testing::TempDir()) /
                ("mccheck_cache_test_" + tag))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempCacheDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

TEST(CacheEncoding, RoundTripsEveryField)
{
    CachedUnit unit = sampleUnit();
    std::string text = AnalysisCache::encodeUnit(unit);
    CachedUnit decoded;
    std::string error;
    ASSERT_TRUE(AnalysisCache::decodeUnit(text, decoded, error)) << error;
    expectSameUnit(unit, decoded);
}

TEST(CacheEncoding, RoundTripsEmptyUnit)
{
    CachedUnit unit;
    unit.checker = "no_float";
    unit.function = "f";
    std::string text = AnalysisCache::encodeUnit(unit);
    CachedUnit decoded;
    std::string error;
    ASSERT_TRUE(AnalysisCache::decodeUnit(text, decoded, error)) << error;
    expectSameUnit(unit, decoded);
}

TEST(CacheEncoding, RejectsEveryTruncation)
{
    std::string text = AnalysisCache::encodeUnit(sampleUnit());
    for (std::size_t len = 0; len < text.size(); ++len) {
        CachedUnit decoded;
        std::string error;
        EXPECT_FALSE(AnalysisCache::decodeUnit(text.substr(0, len),
                                               decoded, error))
            << "prefix of length " << len << " decoded successfully";
        EXPECT_FALSE(error.empty()) << "no reason for prefix " << len;
    }
}

TEST(CacheEncoding, RejectsEverySingleBitFlip)
{
    std::string text = AnalysisCache::encodeUnit(sampleUnit());
    for (std::size_t i = 0; i < text.size(); ++i) {
        std::string flipped = text;
        flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
        if (flipped == text)
            continue; // the XOR was a no-op for this byte
        CachedUnit decoded;
        std::string error;
        EXPECT_FALSE(AnalysisCache::decodeUnit(flipped, decoded, error))
            << "bit flip at offset " << i << " decoded successfully";
    }
}

TEST(CacheEncoding, RejectsFormatAndToolVersionMismatch)
{
    // Re-checksum the tampered bodies so the version gate itself (not the
    // checksum) is what rejects them.
    auto reseal = [](std::string body) {
        return body + "sum " + support::hashHex(support::fnv1a(body)) +
               "\n";
    };
    std::string text = AnalysisCache::encodeUnit(sampleUnit());
    std::string body = text.substr(0, text.rfind("sum "));
    std::string header = body.substr(0, body.find('\n'));
    std::string rest = body.substr(body.find('\n'));

    CachedUnit decoded;
    std::string error;
    std::string wrong_format = reseal("mccheck-cache 999 " +
                                      std::string(support::kToolVersion) +
                                      rest);
    EXPECT_FALSE(AnalysisCache::decodeUnit(wrong_format, decoded, error));
    EXPECT_EQ(error, "cache format version mismatch");

    std::string wrong_tool =
        reseal("mccheck-cache " + std::to_string(kCacheFormatVersion) +
               " 0.0.1" + rest);
    EXPECT_FALSE(AnalysisCache::decodeUnit(wrong_tool, decoded, error));
    EXPECT_EQ(error, "tool version mismatch");
    (void)header;
}

TEST(CacheStore, PersistsAcrossInstances)
{
    TempCacheDir dir("persist");
    CachedUnit unit = sampleUnit();
    {
        AnalysisCache cache(dir.str());
        cache.store(42, unit);
        EXPECT_EQ(cache.stats().stores, 1u);
    }
    AnalysisCache cache(dir.str());
    std::shared_ptr<const CachedUnit> loaded = cache.lookup(42);
    ASSERT_NE(loaded, nullptr);
    expectSameUnit(unit, *loaded);
    EXPECT_EQ(cache.stats().hits, 1u);
    // A different key is a plain miss: no warning, nothing corrupt.
    EXPECT_EQ(cache.lookup(43), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().corrupt, 0u);
    EXPECT_TRUE(cache.takeWarnings().empty());
}

TEST(CacheStore, TruncatedEntryFallsBackColdAndIsDeleted)
{
    TempCacheDir dir("truncated");
    AnalysisCache cache(dir.str());
    cache.store(7, sampleUnit());
    std::string path = cache.entryPath(7);
    fs::resize_file(path, 20);

    EXPECT_EQ(cache.lookup(7), nullptr);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    std::vector<std::string> warnings = cache.takeWarnings();
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("unusable"), std::string::npos);
    // Read-write mode deletes the corpse so the next store is clean.
    EXPECT_FALSE(fs::exists(path));
}

TEST(CacheStore, BitFlippedEntryFallsBackCold)
{
    TempCacheDir dir("bitflip");
    AnalysisCache cache(dir.str());
    cache.store(9, sampleUnit());
    std::string path = cache.entryPath(9);
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    text[text.size() / 2] = static_cast<char>(text[text.size() / 2] ^ 1);
    std::ofstream(path, std::ios::binary) << text;

    EXPECT_EQ(cache.lookup(9), nullptr);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_FALSE(cache.takeWarnings().empty());
}

TEST(CacheStore, ReadonlyDropsStoresAndKeepsCorpses)
{
    TempCacheDir dir("readonly");
    {
        AnalysisCache rw(dir.str());
        rw.store(1, sampleUnit());
        fs::resize_file(rw.entryPath(1), 10);
    }
    AnalysisCache ro(dir.str(), /*readonly=*/true);
    EXPECT_TRUE(ro.readonly());
    EXPECT_EQ(ro.lookup(1), nullptr);
    // The corrupt entry stays on disk for post-mortem in readonly mode.
    EXPECT_TRUE(fs::exists(ro.entryPath(1)));
    ro.store(2, sampleUnit());
    EXPECT_EQ(ro.stats().stores, 0u);
    EXPECT_FALSE(fs::exists(ro.entryPath(2)));
}

TEST(CacheStore, MissingReadonlyDirectoryThrows)
{
    EXPECT_THROW(AnalysisCache("/nonexistent/mccheck/cache/dir",
                               /*readonly=*/true),
                 std::runtime_error);
}

TEST(CacheStore, TrimEvictsOldestEntriesFirst)
{
    TempCacheDir dir("trim");
    AnalysisCache cache(dir.str());
    for (std::uint64_t key = 1; key <= 3; ++key)
        cache.store(key, sampleUnit());
    // Age the entries explicitly — filesystem mtime granularity is too
    // coarse to rely on store order.
    auto now = fs::last_write_time(cache.entryPath(3));
    fs::last_write_time(cache.entryPath(1), now - std::chrono::hours(2));
    fs::last_write_time(cache.entryPath(2), now - std::chrono::hours(1));

    std::uintmax_t one_entry = fs::file_size(cache.entryPath(3));
    cache.trim(2 * one_entry);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(fs::exists(cache.entryPath(1)));
    EXPECT_TRUE(fs::exists(cache.entryPath(2)));
    EXPECT_TRUE(fs::exists(cache.entryPath(3)));

    cache.trim(0);
    EXPECT_EQ(cache.stats().evictions, 3u);
    EXPECT_FALSE(fs::exists(cache.entryPath(2)));
    EXPECT_FALSE(fs::exists(cache.entryPath(3)));
}

TEST(CacheStore, TrimToleratesConcurrentPublisher)
{
    // Regression: trim scans the directory, then stats and removes the
    // entries it saw. A second process (or thread) publishing and
    // re-publishing entries in that window makes files appear, change
    // size, and vanish mid-scan; every filesystem call in trim must
    // tolerate that instead of throwing or double-counting evictions.
    TempCacheDir dir("trim_race");
    AnalysisCache writer(dir.str());
    AnalysisCache trimmer(dir.str());

    std::atomic<bool> done{false};
    std::thread publisher([&] {
        for (std::uint64_t round = 0; round < 50; ++round)
            for (std::uint64_t key = 1; key <= 20; ++key)
                writer.store(key, sampleUnit());
        done.store(true);
    });

    while (!done.load())
        trimmer.trim(1); // 1 byte: try to evict everything it sees
    publisher.join();
    trimmer.trim(1);

    // No exception escaped, and the survivors are decodable (trim never
    // removes half a file — entries are published by rename).
    std::uint64_t decodable = 0;
    for (const auto& entry : fs::directory_iterator(dir.str())) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        CachedUnit unit;
        std::string error;
        if (AnalysisCache::decodeUnit(os.str(), unit, error))
            ++decodable;
        else
            ADD_FAILURE() << "undecodable survivor " << entry.path()
                          << ": " << error;
    }
    (void)decodable;
}

// ---- fingerprint sensitivity ------------------------------------------

/** Each definition's fingerprint by name (names are unique here). */
std::map<std::string, std::uint64_t>
fingerprintsByName(const lang::Program& program)
{
    const std::vector<std::uint64_t> fps =
        lang::fingerprintFunctions(program);
    EXPECT_EQ(fps.size(), program.functions().size());
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < fps.size(); ++i)
        out.emplace(program.functions()[i]->name, fps[i]);
    return out;
}

std::uint64_t
fingerprintOf(const std::string& source)
{
    lang::Program program;
    program.addSource("fp.c", source);
    auto fps = fingerprintsByName(program);
    EXPECT_EQ(fps.size(), 1u);
    return fps.begin()->second;
}

TEST(Fingerprint, StableAcrossRuns)
{
    const std::string src = "void H(void) { x = y + 1; }";
    EXPECT_EQ(fingerprintOf(src), fingerprintOf(src));
}

TEST(Fingerprint, ChangesWhenTokensChange)
{
    EXPECT_NE(fingerprintOf("void H(void) { x = y + 1; }"),
              fingerprintOf("void H(void) { x = y + 2; }"));
}

TEST(Fingerprint, ChangesWhenLinesShift)
{
    // Diagnostics carry line numbers, so a shifted body — identical
    // token text — must still invalidate.
    EXPECT_NE(fingerprintOf("void H(void) { x = y + 1; }"),
              fingerprintOf("\nvoid H(void) { x = y + 1; }"));
}

TEST(Fingerprint, IgnoresTrailingComment)
{
    // A comment after the last token moves no token and no line: replay
    // stays valid, so the fingerprint may (and does) stay put.
    EXPECT_EQ(fingerprintOf("void H(void) { x = y + 1; }"),
              fingerprintOf("void H(void) { x = y + 1; } /* note */"));
}

TEST(Fingerprint, DistinguishesFunctionsWithinAUnit)
{
    lang::Program program;
    program.addSource("two.c",
                      "void A(void) { x = 1; }\nvoid B(void) { x = 1; }");
    auto fps = fingerprintsByName(program);
    ASSERT_EQ(fps.size(), 2u);
    EXPECT_NE(fps.at("A"), fps.at("B"));
}

TEST(Fingerprint, UniqueNamesHashUnitAndNameOnly)
{
    // The key shape every existing cache entry was written under: a
    // definition whose name is unique in its file hashes its unit's
    // fingerprint and its name, nothing else.
    lang::Program program;
    program.addSource("two.c",
                      "void A(void) { x = 1; }\nvoid B(void) { x = 1; }");
    const std::uint64_t unit_fp =
        lang::unitFingerprint(program.sourceManager(),
                              program.units()[0].file_id);
    const std::vector<std::uint64_t> fps =
        lang::fingerprintFunctions(program);
    ASSERT_EQ(fps.size(), 2u);
    EXPECT_EQ(fps[0], support::Fnv1a().u64(unit_fp).str("A").value());
    EXPECT_EQ(fps[1], support::Fnv1a().u64(unit_fp).str("B").value());
}

TEST(Fingerprint, EveryDefinitionOfANameGetsItsOwn)
{
    // Two files that each define a static helper of one name, and a
    // file that defines a name twice: no two definitions share a key.
    lang::Program program(/*recover=*/true);
    program.addSource("a.c", "static void helper(void) { x = 1; }\n");
    program.addSource("b.c", "static void helper(void) { x = 1; }\n");
    program.addSource("c.c", "static void helper(void) { x = 1; }\n"
                             "static void helper(void) { x = 1; }\n");
    const std::vector<std::uint64_t> fps =
        lang::fingerprintFunctions(program);
    ASSERT_EQ(fps.size(), 4u);
    const std::set<std::uint64_t> distinct(fps.begin(), fps.end());
    EXPECT_EQ(distinct.size(), 4u);
    EXPECT_EQ(distinct.count(0), 0u);
}

TEST(Fingerprint, MemoAfterUpdateSourceMatchesFreshProgram)
{
    // A resident program memoizes each unit's fingerprint; updateSource
    // must leave exactly the edited unit to be re-lexed, and the result
    // must equal a fresh program's for edited and unedited units alike.
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));
    lang::Program& resident = *loaded.program;
    const auto before = fingerprintsByName(resident);
    ASSERT_EQ(before, fingerprintsByName(resident));

    const std::size_t edited = loaded.gen.files.size() / 2;
    corpus::GeneratedFile& file = loaded.gen.files[edited];
    file.source += "\nextern int fingerprint_memo_edit;\n";
    ASSERT_NE(resident.updateSource(file.name, file.source), nullptr);
    const auto after = fingerprintsByName(resident);

    lang::Program fresh(/*recover=*/true);
    for (const corpus::GeneratedFile& f : loaded.gen.files)
        fresh.addSource(f.name, f.source);
    EXPECT_EQ(after, fingerprintsByName(fresh));

    ASSERT_EQ(before.size(), after.size());
    for (const auto& [fn, fp] : after) {
        if (fn == file.function)
            EXPECT_NE(fp, before.at(fn)) << fn;
        else
            EXPECT_EQ(fp, before.at(fn)) << fn;
    }
}

// ---- key stability: entries from an earlier build still hit -----------

/**
 * A two-file program with findings and checker state in it. The entries
 * under tests/goldens/cache_compat were written for exactly these bytes
 * by an earlier build of the tool, before checker definitions were
 * shared between units; they must keep hitting as long as the cache
 * format and tool versions stay put, which pins the key bytes.
 * Regenerate (after an intentional key change) with
 * MCHECK_REGEN_GOLDENS=1 build/tests/test_cache.
 */
struct CompatProgram
{
    lang::Program program{/*recover=*/true};
    flash::ProtocolSpec spec;

    CompatProgram()
    {
        program.addSource(
            "compat/PIRemoteGet.c",
            "void PIRemoteGet(void) {\n"
            "  HANDLER_DEFS();\n"
            "  HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;\n"
            "  PI_SEND(F_DATA, keep, swap, wait, dec, null);\n"
            "  MISCBUS_READ_DB(addr, buf);\n"
            "}\n");
        program.addSource("compat/helper.c",
                          "void helper(void) {\n  x = 1;\n}\n");
        flash::HandlerSpec handler;
        handler.name = "PIRemoteGet";
        handler.kind = flash::HandlerKind::Hardware;
        spec.addHandler(handler);
        flash::HandlerSpec routine;
        routine.name = "helper";
        routine.kind = flash::HandlerKind::Normal;
        spec.addHandler(routine);
    }

    std::string
    run(AnalysisCache* cache)
    {
        auto set = checkers::makeAllCheckers();
        support::DiagnosticSink sink;
        checkers::ParallelRunOptions options;
        options.jobs = 1;
        options.cache = cache;
        checkers::runCheckersParallel(program, spec, set.pointers(), sink,
                                      options);
        std::ostringstream json;
        sink.printJson(json, &program.sourceManager());
        return json.str();
    }
};

TEST(CacheCompat, EntriesFromEarlierBuildStillHit)
{
    const std::string dir = std::string(MCHECK_GOLDEN_DIR) + "/cache_compat";
    CompatProgram compat;
    const std::size_t units =
        compat.program.functions().size() * checkers::allCheckerNames().size();
    if (std::getenv("MCHECK_REGEN_GOLDENS")) {
        fs::remove_all(dir);
        AnalysisCache cache(dir);
        compat.run(&cache);
        EXPECT_EQ(cache.stats().stores, units);
        return;
    }
    const std::string cold = compat.run(nullptr);
    AnalysisCache cache(dir, /*readonly=*/true);
    EXPECT_EQ(compat.run(&cache), cold);
    EXPECT_EQ(cache.stats().hits, units);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_NE(cold.find("\"error\""), std::string::npos)
        << "the fixture should replay real findings";
}

// ---- end-to-end: warm replay is byte-identical to cold ----------------

struct PipelineResult
{
    std::string text;
    std::string json;
    std::string sarif;
};

PipelineResult
runPipeline(const corpus::LoadedProtocol& loaded, AnalysisCache* cache,
            unsigned jobs)
{
    auto set = checkers::makeAllCheckers();
    support::DiagnosticSink sink;
    checkers::ParallelRunOptions options;
    options.jobs = jobs;
    options.cache = cache;
    checkers::runCheckersParallel(*loaded.program, loaded.gen.spec,
                                  set.pointers(), sink, options);
    const support::SourceManager& sm = loaded.program->sourceManager();
    PipelineResult out;
    std::ostringstream text, json, sarif;
    sink.print(text, &sm);
    sink.printJson(json, &sm);
    sink.printSarif(sarif, &sm);
    out.text = text.str();
    out.json = json.str();
    out.sarif = sarif.str();
    return out;
}

TEST(CachePipeline, WarmRunReplaysByteIdentical)
{
    TempCacheDir dir("pipeline");
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));

    PipelineResult uncached = runPipeline(loaded, nullptr, 2);
    ASSERT_FALSE(uncached.text.empty());

    AnalysisCache cold_cache(dir.str());
    PipelineResult cold = runPipeline(loaded, &cold_cache, 2);
    EXPECT_GT(cold_cache.stats().stores, 0u);
    EXPECT_EQ(cold_cache.stats().hits, 0u);

    AnalysisCache warm_cache(dir.str());
    PipelineResult warm = runPipeline(loaded, &warm_cache, 2);
    EXPECT_GT(warm_cache.stats().hits, 0u);
    EXPECT_EQ(warm_cache.stats().misses, 0u);

    EXPECT_EQ(uncached.text, cold.text);
    EXPECT_EQ(cold.text, warm.text);
    EXPECT_EQ(cold.json, warm.json);
    EXPECT_EQ(cold.sarif, warm.sarif);

    // jobs=1 with a cache still replays, and still matches.
    AnalysisCache warm1_cache(dir.str());
    PipelineResult warm1 = runPipeline(loaded, &warm1_cache, 1);
    EXPECT_GT(warm1_cache.stats().hits, 0u);
    EXPECT_EQ(cold.json, warm1.json);
}

TEST(CachePipeline, WitnessSurvivesWarmReplayByteIdentical)
{
    // Witnesses ride the cache: a warm run must replay the same witness
    // bytes a cold run captured, and witness-on entries must not collide
    // with the witness-off entries other tests stored (the config is part
    // of the unit key).
    TempCacheDir dir("pipeline_witness");
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));

    support::setWitnessConfig(true, support::kDefaultWitnessLimit);
    AnalysisCache cold_cache(dir.str());
    PipelineResult cold = runPipeline(loaded, &cold_cache, 2);
    EXPECT_GT(cold_cache.stats().stores, 0u);

    AnalysisCache warm_cache(dir.str());
    PipelineResult warm = runPipeline(loaded, &warm_cache, 2);
    support::setWitnessConfig(false, 0);

    EXPECT_GT(warm_cache.stats().hits, 0u);
    EXPECT_EQ(warm_cache.stats().misses, 0u);
    EXPECT_EQ(cold.text, warm.text);
    EXPECT_EQ(cold.json, warm.json);
    EXPECT_EQ(cold.sarif, warm.sarif);
    // The witness actually made it into the replayed output.
    EXPECT_NE(warm.json.find("\"witness\""), std::string::npos);
}

TEST(CachePipeline, CorruptedEntriesReanalyzeNotReplay)
{
    TempCacheDir dir("pipeline_corrupt");
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));

    AnalysisCache cold_cache(dir.str());
    PipelineResult cold = runPipeline(loaded, &cold_cache, 2);

    // Corrupt every third entry on disk; the warm run must notice each
    // one, re-analyze those units, and still produce identical bytes.
    std::size_t mangled = 0;
    std::size_t index = 0;
    for (const auto& e : fs::directory_iterator(dir.str()))
        if (e.path().extension() == ".mcu" && index++ % 3 == 0) {
            fs::resize_file(e.path(), fs::file_size(e.path()) / 2);
            ++mangled;
        }
    ASSERT_GT(mangled, 0u);

    AnalysisCache warm_cache(dir.str());
    PipelineResult warm = runPipeline(loaded, &warm_cache, 2);
    EXPECT_EQ(warm_cache.stats().corrupt, mangled);
    EXPECT_EQ(warm_cache.stats().misses, mangled);
    EXPECT_GT(warm_cache.stats().hits, 0u);
    EXPECT_EQ(cold.text, warm.text);
    EXPECT_EQ(cold.json, warm.json);
}

} // namespace
} // namespace mc::cache
