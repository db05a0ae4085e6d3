/**
 * @file
 * ResidentState and memory-cache tests: overlay precedence for the
 * daemon's open/change/close documents, snapshot reuse with in-place
 * re-parse of exactly the changed files (stable file ids), LRU
 * eviction of file snapshots, protocol/metal snapshot reuse, and the
 * in-memory AnalysisCache mode (decoded units that equal a disk round
 * trip, zero filesystem traffic, safe to share across threads).
 */
#include "server/resident.h"

#include "cache/analysis_cache.h"
#include "support/fault_injection.h"
#include "tests/cache/unit_fixtures.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
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
    bool reused = true;
    corpus::LoadedProtocol& first =
        resident.protocolSnapshot("bitvector", cfgs, reused);
    EXPECT_FALSE(reused);
    ASSERT_NE(cfgs, nullptr);
    ASSERT_NE(first.program, nullptr);
    EXPECT_EQ(resident.protocolSnapshotCount(), 1u);

    checkers::CfgCache* cfgs2 = nullptr;
    corpus::LoadedProtocol& second =
        resident.protocolSnapshot("bitvector", cfgs2, reused);
    EXPECT_TRUE(reused);
    EXPECT_EQ(&second, &first);
    EXPECT_EQ(cfgs2, cfgs);

    EXPECT_THROW(resident.protocolSnapshot("no_such", cfgs, reused),
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
