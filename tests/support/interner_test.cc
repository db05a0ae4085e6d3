/**
 * @file
 * SymbolInterner unit and property tests: ids are dense, round-trip
 * through name(), and are stable under concurrent interning.
 */
#include "support/interner.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace mc::support {
namespace {

TEST(Interner, IdsAreDenseInFirstInternOrder)
{
    SymbolInterner interner;
    EXPECT_EQ(interner.intern("alpha"), 0u);
    EXPECT_EQ(interner.intern("beta"), 1u);
    EXPECT_EQ(interner.intern("gamma"), 2u);
    EXPECT_EQ(interner.size(), 3u);
}

TEST(Interner, InternIsIdempotent)
{
    SymbolInterner interner;
    SymbolId a = interner.intern("WAIT_FOR_DB_FULL");
    EXPECT_EQ(interner.intern("WAIT_FOR_DB_FULL"), a);
    EXPECT_EQ(interner.size(), 1u);
}

TEST(Interner, NameRoundTrips)
{
    SymbolInterner interner;
    SymbolId a = interner.intern("MISCBUS_READ_DB");
    EXPECT_EQ(interner.name(a), "MISCBUS_READ_DB");
}

TEST(Interner, LookupDoesNotIntern)
{
    SymbolInterner interner;
    EXPECT_FALSE(interner.lookup("absent").has_value());
    EXPECT_EQ(interner.size(), 0u);
    SymbolId a = interner.intern("present");
    ASSERT_TRUE(interner.lookup("present").has_value());
    EXPECT_EQ(*interner.lookup("present"), a);
}

TEST(Interner, EmptyStringIsAValidSymbol)
{
    SymbolInterner interner;
    SymbolId empty = interner.intern("");
    EXPECT_NE(empty, kInvalidSymbol);
    EXPECT_EQ(interner.name(empty), "");
    EXPECT_EQ(interner.intern(""), empty);
}

/** Property: over many random strings, intern/name round-trips and
 *  equal strings always get equal ids (distinct strings distinct ids). */
TEST(Interner, PropertyRoundTripRandomStrings)
{
    SymbolInterner interner;
    std::mt19937 rng(20260806);
    std::uniform_int_distribution<int> len(0, 24);
    std::uniform_int_distribution<int> ch(0, 62);
    const char* alphabet =
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    std::vector<std::string> strings;
    for (int i = 0; i < 500; ++i) {
        std::string s;
        int n = len(rng);
        for (int j = 0; j < n; ++j)
            s += alphabet[static_cast<std::size_t>(ch(rng)) % 63];
        strings.push_back(std::move(s));
    }
    std::vector<SymbolId> ids;
    for (const std::string& s : strings)
        ids.push_back(interner.intern(s));
    std::set<std::string> distinct(strings.begin(), strings.end());
    EXPECT_EQ(interner.size(), distinct.size());
    for (std::size_t i = 0; i < strings.size(); ++i) {
        EXPECT_EQ(interner.name(ids[i]), strings[i]);
        EXPECT_EQ(interner.intern(strings[i]), ids[i]);
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_EQ(ids[i] == ids[j], strings[i] == strings[j]);
    }
}

/** Concurrent interns of an overlapping vocabulary agree on one id per
 *  string and the table ends exactly the union (exercised under TSan). */
TEST(Interner, ConcurrentInterningIsConsistent)
{
    SymbolInterner interner;
    constexpr int kThreads = 4;
    constexpr int kWords = 200;
    std::vector<std::vector<SymbolId>> seen(
        kThreads, std::vector<SymbolId>(kWords, kInvalidSymbol));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int w = 0; w < kWords; ++w) {
                // Every thread interns the same words, shifted so the
                // first-intern thread differs per word.
                int word = (w + t * 7) % kWords;
                seen[static_cast<std::size_t>(t)]
                    [static_cast<std::size_t>(word)] = interner.intern(
                        "word_" + std::to_string(word));
            }
        });
    for (std::thread& th : threads)
        th.join();
    EXPECT_EQ(interner.size(), static_cast<std::size_t>(kWords));
    for (int w = 0; w < kWords; ++w) {
        SymbolId id = seen[0][static_cast<std::size_t>(w)];
        EXPECT_EQ(interner.name(id), "word_" + std::to_string(w));
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[static_cast<std::size_t>(t)]
                          [static_cast<std::size_t>(w)],
                      id);
    }
}

/**
 * The lexer hashes an identifier a byte at a time while it scans it;
 * the table is also probed with spellingHash() of whole strings, so the
 * two must agree at every length, across the 8-byte word boundaries.
 */
TEST(Interner, SpellingHasherMatchesSpellingHash)
{
    std::mt19937 rng(7);
    for (std::size_t n = 0; n <= 40; ++n) {
        std::string s(n, '\0');
        for (char& c : s)
            c = static_cast<char>(rng());
        SpellingHasher hasher;
        for (char c : s)
            hasher.add(static_cast<unsigned char>(c));
        EXPECT_EQ(hasher.finish(n), spellingHash(s)) << n;
    }
    // Trailing zero bytes change the length, so they change the hash.
    EXPECT_NE(spellingHash(std::string_view("a\0", 2)), spellingHash("a"));
}

/** Reserved words resolve to their class, and only whole spellings do. */
TEST(Interner, SpellingTableReservedWords)
{
    SpellingTable table;
    EXPECT_FALSE(table.hasReservedWords());
    table.reserve("int", 7);
    EXPECT_TRUE(table.hasReservedWords());
    auto resolve = [&](std::string_view s) {
        return table.resolve(s, spellingHash(s));
    };
    EXPECT_EQ(resolve("int").reserved, 7);
    EXPECT_EQ(resolve("int").id, kInvalidSymbol);
    SpellingTable::Resolved in = resolve("in");
    EXPECT_EQ(in.reserved, 0);
    EXPECT_EQ(in.id, SymbolInterner::global().intern("in"));
    EXPECT_EQ(resolve("in").id, in.id);
    EXPECT_EQ(table.name(in.id), "in");
    EXPECT_EQ(table.size(), 1u);
    // Enough names to grow the table several times; every one stays put.
    std::vector<SymbolId> ids;
    for (int i = 0; i < 5000; ++i)
        ids.push_back(resolve("name_" + std::to_string(i)).id);
    for (int i = 0; i < 5000; ++i)
        EXPECT_EQ(resolve("name_" + std::to_string(i)).id, ids[i]);
    EXPECT_EQ(resolve("int").reserved, 7);
    EXPECT_EQ(table.size(), 5001u);
}

} // namespace
} // namespace mc::support
