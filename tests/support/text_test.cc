#include "support/rng.h"
#include "support/text.h"

#include <gtest/gtest.h>

namespace mc::support {
namespace {

TEST(Text, SplitKeepsEmptyFields)
{
    auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Text, SplitSingleField)
{
    auto parts = split("alone", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "alone");
}

TEST(Text, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("\t\n"), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("no-ws"), "no-ws");
}

TEST(Text, StartsWith)
{
    EXPECT_TRUE(startsWith("include \"x.h\"", "include"));
    EXPECT_FALSE(startsWith("inc", "include"));
}

TEST(Text, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"x"}, ", "), "x");
}

TEST(Text, FormatTableAligns)
{
    std::string table = formatTable({"Protocol", "Errors"},
                                    {{"bitvector", "4"}, {"sci", "0"}});
    // Header, rule, two rows.
    auto lines = split(table, '\n');
    ASSERT_GE(lines.size(), 4u);
    EXPECT_NE(lines[0].find("Protocol"), std::string::npos);
    EXPECT_NE(lines[1].find("---"), std::string::npos);
    EXPECT_NE(lines[2].find("bitvector"), std::string::npos);
    // Columns aligned: "Errors" column starts at same offset in all rows.
    auto pos_header = lines[0].find("Errors");
    auto pos_row = lines[2].find("4");
    EXPECT_EQ(pos_header, pos_row);
}

TEST(Text, JsonPlainRunEndStopsAtTheFirstSpecialByte)
{
    // The word-at-a-time scan must stop exactly where a byte-by-byte
    // scan does, whatever the alignment, the position of the special
    // byte inside its word, and the bytes around it (high bytes and
    // bytes just above the thresholds included).
    auto special = [](unsigned char c) {
        return c < 0x20 || c == '"' || c == '\\';
    };
    const unsigned char fillers[] = {'a', 0x20, 0x21, 0x23, 0x5b, 0x5d,
                                     0x7f, 0x80, 0xa2, 0xdc, 0xff};
    const unsigned char specials[] = {0x00, 0x01, 0x1f, '"', '\\'};
    int checked = 0;
    for (unsigned char fill : fillers) {
        for (unsigned char hit : specials) {
            for (std::size_t at = 0; at < 24; ++at) {
                std::string buf(40, static_cast<char>(fill));
                buf[at] = static_cast<char>(hit);
                if (at + 3 < buf.size())
                    buf[at + 3] = '"'; // a second special after the first
                for (std::size_t from = 0; from <= at; ++from) {
                    const char* p = buf.data() + from;
                    const char* end = buf.data() + buf.size();
                    const char* want = p;
                    while (want != end &&
                           !special(static_cast<unsigned char>(*want)))
                        ++want;
                    EXPECT_EQ(support::jsonPlainRunEnd(p, end), want)
                        << int(fill) << " " << int(hit) << " " << at << " "
                        << from;
                    ++checked;
                }
            }
        }
    }
    // No special byte at all: the scan runs to the end.
    std::string plain(37, 'x');
    EXPECT_EQ(support::jsonPlainRunEnd(plain.data(), plain.data() + 37),
              plain.data() + 37);
    EXPECT_GT(checked, 10000);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.range(2, 4);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 4);
        saw_lo |= v == 2;
        saw_hi |= v == 4;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkDivergesFromParent)
{
    Rng parent(9);
    Rng child = parent.fork();
    // Streams should differ in the first few values.
    bool differs = false;
    for (int i = 0; i < 4; ++i)
        differs |= parent.next() != child.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(rng.chance(1, 1));
        EXPECT_FALSE(rng.chance(0, 10));
    }
}

} // namespace
} // namespace mc::support
