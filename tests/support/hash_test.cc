#include "support/hash.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace mc::support {
namespace {

/** u64 hashed the plain way: each of its eight bytes, low byte first. */
std::uint64_t
bytewise(Fnv1a h, std::uint64_t v)
{
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    return h.bytes(b, 8).value();
}

TEST(Fnv1a, FoldedZeroBytesHashLikeEachByte)
{
    std::vector<std::uint64_t> values = {0,
                                         1,
                                         0xff,
                                         0x100,
                                         0x10000,
                                         0xff00ff00,
                                         1ULL << 56,
                                         0x00ff000000000000ULL,
                                         ~0ULL};
    std::mt19937_64 rng(5);
    for (int i = 0; i < 1000; ++i)
        values.push_back(rng() >> (rng() % 64));
    Fnv1a h;
    h.str("seed");
    for (std::uint64_t v : values) {
        EXPECT_EQ(Fnv1a(h).u64(v).value(), bytewise(h, v)) << v;
        h.u64(v);
    }
}

} // namespace
} // namespace mc::support
