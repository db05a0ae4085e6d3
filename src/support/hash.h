#ifndef MCHECK_SUPPORT_HASH_H
#define MCHECK_SUPPORT_HASH_H

#include <cstdint>
#include <string>
#include <string_view>

namespace mc::support {

/**
 * Streaming FNV-1a 64-bit hasher.
 *
 * Used wherever the system needs a *stable* content hash — one whose
 * value survives process restarts and is identical across platforms —
 * most importantly for the analysis cache's content-addressed keys
 * (std::hash gives no such guarantee). Strings are length-prefixed so
 * adjacent fields cannot alias ("ab"+"c" vs "a"+"bc").
 */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kOffset = 1469598103934665603ULL;
    static constexpr std::uint64_t kPrime = 1099511628211ULL;

    Fnv1a& bytes(const void* data, std::size_t n)
    {
        const unsigned char* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= kPrime;
        }
        return *this;
    }

    Fnv1a& str(std::string_view s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    Fnv1a& u64(std::uint64_t v)
    {
        // Fixed little-endian byte order, independent of host endianness.
        // A zero byte only multiplies (h ^ 0 == h), so once the bytes left
        // are all zero — the high bytes of a length, line or column — they
        // fold into one multiply by a power of the prime: the same value
        // as hashing each byte.
        int i = 0;
        for (; i < 8 && v != 0; ++i, v >>= 8) {
            h_ ^= v & 0xff;
            h_ *= kPrime;
        }
        h_ *= kPrimePowers[8 - i];
        return *this;
    }

    Fnv1a& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }

    Fnv1a& u8(std::uint8_t v) { return bytes(&v, 1); }

    std::uint64_t value() const { return h_; }

  private:
    /** kPrime^k mod 2^64 for k = 0..8. */
    static constexpr std::uint64_t kPrimePowers[9] = {
        1ULL,
        kPrime,
        kPrime * kPrime,
        kPrime * kPrime * kPrime,
        kPrime * kPrime * kPrime * kPrime,
        kPrime * kPrime * kPrime * kPrime * kPrime,
        kPrime * kPrime * kPrime * kPrime * kPrime * kPrime,
        kPrime * kPrime * kPrime * kPrime * kPrime * kPrime * kPrime,
        kPrime * kPrime * kPrime * kPrime * kPrime * kPrime * kPrime * kPrime,
    };

    std::uint64_t h_ = kOffset;
};

/** One-shot hash of a byte string. */
inline std::uint64_t
fnv1a(std::string_view s)
{
    return Fnv1a().bytes(s.data(), s.size()).value();
}

/** Render a 64-bit hash as 16 lowercase hex digits (cache file names). */
inline std::string
hashHex(std::uint64_t h)
{
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

} // namespace mc::support

#endif // MCHECK_SUPPORT_HASH_H
