#ifndef MCHECK_SUPPORT_INTERNER_H
#define MCHECK_SUPPORT_INTERNER_H

#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mc::support {

/** Dense handle for an interned string (see SymbolInterner). */
using SymbolId = std::uint32_t;

/** "No symbol" sentinel; never returned by intern(). */
inline constexpr SymbolId kInvalidSymbol = 0xFFFFFFFFu;

/**
 * String <-> dense-id interner for the matching hot path.
 *
 * The engine's per-visit work used to be dominated by rebuilding
 * `std::set<std::string>` identifier sets and comparing heap strings;
 * interning turns every such comparison into a `uint32_t` compare and
 * every set into a sorted id vector. Ids are dense (0, 1, 2, ...) in
 * first-intern order and are never recycled.
 *
 * Lifetime rules (also in docs/performance.md):
 *  - `global()` lives for the process; ids and the views returned by
 *    `name()` stay valid forever. Ids are NOT stable across processes
 *    or runs — never persist them (the analysis cache keys on content
 *    hashes, not symbol ids) and never let an id's numeric value leak
 *    into diagnostics or reports.
 *  - A locally constructed interner's ids are meaningful only against
 *    that instance; `name()` views die with it.
 *
 * Thread-safe: lookups of already-interned names take a shared lock
 * (the steady state once a run's vocabulary is warm); first-time
 * interns briefly take the lock exclusively. Storage is a deque so
 * grown elements never move and returned views stay valid unlocked.
 */
class SymbolInterner
{
  public:
    /** The process-wide instance used by pattern matching. */
    static SymbolInterner& global();

    /** Id for `name`, interning it on first sight. */
    SymbolId intern(std::string_view name);

    /** Id for `name` if already interned; does not intern. */
    std::optional<SymbolId> lookup(std::string_view name) const;

    /**
     * The string for an interned id. The view stays valid for the
     * interner's lifetime. Passing an id this interner never returned
     * is a logic error (asserted in debug builds; empty view in
     * release).
     */
    std::string_view name(SymbolId id) const;

    /** Number of distinct strings interned so far. */
    std::size_t size() const;

  private:
    mutable std::shared_mutex mu_;
    /** Id -> string; deque keeps element addresses stable on growth. */
    std::deque<std::string> names_;
    /** Keys are views into names_, so they are stable too. */
    std::unordered_map<std::string_view, SymbolId> ids_;
};

/**
 * Hash of an identifier spelling, built a byte at a time so a lexer can
 * compute it while it scans the identifier: bytes gather into a
 * little-endian word that folds into the hash every eight bytes, and
 * finish() folds the partial last word and the length. Not stable
 * across builds; only for in-memory tables. spellingHash() is the same
 * function over a whole string.
 */
class SpellingHasher
{
  public:
    void
    add(unsigned char byte)
    {
        word_ |= std::uint64_t{byte} << shift_;
        shift_ += 8;
        if (shift_ == 64) {
            hash_ = fold(hash_, word_);
            word_ = 0;
            shift_ = 0;
        }
    }

    /**
     * Add eight bytes at once as a little-endian word; only when the
     * bytes added so far are a multiple of eight.
     */
    void addWord(std::uint64_t word) { hash_ = fold(hash_, word); }

    /** The hash of the `length` bytes added so far. */
    std::uint64_t
    finish(std::size_t length) const
    {
        std::uint64_t h = ((hash_ ^ word_) + length) * kSpellingHashMul;
        h ^= h >> 29;
        h *= 0xBF58476D1CE4E5B9ULL;
        return h ^ (h >> 32);
    }

  private:
    /** The 64-bit golden ratio. */
    static constexpr std::uint64_t kSpellingHashMul = 0x9E3779B97F4A7C15ULL;

    static std::uint64_t
    fold(std::uint64_t h, std::uint64_t word)
    {
        h = (h ^ word) * kSpellingHashMul;
        return h ^ (h >> 32);
    }

    std::uint64_t hash_ = 0;
    std::uint64_t word_ = 0;
    unsigned shift_ = 0;
};

/** SpellingHasher over all of `spelling`, a word at a time. */
inline std::uint64_t
spellingHash(std::string_view spelling)
{
    const auto* p = reinterpret_cast<const unsigned char*>(spelling.data());
    const std::size_t n = spelling.size();
    SpellingHasher hasher;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Assembled byte by byte, so the value is the same on any host;
        // compilers turn this into one load where the host allows.
        std::uint64_t word = 0;
        for (unsigned b = 0; b < 8; ++b)
            word |= std::uint64_t{p[i + b]} << (8 * b);
        hasher.addWord(word);
    }
    for (; i < n; ++i)
        hasher.add(p[i]);
    return hasher.finish(n);
}

/**
 * A map keyed by global SymbolId. Ids are dense, so the map is a flat
 * vector indexed by id: a lookup is one bounds check and one load.
 * Absent keys read as the `absent` value given at construction.
 */
template <typename T>
class SymbolMap
{
  public:
    explicit SymbolMap(T absent = T{}) : absent_(absent) {}

    T
    find(SymbolId id) const
    {
        return id < values_.size() ? values_[id] : absent_;
    }

    /** Bind `id` to `value`; kInvalidSymbol is ignored. */
    void
    set(SymbolId id, T value)
    {
        if (id == kInvalidSymbol)
            return;
        if (id >= values_.size())
            values_.resize(std::size_t{id} + 1, absent_);
        values_[id] = value;
    }

  private:
    std::vector<T> values_;
    T absent_;
};

/**
 * Spelling -> SymbolId cache in front of SymbolInterner::global(): one
 * flat open-addressing table, so an identifier seen before costs one
 * probe with no lock, keyed by the SpellingHasher value its lexer
 * computed while scanning it. A miss interns globally once and
 * remembers the interner's stable spelling, which name() then returns
 * without the interner's lock.
 *
 * The table can also hold reserved words (the lexer reserves the
 * keywords), so one probe tells a keyword from an identifier. A
 * reserved word is never interned and has no symbol.
 *
 * Single-owner and not thread-safe: a lang::Program owns one for all of
 * its units, and a parser without a program (metal patterns) uses its
 * own.
 */
class SpellingTable
{
  public:
    /** What a spelling resolves to. */
    struct Resolved
    {
        /** The global symbol; kInvalidSymbol for a reserved word. */
        SymbolId id = kInvalidSymbol;
        /** The reserved word's nonzero class, or 0 for a name. */
        std::uint8_t reserved = 0;
    };

    SpellingTable() = default;

    SpellingTable(const SpellingTable&) = delete;
    SpellingTable& operator=(const SpellingTable&) = delete;

    /**
     * What `spelling` resolves to, interning it on first sight unless it
     * is reserved. `hash` must be spellingHash(spelling).
     */
    Resolved
    resolve(std::string_view spelling, std::uint64_t hash)
    {
        if (!entries_.empty()) {
            const std::size_t mask = entries_.size() - 1;
            for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
                const Entry& e = entries_[i];
                if (empty(e))
                    break;
                if (e.hash == hash && sameSpelling(e.spelling, spelling))
                    return {e.id, e.reserved};
            }
        }
        return insert(spelling, hash);
    }

    /**
     * Reserve `spelling` as a word of class `word` (nonzero); it must
     * not be in the table yet, and its characters must outlive the table
     * (a string literal).
     */
    void reserve(std::string_view spelling, std::uint8_t word);

    /** True once any word is reserved. */
    bool hasReservedWords() const { return reserved_ > 0; }

    /**
     * The interner's stable spelling of a symbol this table returned;
     * no lock, unlike SymbolInterner::name().
     */
    std::string_view name(SymbolId id) const { return names_.find(id); }

    /** Distinct symbols cached so far (reserved words not counted). */
    std::size_t size() const { return used_ - reserved_; }

  private:
    /**
     * One spelling with its hash, so a probe reads one entry and the
     * spelling's bytes. An empty slot has no spelling (a null view).
     */
    struct Entry
    {
        std::uint64_t hash = 0;
        /** The interner's copy of a name, or a reserved word's literal. */
        std::string_view spelling;
        /** The symbol of a name; kInvalidSymbol for a reserved word. */
        SymbolId id = kInvalidSymbol;
        /** The reserved word's class, or 0 for a name. */
        std::uint8_t reserved = 0;
    };

    /**
     * Equality of two spellings by a few overlapping word loads, none
     * past either end: identifiers are short and a matching hash almost
     * always means a match, so this beats a memcmp call.
     */
    static bool
    sameSpelling(std::string_view a, std::string_view b)
    {
        const std::size_t n = a.size();
        if (n != b.size())
            return false;
        const char* p = a.data();
        const char* q = b.data();
        auto same = [&](std::size_t at, auto word) {
            decltype(word) x;
            decltype(word) y;
            std::memcpy(&x, p + at, sizeof x);
            std::memcpy(&y, q + at, sizeof y);
            return x == y;
        };
        if (n >= 8) {
            for (std::size_t i = 0; i + 8 < n; i += 8)
                if (!same(i, std::uint64_t{}))
                    return false;
            return same(n - 8, std::uint64_t{});
        }
        if (n >= 4)
            return same(0, std::uint32_t{}) && same(n - 4, std::uint32_t{});
        for (std::size_t i = 0; i < n; ++i)
            if (p[i] != q[i])
                return false;
        return true;
    }

    /** Intern a spelling the table does not hold yet. */
    Resolved insert(std::string_view spelling, std::uint64_t hash);
    static bool empty(const Entry& e) { return e.spelling.data() == nullptr; }

    /** Put `e` in the first free slot of its probe run. */
    void place(const Entry& e);
    void grow();

    std::vector<Entry> entries_;
    /** Occupied slots: names and reserved words. */
    std::size_t used_ = 0;
    /** Each cached symbol's stable spelling, from the interner. */
    SymbolMap<std::string_view> names_;
    /** Reserved words among the occupied slots. */
    std::size_t reserved_ = 0;
};

} // namespace mc::support

#endif // MCHECK_SUPPORT_INTERNER_H
