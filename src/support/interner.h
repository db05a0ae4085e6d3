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
 * Hash of an identifier spelling, a word at a time. Not stable across
 * builds; only for in-memory tables.
 */
inline std::uint64_t
spellingHash(std::string_view spelling)
{
    constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
    const char* p = spelling.data();
    std::size_t n = spelling.size();
    std::uint64_t h = n * kMul;
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        h = (h ^ word) * kMul;
        h ^= h >> 32;
    }
    if (n > 0) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, n);
        h = (h ^ word) * kMul;
    }
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    return h ^ (h >> 32);
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
 * hash and one probe with no lock. A miss interns globally once and
 * remembers the interner's stable spelling, which name() then returns
 * without the interner's lock. Single-owner and not thread-safe: a
 * lang::Program owns one for all of its units, and a parser without a
 * program (metal patterns) uses its own.
 */
class SpellingTable
{
  public:
    SpellingTable() = default;

    SpellingTable(const SpellingTable&) = delete;
    SpellingTable& operator=(const SpellingTable&) = delete;

    /** The global id of `spelling`, interning it on first sight. */
    SymbolId
    intern(std::string_view spelling)
    {
        const std::uint64_t hash = spellingHash(spelling);
        const std::size_t mask = entries_.size() - 1;
        if (!entries_.empty()) {
            for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
                const Entry& e = entries_[i];
                if (e.id == kInvalidSymbol)
                    break;
                if (e.hash == hash && names_.find(e.id) == spelling)
                    return e.id;
            }
        }
        return insert(spelling, hash);
    }

    /**
     * The interner's stable spelling of a symbol this table returned;
     * no lock, unlike SymbolInterner::name().
     */
    std::string_view name(SymbolId id) const { return names_.find(id); }

    /** Distinct spellings cached so far. */
    std::size_t size() const { return used_; }

  private:
    struct Entry
    {
        std::uint64_t hash = 0;
        SymbolId id = kInvalidSymbol;
    };

    /** Intern a spelling the table does not hold yet. */
    SymbolId insert(std::string_view spelling, std::uint64_t hash);
    void grow();

    std::vector<Entry> entries_;
    std::size_t used_ = 0;
    /** Each cached symbol's stable spelling, from the interner. */
    SymbolMap<std::string_view> names_;
};

} // namespace mc::support

#endif // MCHECK_SUPPORT_INTERNER_H
