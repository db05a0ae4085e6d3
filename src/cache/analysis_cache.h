#ifndef MCHECK_CACHE_ANALYSIS_CACHE_H
#define MCHECK_CACHE_ANALYSIS_CACHE_H

#include "support/diagnostics.h"
#include "support/source_manager.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mc::cache {

/**
 * Bump when the on-disk entry layout changes. Folded into every cache
 * key *and* written in each entry header, so a new binary never reads an
 * old layout (key miss) and a tampered header is rejected (load error).
 */
inline constexpr int kCacheFormatVersion = 2;

/**
 * One witness step as stored on disk. Like diagnostic locations, the
 * step's location travels by file *name* and is re-resolved against the
 * current run's SourceManager on replay, so warm-run witnesses are
 * byte-identical to cold ones.
 */
struct CachedWitnessStep
{
    std::string from;
    std::string to;
    std::string file;
    int line = 0;
    int column = 0;
    std::string note;
};

/**
 * One diagnostic as stored on disk. Locations are carried by file *name*
 * rather than the run-local numeric file id: ids depend on registration
 * order inside one process, names are stable across runs. Replay
 * re-resolves names against the current run's SourceManager.
 */
struct CachedDiagnostic
{
    int severity = 0; // support::Severity as int
    std::string file; // "<unknown>" for synthesized locations
    int line = 0;
    int column = 0;
    std::string checker;
    std::string rule;
    std::string message;
    std::vector<std::string> trace;
    /** Witness payload (empty unless the run captured provenance). */
    std::vector<CachedWitnessStep> wsteps;
    std::vector<int> wblocks;
    bool wtruncated = false;
};

/**
 * Everything one (function, checker) work unit produced: the diagnostics
 * its private sink collected (in emission order) and the checker's
 * serialized per-function state (Checker::saveState), replayed through
 * Checker::loadState + absorb on a hit so warm runs are byte-identical
 * to cold ones.
 */
struct CachedUnit
{
    std::string checker;
    std::string function;
    /** Opaque Checker::saveState blob (applied count + summaries). */
    std::string state;
    std::vector<CachedDiagnostic> diags;
};

/** Monotonic tallies for one cache's lifetime (always on, lock-free). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
};

/** The largest --cache-limit-mb a front end accepts: 1 TiB, so the cap
 *  in bytes cannot wrap. */
inline constexpr std::uint64_t kMaxCacheLimitMb = 1u << 20;

/**
 * Persistent, content-addressed store of per-(function, checker)
 * analysis results.
 *
 * Entries are keyed by a 64-bit content hash (engine version, checker
 * identity + options + metal source, protocol-spec fingerprint, function
 * token-stream fingerprint — derived by the caller) and live as one text
 * file per key, `<16-hex>.mcu`, under the cache directory. Every entry
 * ends in an FNV-1a checksum line; lookups that find a truncated,
 * version-mismatched, bit-flipped, or otherwise unparsable entry count
 * it as corrupt, record a warning, and report a miss — the caller falls
 * back to cold analysis, never to stale findings.
 *
 * Thread-safe: lookups and stores touch distinct files per key, stats
 * are atomics, and the warning list is mutex-guarded, so the parallel
 * runner's workers may share one instance.
 *
 * In readonly mode stores are dropped (hit rates still tally), and
 * corrupt entries are left in place for post-mortem instead of being
 * deleted.
 */
class AnalysisCache
{
  public:
    /**
     * Opens (and unless readonly, creates) `dir`. Throws
     * std::runtime_error if the directory cannot be created or is not
     * usable.
     */
    explicit AnalysisCache(std::string dir, bool readonly = false);

    /**
     * A cache with no backing directory: entries live in a mutex-guarded
     * in-process map as *decoded* units. `store` encodes each unit and
     * decodes it back, so what is kept is exactly what a disk round trip
     * would yield (a unit that fails the round trip is not kept), and a
     * hit hands out that resident unit with no decode and no copy. Sizes
     * (`residentBytes`, `trim`, bytes read/written) count the encoded
     * form. This is the resident per-unit result store of the checking
     * daemon — fingerprint-keyed invalidation with zero filesystem
     * traffic. `trim` evicts oldest-stored entries first.
     */
    static std::unique_ptr<AnalysisCache> inMemory();

    const std::string& dir() const { return dir_; }
    bool readonly() const { return readonly_; }
    bool memoryBacked() const { return memory_; }

    /** Live entries (memory mode: exact; disk mode: a directory scan). */
    std::uint64_t entryCount() const;

    /**
     * Encoded size of the entries currently resident (memory mode only):
     * what they would occupy on disk.
     */
    std::uint64_t residentBytes() const;

    /**
     * The entry for `key`, or nullptr (a miss) if it does not exist or
     * fails validation. A memory-mode hit shares the resident unit; a
     * disk-mode hit owns the unit it just decoded. Either way the unit
     * is immutable and stays valid after eviction.
     */
    std::shared_ptr<const CachedUnit> lookup(std::uint64_t key);

    /** Write the entry for `key`; no-op in readonly mode. */
    void store(std::uint64_t key, const CachedUnit& unit);

    /**
     * Evict least-recently-modified entries until the cache holds at
     * most `max_bytes` of entry files. 0 evicts everything.
     */
    void trim(std::uint64_t max_bytes);

    /** Point-in-time copy of the tallies. */
    CacheStats stats() const;

    /** Drain accumulated warnings (corrupt entries, I/O failures). */
    std::vector<std::string> takeWarnings();

    /** On-disk path for a key (exposed for tests' corruption harness). */
    std::string entryPath(std::uint64_t key) const;

    // ---- serialization (public for tests and the bench) ---------------

    /** Render `unit` in the on-disk format, checksum line included. */
    static std::string encodeUnit(const CachedUnit& unit);

    /**
     * Parse an encoded entry. Returns false with a reason in `error` for
     * anything malformed: bad checksum, wrong format/tool version,
     * truncation, field corruption.
     */
    static bool decodeUnit(const std::string& text, CachedUnit& out,
                           std::string& error);

    /** Strip a Diagnostic down to its storable form. */
    static CachedDiagnostic
    toCached(const support::Diagnostic& diag,
             const support::SourceManager& sm);

    /**
     * Rebuild a Diagnostic, resolving the stored file name through
     * `file_ids` (name -> current file id; "<unknown>" maps to id 0).
     * Returns false if the file name is not registered this run — the
     * caller should treat the whole unit as a miss.
     */
    static bool
    fromCached(const CachedDiagnostic& cached,
               const std::map<std::string, std::int32_t>& file_ids,
               support::Diagnostic& out);

    /** name -> id map over every file registered with `sm`. */
    static std::map<std::string, std::int32_t>
    fileIdsByName(const support::SourceManager& sm);

  private:
    struct MemoryTag
    {
    };
    explicit AnalysisCache(MemoryTag);

    void warn(std::string message);
    void countMiss(bool corrupt_entry, std::uint64_t key,
                   const std::string& reason);

    std::string dir_;
    bool readonly_ = false;
    bool memory_ = false;

    /** One memory-mode entry: a unit validated by an encode round trip. */
    struct MemoryEntry
    {
        /** Insertion sequence; `trim` evicts the lowest first. */
        std::uint64_t seq = 0;
        /** Size of the unit's on-disk encoding. */
        std::uint64_t bytes = 0;
        std::shared_ptr<const CachedUnit> unit;
    };

    void countHit(std::uint64_t bytes);

    mutable std::mutex mem_mu_;
    std::unordered_map<std::uint64_t, MemoryEntry> mem_;
    std::uint64_t mem_seq_ = 0;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> bytes_read_{0};
    std::atomic<std::uint64_t> bytes_written_{0};

    std::mutex warnings_mu_;
    std::vector<std::string> warnings_;
};

} // namespace mc::cache

#endif // MCHECK_CACHE_ANALYSIS_CACHE_H
