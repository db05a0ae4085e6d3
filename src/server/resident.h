#ifndef MCHECK_SERVER_RESIDENT_H
#define MCHECK_SERVER_RESIDENT_H

#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "corpus/generator.h"
#include "checkers/registry.h"
#include "flash/protocol_spec.h"
#include "lang/program.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace mc::server {

/** Source reader: (path, contents-out, error-out) -> ok. */
using FileReader =
    std::function<bool(const std::string&, std::string&, std::string&)>;

/** Read `path` from disk. The reader every batch run uses. */
bool readDiskFile(const std::string& path, std::string& contents,
                  std::string& error);

struct PreparedProgram;

/**
 * Build a program for `files` with no resident state: read through
 * `reader`, parse fresh, hand ownership to the caller. The batch
 * driver's path; also the daemon's when it has no snapshot to reuse.
 */
PreparedProgram
buildProgramOneShot(const std::vector<std::string>& files,
                    const FileReader& reader);

/**
 * A program ready to check, plus where it came from. When `reused` the
 * program (and its CFG cache) belong to the ResidentState that served
 * it; otherwise `owned` carries a freshly built program the caller
 * drops after the run.
 */
struct PreparedProgram
{
    lang::Program* program = nullptr;
    std::unique_ptr<lang::Program> owned;
    /** Resident CFGs for this program; null for one-shot runs. */
    checkers::CfgCache* cfg_cache = nullptr;
    /** Resident unit results for this program; null for one-shot runs. */
    checkers::ResidentUnits* units = nullptr;
    /**
     * The resident files-mode spec (cliFilesSpec of `program`), rebuilt
     * only when a re-parse changes the list of definitions; null for
     * one-shot runs.
     */
    const flash::ProtocolSpec* files_spec = nullptr;
    /** flash::specFingerprint(*files_spec), kept with it; 0 without. */
    std::uint64_t files_spec_fingerprint = 0;
    /** Files lexed+parsed to satisfy this request. */
    std::uint64_t files_reparsed = 0;
    /** A resident snapshot matched (even if some files re-parsed). */
    bool reused = false;
    bool ok = false;
    /** "cannot open <path>" (first failing file, in request order). */
    std::string error;
};

/**
 * Everything the checking daemon keeps warm between requests.
 *
 * Reuse, cheapest first:
 *
 *  1. Process globals (symbol interner, shared CheckerDefs and their
 *     compiled SM transition tables, registered metric nodes) are
 *     resident for free — they live for the process regardless.
 *  2. Parsed programs live in snapshots keyed by the *ordered file
 *     list*. A request over the same file set reuses the snapshot;
 *     files whose bytes changed re-parse in place
 *     (Program::updateSource — file ids stay stable, so diagnostic
 *     emission order matches a cold batch run); a different file set
 *     rebuilds from scratch.
 *  3. Next to each snapshot's program sit its CFGs (CfgCache, keyed by
 *     declaration), its files-mode spec (cliFilesSpec, rebuilt only
 *     when a re-parse changes the list of definitions) and its
 *     finished units (ResidentUnits: one slot per unit of the last run,
 *     in grid order, under its unitCacheKey — checker definition and
 *     options, witness configuration, spec and per-definition
 *     fingerprints). A re-check re-keys only the units of the files it
 *     re-parsed (the store keeps how it keyed the last run, the
 *     snapshot keeps its spec's fingerprint), compares each unit's key
 *     with its slot, runs only the units whose key changed, merges the
 *     rest in place and writes only the slots it ran; an edited file
 *     invalidates exactly its own functions' units. All three are
 *     dropped with the program they describe, whenever the snapshot is
 *     rebuilt or evicted.
 *  4. Overlay documents carry a generation that every open and change
 *     bumps; a snapshot skips the overlays whose generation it already
 *     read, so finding the edit costs a compare per disk file only.
 *
 * A daemon started with `--cache DIR` also consults that disk cache for
 * units its snapshot does not hold. The in-memory AnalysisCache
 * (`memoryCache`) is no longer filled by check requests.
 *
 * Byte-parity invariant: nothing here may change output bytes. Reuse
 * either reproduces exactly what a fresh build would produce (stable
 * file ids + slot-ordered function index) or merges a unit result kept
 * under the same content key a warm batch run replays by.
 *
 * Not internally synchronized: the daemon serializes every access under
 * its request-execution mutex (which the protocol needs anyway — the
 * witness configuration is a process global set per request).
 */
class ResidentState
{
  public:
    /** Resident file snapshots kept before the least-recently-used drops. */
    static constexpr std::size_t kMaxFileSnapshots = 4;

    ResidentState();

    // ---- document overlays (open/change/close) ------------------------

    /**
     * Insert or replace the overlay for `path` under a new generation,
     * so the next prepareFiles re-reads it.
     */
    void openDocument(const std::string& path, std::string text);
    /** Drop the overlay; false if none existed. */
    bool closeDocument(const std::string& path);
    bool hasDocument(const std::string& path) const;
    std::size_t documentCount() const { return documents_.size(); }

    /** Overlay-first reader (falls back to disk). */
    bool readFile(const std::string& path, std::string& contents,
                  std::string& error) const;

    // ---- the in-memory analysis cache ----------------------------------

    /**
     * An in-memory analysis cache. Check requests no longer fill it:
     * unit results stay resident per snapshot instead. Kept for the
     * callers that drive the unit pipeline themselves.
     */
    cache::AnalysisCache& memoryCache() { return *memory_cache_; }

    // ---- program snapshots --------------------------------------------

    /**
     * Program for `files`: reuse + in-place re-parse when a snapshot
     * matches, full (re)build otherwise. The result is published as this
     * state's snapshot for that file list. A file with an open overlay
     * reads from it; every other file reads through `reader`, in request
     * order, so a failure names the first file that cannot be opened.
     * An overlay whose generation the snapshot already read is neither
     * read nor compared; every other file is compared byte for byte
     * with the resident source and re-parsed if it differs.
     */
    PreparedProgram prepareFiles(const std::vector<std::string>& files,
                                 const FileReader& reader);

    /**
     * Generated-protocol program for `protocol`, loaded once and reused
     * verbatim afterwards (generation is deterministic, so the resident
     * program equals a fresh load). Throws std::out_of_range for names
     * profileByName does not know. `reused` reports whether a resident
     * snapshot served the request; `cfgs` and `units` receive the
     * snapshot's resident stores and `spec_fingerprint` the fingerprint
     * of its spec, computed once when it loads.
     */
    corpus::LoadedProtocol& protocolSnapshot(const std::string& protocol,
                                             checkers::CfgCache*& cfgs,
                                             checkers::ResidentUnits*& units,
                                             std::uint64_t& spec_fingerprint,
                                             bool& reused);

    /**
     * Parse-or-reuse a user metal checker's definition by its *source
     * text* and options (keyed by content, so an edited .metal
     * re-compiles and an untouched one is free). `origin` names the
     * source in parse errors, matching what a batch run reports. Throws
     * metal::MetalParseError on malformed source.
     */
    const checkers::CheckerDef&
    metalChecker(const std::string& source, const std::string& origin,
                 const checkers::CheckerSetOptions& options);

    // ---- introspection for the `status` method ------------------------

    std::size_t fileSnapshotCount() const { return snapshots_.size(); }
    std::size_t protocolSnapshotCount() const { return protocols_.size(); }
    std::size_t metalProgramCount() const { return metal_.size(); }
    /** Functions resident across all program snapshots. */
    std::size_t residentFunctionCount() const;
    /** CFGs resident across all snapshot caches. */
    std::size_t residentCfgCount() const;
    /** Unit results resident across all snapshots. */
    std::size_t residentUnitCount() const;
    /** Arena bytes wasted by in-place re-parses (rebuild pressure). */
    std::size_t arenaWasteBytes() const;

  private:
    struct FileSnapshot
    {
        std::vector<std::string> files;
        std::unique_ptr<lang::Program> program;
        std::unique_ptr<checkers::CfgCache> cfg_cache;
        std::unique_ptr<checkers::ResidentUnits> units;
        std::unique_ptr<flash::ProtocolSpec> files_spec;
        /** flash::specFingerprint(*files_spec), refreshed with it. */
        std::uint64_t files_spec_fingerprint = 0;
        /** program->definitionNamesVersion() when `files_spec` was
         *  built. */
        std::uint64_t spec_names_version = 0;
        /**
         * Per file, the overlay generation its resident source was last
         * read from; 0 when it came from `reader`.
         */
        std::vector<std::uint64_t> generations;
        std::uint64_t last_used = 0;

        /** Rebuild `files_spec` unless it covers the names of
         *  `program`'s definitions. */
        void refreshFilesSpec();
        /** This snapshot's resident stores, as a request sees them. */
        void publish(PreparedProgram& prepared);
    };

    struct ProtocolSnapshot
    {
        corpus::LoadedProtocol loaded;
        std::unique_ptr<checkers::CfgCache> cfg_cache;
        std::unique_ptr<checkers::ResidentUnits> units;
        /** flash::specFingerprint(loaded.gen.spec). */
        std::uint64_t spec_fingerprint = 0;
    };

    FileSnapshot* findSnapshot(const std::vector<std::string>& files);

    /** An open overlay; `generation` is unique across all of them. */
    struct Document
    {
        std::string text;
        std::uint64_t generation = 0;
    };

    /** Hashed, not ordered: a check looks up every file of its list,
     *  and paths share long prefixes an ordered compare re-reads. */
    std::unordered_map<std::string, Document> documents_;
    /** The last generation openDocument handed out. */
    std::uint64_t document_seq_ = 0;
    std::unique_ptr<cache::AnalysisCache> memory_cache_;
    std::vector<FileSnapshot> snapshots_;
    std::map<std::string, ProtocolSnapshot> protocols_;
    std::map<std::uint64_t, std::unique_ptr<const checkers::CheckerDef>>
        metal_;
    std::uint64_t use_seq_ = 0;
};

} // namespace mc::server

#endif // MCHECK_SERVER_RESIDENT_H
