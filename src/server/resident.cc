#include "server/resident.h"

#include "server/check_units.h"
#include "support/hash.h"

#include <fstream>
#include <sstream>

namespace mc::server {

namespace {

/**
 * Arena waste (bytes of replaced source) past which an in-place
 * re-parse is traded for a full rebuild: append-only arenas make edits
 * cheap but never reclaim, so a long editing session must eventually
 * start fresh. 8 MiB is ~40 re-parses of the largest corpus handler.
 */
constexpr std::size_t kArenaWasteRebuildBytes = 8ull << 20;

/** Read every file in request order; false with the batch error line. */
bool
readAll(const std::vector<std::string>& files, const FileReader& reader,
        std::vector<std::string>& contents, std::string& error_line)
{
    contents.assign(files.size(), {});
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::string error;
        if (!reader(files[i], contents[i], error)) {
            error_line = "mccheck: " + error;
            return false;
        }
    }
    return true;
}

/**
 * Parse every file into `program` (consumes `contents`). Recovery mode
 * matches both batch file modes, so malformed input degrades instead of
 * throwing; the catch blocks mirror batch loadSources for defense in
 * depth, producing its exact error line.
 */
bool
buildInto(lang::Program& program, const std::vector<std::string>& files,
          std::vector<std::string>& contents, std::string& error_line)
{
    for (std::size_t i = 0; i < files.size(); ++i) {
        try {
            program.addSource(files[i], std::move(contents[i]));
        } catch (const lang::ParseError& e) {
            std::ostringstream os;
            os << files[i] << ':' << e.loc().line << ':' << e.loc().column
               << ": parse error: " << e.what();
            error_line = os.str();
            return false;
        } catch (const lang::LexError& e) {
            std::ostringstream os;
            os << files[i] << ':' << e.loc().line << ": lex error: "
               << e.what();
            error_line = os.str();
            return false;
        }
    }
    return true;
}

} // namespace

bool
readDiskFile(const std::string& path, std::string& contents,
             std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
    return true;
}

ResidentState::ResidentState()
    : memory_cache_(cache::AnalysisCache::inMemory())
{}

void
ResidentState::openDocument(const std::string& path, std::string text)
{
    documents_[path] = Document{std::move(text), ++document_seq_};
}

bool
ResidentState::closeDocument(const std::string& path)
{
    return documents_.erase(path) > 0;
}

bool
ResidentState::hasDocument(const std::string& path) const
{
    return documents_.count(path) > 0;
}

bool
ResidentState::readFile(const std::string& path, std::string& contents,
                        std::string& error) const
{
    auto it = documents_.find(path);
    if (it != documents_.end()) {
        contents = it->second.text;
        return true;
    }
    return readDiskFile(path, contents, error);
}

void
ResidentState::FileSnapshot::refreshFilesSpec()
{
    if (files_spec && spec_names_version == program->definitionNamesVersion())
        return;
    files_spec = std::make_unique<flash::ProtocolSpec>(cliFilesSpec(*program));
    files_spec_fingerprint = flash::specFingerprint(*files_spec);
    spec_names_version = program->definitionNamesVersion();
}

void
ResidentState::FileSnapshot::publish(PreparedProgram& prepared)
{
    refreshFilesSpec();
    prepared.program = program.get();
    prepared.cfg_cache = cfg_cache.get();
    prepared.units = units.get();
    prepared.files_spec = files_spec.get();
    prepared.files_spec_fingerprint = files_spec_fingerprint;
    prepared.ok = true;
}

ResidentState::FileSnapshot*
ResidentState::findSnapshot(const std::vector<std::string>& files)
{
    for (FileSnapshot& snap : snapshots_)
        if (snap.files == files)
            return &snap;
    return nullptr;
}

PreparedProgram
buildProgramOneShot(const std::vector<std::string>& files,
                    const FileReader& reader)
{
    PreparedProgram prepared;
    std::vector<std::string> contents;
    if (!readAll(files, reader, contents, prepared.error))
        return prepared;
    auto program = std::make_unique<lang::Program>(/*recover=*/true);
    if (!buildInto(*program, files, contents, prepared.error))
        return prepared;
    prepared.program = program.get();
    prepared.owned = std::move(program);
    prepared.files_reparsed = files.size();
    prepared.ok = true;
    return prepared;
}

PreparedProgram
ResidentState::prepareFiles(const std::vector<std::string>& files,
                            const FileReader& reader)
{
    PreparedProgram prepared;

    // Read every disk input up front, in request order, so "cannot open"
    // surfaces for the same (first) file a batch run would report. An
    // overlay cannot fail to open; it is read below only if needed.
    std::vector<const Document*> overlays(files.size(), nullptr);
    std::vector<std::uint64_t> generations(files.size(), 0);
    std::vector<std::string> contents(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        auto it = documents_.find(files[i]);
        if (it != documents_.end()) {
            overlays[i] = &it->second;
            generations[i] = it->second.generation;
            continue;
        }
        std::string error;
        if (!reader(files[i], contents[i], error)) {
            prepared.error = "mccheck: " + error;
            return prepared;
        }
    }

    FileSnapshot* snap = findSnapshot(files);
    if (snap &&
        snap->program->arenaWasteEstimate() <= kArenaWasteRebuildBytes) {
        lang::Program& current = *snap->program;
        bool in_place_ok = true;
        std::uint64_t reparsed = 0;
        for (std::size_t i = 0; i < files.size(); ++i) {
            // An overlay the snapshot last read at this generation is
            // what file i holds: neither read nor compared.
            if (generations[i] != 0 &&
                snap->generations[i] == generations[i])
                continue;
            // The snapshot was built from this file list in order, so
            // unit i holds file i's resident bytes; an exact compare
            // finds the edited files without hashing the rest.
            const std::string_view text =
                overlays[i] ? std::string_view(overlays[i]->text)
                            : std::string_view(contents[i]);
            const std::int32_t id = current.units()[i].file_id;
            if (current.sourceManager().fileContents(id) != text) {
                // Copied, not moved: if a later file's in-place update
                // fails the rebuild below still needs every file's
                // contents.
                if (!current.updateSource(files[i], std::string(text))) {
                    in_place_ok = false;
                    break;
                }
                ++reparsed;
            }
            snap->generations[i] = generations[i];
        }
        if (in_place_ok) {
            snap->last_used = ++use_seq_;
            snap->publish(prepared);
            prepared.files_reparsed = reparsed;
            prepared.reused = true;
            return prepared;
        }
    }

    // Full (re)build.
    for (std::size_t i = 0; i < files.size(); ++i)
        if (overlays[i])
            contents[i] = overlays[i]->text;
    auto program = std::make_unique<lang::Program>(/*recover=*/true);
    if (!buildInto(*program, files, contents, prepared.error))
        return prepared;

    if (snap) {
        // Same file list, but reuse fell through (arena pressure or a
        // failed in-place update): replace the stale snapshot's guts.
        snap->program = std::move(program);
        snap->cfg_cache = std::make_unique<checkers::CfgCache>();
        snap->units = std::make_unique<checkers::ResidentUnits>();
        snap->files_spec.reset();
        snap->last_used = ++use_seq_;
    } else {
        if (snapshots_.size() >= kMaxFileSnapshots) {
            std::size_t oldest = 0;
            for (std::size_t i = 1; i < snapshots_.size(); ++i)
                if (snapshots_[i].last_used <
                    snapshots_[oldest].last_used)
                    oldest = i;
            snapshots_.erase(snapshots_.begin() +
                             static_cast<std::ptrdiff_t>(oldest));
        }
        FileSnapshot fresh;
        fresh.files = files;
        fresh.program = std::move(program);
        fresh.cfg_cache = std::make_unique<checkers::CfgCache>();
        fresh.units = std::make_unique<checkers::ResidentUnits>();
        fresh.last_used = ++use_seq_;
        snapshots_.push_back(std::move(fresh));
        snap = &snapshots_.back();
    }
    snap->generations = std::move(generations);

    snap->publish(prepared);
    prepared.files_reparsed = files.size();
    return prepared;
}

corpus::LoadedProtocol&
ResidentState::protocolSnapshot(const std::string& protocol,
                                checkers::CfgCache*& cfgs,
                                checkers::ResidentUnits*& units,
                                std::uint64_t& spec_fingerprint, bool& reused)
{
    auto it = protocols_.find(protocol);
    if (it == protocols_.end()) {
        ProtocolSnapshot snap;
        snap.loaded =
            corpus::loadProtocol(corpus::profileByName(protocol));
        snap.cfg_cache = std::make_unique<checkers::CfgCache>();
        snap.units = std::make_unique<checkers::ResidentUnits>();
        snap.spec_fingerprint = flash::specFingerprint(snap.loaded.gen.spec);
        it = protocols_.emplace(protocol, std::move(snap)).first;
        reused = false;
    } else {
        reused = true;
    }
    cfgs = it->second.cfg_cache.get();
    units = it->second.units.get();
    spec_fingerprint = it->second.spec_fingerprint;
    return it->second.loaded;
}

const checkers::CheckerDef&
ResidentState::metalChecker(const std::string& source,
                            const std::string& origin,
                            const checkers::CheckerSetOptions& options)
{
    const std::uint64_t key =
        support::Fnv1a()
            .str(source)
            .u8(options.value_sensitive_frees ? 1 : 0)
            .u8(static_cast<std::uint8_t>(options.prune_strategy))
            .value();
    std::unique_ptr<const checkers::CheckerDef>& def = metal_[key];
    if (!def)
        def = checkers::CheckerDef::fromMetal(source, origin, options);
    return *def;
}

std::size_t
ResidentState::residentFunctionCount() const
{
    std::size_t n = 0;
    for (const FileSnapshot& snap : snapshots_)
        n += snap.program->functions().size();
    for (const auto& [name, snap] : protocols_)
        n += snap.loaded.program->functions().size();
    return n;
}

std::size_t
ResidentState::residentCfgCount() const
{
    std::size_t n = 0;
    for (const FileSnapshot& snap : snapshots_)
        n += snap.cfg_cache->size();
    for (const auto& [name, snap] : protocols_)
        n += snap.cfg_cache->size();
    return n;
}

std::size_t
ResidentState::residentUnitCount() const
{
    std::size_t n = 0;
    for (const FileSnapshot& snap : snapshots_)
        n += snap.units->size();
    for (const auto& [name, snap] : protocols_)
        n += snap.units->size();
    return n;
}

std::size_t
ResidentState::arenaWasteBytes() const
{
    std::size_t n = 0;
    for (const FileSnapshot& snap : snapshots_)
        n += snap.program->arenaWasteEstimate();
    return n;
}

} // namespace mc::server
