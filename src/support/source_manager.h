#ifndef MCHECK_SUPPORT_SOURCE_MANAGER_H
#define MCHECK_SUPPORT_SOURCE_MANAGER_H

#include "support/source_location.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mc::support {

/**
 * Owns the text of every source file seen by a checking run and maps
 * SourceLoc values back to file names, lines, and snippets.
 *
 * Files are registered once (by name + contents) and referred to by the
 * integer id embedded in SourceLoc. The protocol corpus generator registers
 * synthesized files here exactly like on-disk ones, so diagnostics against
 * generated protocols print real line text.
 */
class SourceManager
{
  public:
    SourceManager();

    SourceManager(const SourceManager&) = delete;
    SourceManager& operator=(const SourceManager&) = delete;

    /**
     * Register a file and return its id (usable in SourceLoc::file_id).
     * The contents are copied and retained for the manager's lifetime.
     */
    std::int32_t addFile(std::string name, std::string contents);

    /**
     * Replace the contents of an already-registered file, keeping its id
     * and name. The resident checking server uses this to apply document
     * edits without renumbering files: diagnostic emission sorts by
     * file_id, so ids must stay in registration order for the server's
     * output to match a fresh batch run over the same file list.
     * SourceLocs minted against the old contents become stale — callers
     * must re-parse the file before anything consults them. Returns false
     * (and changes nothing) for an unknown id or the "<unknown>" slot.
     */
    bool replaceFile(std::int32_t file_id, std::string contents);

    /** Id of the file registered under `name`, or -1. Latest id wins. */
    std::int32_t findFile(std::string_view name) const;

    /** Number of registered files. */
    int fileCount() const { return static_cast<int>(files_.size()) - 1; }

    /** Name of the file with the given id ("<unknown>" for id 0). */
    const std::string& fileName(std::int32_t file_id) const;

    /**
     * Full contents of the file with the given id. A '\0' follows the
     * view (the string's terminator); the lexer reads it as the end.
     */
    std::string_view fileContents(std::int32_t file_id) const;

    /**
     * The text of one line (1-based, without the trailing newline).
     * Returns an empty view for out-of-range requests.
     */
    std::string_view lineText(std::int32_t file_id, std::int32_t line) const;

    /**
     * Byte offset of the start of each line (index 0 is line 1), plus
     * an end-of-file sentinel. Valid until the file is replaced.
     */
    std::span<const std::size_t> lineStarts(std::int32_t file_id) const
    {
        return file(file_id).line_offsets;
    }

    /** Number of lines in the file. */
    int lineCount(std::int32_t file_id) const;

    /** Formats a location as "file:line:col" for diagnostics. */
    std::string describe(const SourceLoc& loc) const;

  private:
    struct File
    {
        std::string name;
        std::string contents;
        /** Byte offset of the start of each line, plus a final sentinel. */
        std::vector<std::size_t> line_offsets;
    };

    const File& file(std::int32_t file_id) const;

    std::vector<File> files_;
};

} // namespace mc::support

#endif // MCHECK_SUPPORT_SOURCE_MANAGER_H
