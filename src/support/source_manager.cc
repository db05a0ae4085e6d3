#include "support/source_manager.h"

#include <cassert>
#include <cstring>
#include <sstream>

namespace mc::support {

SourceManager::SourceManager()
{
    // Slot 0 is the "<unknown>" file so that SourceLoc{0,...} is safe to
    // describe.
    files_.push_back(File{"<unknown>", "", {0, 0}});
}

namespace {

/** Byte offset of each line start, plus the end-of-file sentinel. */
std::vector<std::size_t>
lineOffsets(const std::string& contents)
{
    // Protocol C averages a line per ~22 bytes: one allocation for most.
    std::vector<std::size_t> offsets;
    offsets.reserve(contents.size() / 16 + 2);
    offsets.push_back(0);
    const char* begin = contents.data();
    const char* end = begin + contents.size();
    for (const char* p = begin;
         (p = static_cast<const char*>(std::memchr(p, '\n', end - p)));
         ++p)
        offsets.push_back(static_cast<std::size_t>(p - begin) + 1);
    offsets.push_back(contents.size() + 1);
    return offsets;
}

} // namespace

std::int32_t
SourceManager::addFile(std::string name, std::string contents)
{
    File f;
    f.name = std::move(name);
    f.contents = std::move(contents);
    f.line_offsets = lineOffsets(f.contents);
    files_.push_back(std::move(f));
    return static_cast<std::int32_t>(files_.size()) - 1;
}

bool
SourceManager::replaceFile(std::int32_t file_id, std::string contents)
{
    if (file_id < 1 || file_id >= static_cast<std::int32_t>(files_.size()))
        return false;
    File& f = files_[static_cast<std::size_t>(file_id)];
    f.contents = std::move(contents);
    f.line_offsets = lineOffsets(f.contents);
    return true;
}

std::int32_t
SourceManager::findFile(std::string_view name) const
{
    for (std::size_t i = files_.size(); i > 1; --i)
        if (files_[i - 1].name == name)
            return static_cast<std::int32_t>(i - 1);
    return -1;
}

const SourceManager::File&
SourceManager::file(std::int32_t file_id) const
{
    if (file_id < 0 || file_id >= static_cast<std::int32_t>(files_.size()))
        return files_[0];
    return files_[static_cast<std::size_t>(file_id)];
}

const std::string&
SourceManager::fileName(std::int32_t file_id) const
{
    return file(file_id).name;
}

std::string_view
SourceManager::fileContents(std::int32_t file_id) const
{
    return file(file_id).contents;
}

std::string_view
SourceManager::lineText(std::int32_t file_id, std::int32_t line) const
{
    const File& f = file(file_id);
    if (line < 1 ||
        static_cast<std::size_t>(line) + 1 >= f.line_offsets.size() + 1)
        return {};
    std::size_t idx = static_cast<std::size_t>(line) - 1;
    if (idx + 1 >= f.line_offsets.size())
        return {};
    std::size_t begin = f.line_offsets[idx];
    std::size_t end = f.line_offsets[idx + 1];
    if (begin >= f.contents.size())
        return {};
    // Strip the newline (or the sentinel overrun) from the end.
    std::size_t len = end - begin;
    if (len > 0)
        --len;
    std::string_view text(f.contents);
    return text.substr(begin, len);
}

int
SourceManager::lineCount(std::int32_t file_id) const
{
    return static_cast<int>(file(file_id).line_offsets.size()) - 1;
}

std::string
SourceManager::describe(const SourceLoc& loc) const
{
    std::ostringstream os;
    os << fileName(loc.file_id) << ':' << loc.line << ':' << loc.column;
    return os.str();
}

} // namespace mc::support
