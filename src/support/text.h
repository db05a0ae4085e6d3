#ifndef MCHECK_SUPPORT_TEXT_H
#define MCHECK_SUPPORT_TEXT_H

#include <string>
#include <string_view>
#include <vector>

namespace mc::support {

/** Split `s` on `sep`, keeping empty fields. */
std::vector<std::string> split(std::string_view s, char sep);

/** Strip ASCII whitespace from both ends. */
std::string_view trim(std::string_view s);

/** True if `s` starts with `prefix`. */
bool startsWith(std::string_view s, std::string_view prefix);

/** Join `parts` with `sep`. */
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/**
 * Render a fixed-width table: `header` then `rows`, columns padded to the
 * widest cell, separated by two spaces, with a rule under the header.
 * All benches use this so the reproduced paper tables share a format.
 */
std::string formatTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

/**
 * Escape `s` for inclusion inside a double-quoted JSON string literal
 * (quotes, backslashes, and control characters; everything else passes
 * through byte-for-byte). The metrics, trace, and diagnostic emitters all
 * route through this.
 */
std::string jsonEscape(std::string_view s);

/**
 * jsonEscape(s) appended to `out` in place: each run of bytes that need
 * no escape is copied whole, so a long string costs one copy.
 */
void appendJsonEscaped(std::string& out, std::string_view s);

/**
 * The end of the run at [p, end) of bytes a JSON string literal holds
 * verbatim: all but '"', '\\' and the control bytes below 0x20. Scans a
 * word at a time; the escaper and the daemon's JSON reader share it.
 */
const char* jsonPlainRunEnd(const char* p, const char* end);

} // namespace mc::support

#endif // MCHECK_SUPPORT_TEXT_H
