#ifndef MCHECK_LANG_FINGERPRINT_H
#define MCHECK_LANG_FINGERPRINT_H

#include "lang/program.h"

#include <cstdint>
#include <map>
#include <string>

namespace mc::lang {

/**
 * Stable content fingerprints for the analysis cache (frontend half of
 * the cache key: "has this function changed since the last run?").
 *
 * A translation unit's fingerprint hashes its file name, its
 * preprocessor directives, and its full token stream *with positions*
 * (kind, spelling, line, column per token). Positions are included
 * deliberately: diagnostics carry line/column numbers, so an edit that
 * only shifts code (added blank line, re-indent) must invalidate cached
 * findings even though the token values are unchanged. Conversely a
 * trailing comment adds no tokens and shifts nothing, so it correctly
 * leaves the fingerprint alone.
 *
 * A function's fingerprint is its unit's fingerprint combined with the
 * function name. Hashing the whole unit rather than carving out the
 * function's own token range is a correctness choice: any edit to a file
 * invalidates every function it defines, which can never replay stale
 * results (the corpus and FLASH layout keep one handler per file, so in
 * practice this is per-function granularity anyway).
 */

/** Fingerprint of one registered file's token stream. Stable across runs. */
std::uint64_t unitFingerprint(const support::SourceManager& sm,
                              std::int32_t file_id);

/**
 * Fingerprints for every function definition in `program`, keyed by
 * function name (definitions are unique per program). Each unit's
 * fingerprint is memoized on its TranslationUnit, so a resident program
 * re-lexes only the units updateSource replaced since the last call.
 */
using FunctionFingerprints =
    std::map<std::string, std::uint64_t, std::less<>>;

FunctionFingerprints fingerprintFunctions(const Program& program);

} // namespace mc::lang

#endif // MCHECK_LANG_FINGERPRINT_H
