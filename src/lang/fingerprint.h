#ifndef MCHECK_LANG_FINGERPRINT_H
#define MCHECK_LANG_FINGERPRINT_H

#include "lang/program.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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
 * A definition's fingerprint is its unit's fingerprint combined with
 * the function name. Hashing the whole unit rather than carving out the
 * function's own token range is a correctness choice: any edit to a file
 * invalidates every function it defines, which can never replay stale
 * results (the corpus and FLASH layout keep one handler per file, so in
 * practice this is per-function granularity anyway). Names need not be
 * unique: two files may each define a `static` helper of the same name,
 * and their unit fingerprints (which hash the file name) tell them
 * apart; a name defined again in the *same* file also hashes how many
 * earlier definitions of that name the file holds, so every definition
 * gets its own fingerprint. A uniquely named definition hashes exactly
 * (unit fingerprint, name), so its fingerprint does not depend on any
 * other function.
 */

/** Fingerprint of one registered file's token stream. Stable across runs. */
std::uint64_t unitFingerprint(const support::SourceManager& sm,
                              std::int32_t file_id);

/**
 * unitFingerprint of the file named `file_name`, from the `tokens` and
 * `directives` a lexer over `src` already produced for it: how
 * Program::updateSource fills a re-parsed unit's memo without lexing
 * the file a second time.
 */
std::uint64_t tokenStreamFingerprint(std::string_view file_name,
                                     const TokenSource& src,
                                     const std::vector<Token>& tokens,
                                     const std::vector<std::string>& directives);

/**
 * One fingerprint per function definition, in `program.functions()`
 * order; 0 for a definition in a unit that needed frontend recovery
 * (such units get no fingerprints, so their functions re-run every
 * time). Each unit's fingerprint is memoized on its TranslationUnit, so
 * a resident program re-lexes only the units updateSource replaced
 * since the last call.
 */
std::vector<std::uint64_t> fingerprintFunctions(const Program& program);

/**
 * fingerprintFunctions(program)[index] alone: a resident store re-keys
 * only the definitions a re-parse replaced, without fingerprinting the
 * rest of the program.
 */
std::uint64_t fingerprintFunction(const Program& program, std::size_t index);

} // namespace mc::lang

#endif // MCHECK_LANG_FINGERPRINT_H
