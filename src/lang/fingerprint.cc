#include "lang/fingerprint.h"

#include "lang/lexer.h"
#include "support/hash.h"

namespace mc::lang {

std::uint64_t
tokenStreamFingerprint(std::string_view file_name, const TokenSource& src,
                       const std::vector<Token>& tokens,
                       const std::vector<std::string>& directives)
{
    support::Fnv1a h;
    h.str(file_name);
    for (const Token& tok : tokens) {
        // The End marker carries no diagnostic position — hashing its
        // location would make a trailing comment invalidate the unit.
        if (tok.kind == TokKind::End)
            break;
        support::SourceLoc loc = src.loc(tok);
        h.u8(static_cast<std::uint8_t>(tok.kind));
        h.str(src.spelling(tok));
        h.i64(loc.line);
        h.i64(loc.column);
    }
    for (const std::string& directive : directives)
        h.str(directive);
    return h.value();
}

std::uint64_t
unitFingerprint(const support::SourceManager& sm, std::int32_t file_id)
{
    Lexer lexer(sm, file_id);
    // Units reaching the cache already parsed once, so lexAll cannot
    // throw here; a LexError would simply propagate to the caller.
    const std::vector<Token> tokens = lexer.lexAll();
    return tokenStreamFingerprint(sm.fileName(file_id), lexer.source(),
                                  tokens, lexer.directives());
}

namespace {

/** `unit`'s fingerprint through its memo; 0 for a recovered unit. */
std::uint64_t
memoizedUnitFingerprint(const Program& program, const TranslationUnit& unit)
{
    // A unit that needed frontend recovery gets no fingerprints at all:
    // its token stream contains the garbage region, so caching sibling
    // results keyed on it would be fragile, and a lex-failed unit cannot
    // even be re-lexed here. Its functions are simply re-analyzed every
    // run until the unit is fixed.
    if (!unit.issues.empty())
        return 0;
    std::uint64_t unit_fp =
        unit.fingerprint.value.load(std::memory_order_relaxed);
    if (unit_fp == 0) {
        unit_fp = unitFingerprint(program.sourceManager(), unit.file_id);
        unit.fingerprint.value.store(unit_fp, std::memory_order_relaxed);
    }
    return unit_fp;
}

/**
 * Fingerprint of definition `fns[i]` in a unit fingerprinted `unit_fp`
 * whose definitions start at `fns[first]`.
 */
std::uint64_t
definitionFingerprint(std::uint64_t unit_fp,
                      const std::vector<const FunctionDecl*>& fns,
                      std::size_t first, std::size_t i)
{
    if (unit_fp == 0)
        return 0;
    support::Fnv1a h;
    h.u64(unit_fp).str(fns[i]->name);
    // Earlier definitions of this name in the same file; files hold a
    // handful of functions, so the scan stays short.
    std::uint64_t repeats = 0;
    for (std::size_t j = first; j < i; ++j)
        repeats += fns[j]->sym == fns[i]->sym ? 1 : 0;
    if (repeats != 0)
        h.u64(repeats);
    return h.value();
}

} // namespace

std::vector<std::uint64_t>
fingerprintFunctions(const Program& program)
{
    const std::vector<const FunctionDecl*>& fns = program.functions();
    std::vector<std::uint64_t> out;
    out.reserve(fns.size());
    // Program::functions() lists each unit's definitions in declaration
    // order, unit by unit, so out[i] walks in step with fns[i].
    for (const TranslationUnit& unit : program.units()) {
        const std::uint64_t unit_fp = memoizedUnitFingerprint(program, unit);
        const std::size_t first = out.size();
        for (const Decl* d : unit.decls) {
            if (d->dkind != DeclKind::Function)
                continue;
            if (!static_cast<const FunctionDecl&>(*d).isDefinition())
                continue;
            out.push_back(
                definitionFingerprint(unit_fp, fns, first, out.size()));
        }
    }
    return out;
}

std::uint64_t
fingerprintFunction(const Program& program, std::size_t index)
{
    const std::vector<const FunctionDecl*>& fns = program.functions();
    const std::int32_t file_id = fns[index]->loc.file_id;
    // A unit's definitions sit next to each other in functions().
    std::size_t first = index;
    while (first > 0 && fns[first - 1]->loc.file_id == file_id)
        --first;
    for (const TranslationUnit& unit : program.units())
        if (unit.file_id == file_id)
            return definitionFingerprint(
                memoizedUnitFingerprint(program, unit), fns, first, index);
    return 0;
}

} // namespace mc::lang
