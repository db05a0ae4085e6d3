#include "lang/fingerprint.h"

#include "lang/lexer.h"
#include "support/hash.h"

namespace mc::lang {

std::uint64_t
unitFingerprint(const support::SourceManager& sm, std::int32_t file_id)
{
    support::Fnv1a h;
    h.str(sm.fileName(file_id));
    Lexer lexer(sm, file_id);
    // Units reaching the cache already parsed once, so lexAll cannot
    // throw here; a LexError would simply propagate to the caller.
    for (const Token& tok : lexer.lexAll()) {
        // The End marker carries no diagnostic position — hashing its
        // location would make a trailing comment invalidate the unit.
        if (tok.kind == TokKind::End)
            break;
        h.u8(static_cast<std::uint8_t>(tok.kind));
        h.str(tok.text);
        h.i64(tok.loc.line);
        h.i64(tok.loc.column);
    }
    for (const std::string& directive : lexer.directives())
        h.str(directive);
    return h.value();
}

FunctionFingerprints
fingerprintFunctions(const Program& program)
{
    FunctionFingerprints out;
    for (const TranslationUnit& unit : program.units()) {
        // A unit that needed frontend recovery gets no fingerprints at
        // all: its token stream contains the garbage region, so caching
        // sibling results keyed on it would be fragile, and a lex-failed
        // unit cannot even be re-lexed here. Its functions are simply
        // re-analyzed every run until the unit is fixed.
        if (!unit.issues.empty())
            continue;
        std::uint64_t unit_fp =
            unit.fingerprint.value.load(std::memory_order_relaxed);
        if (unit_fp == 0) {
            unit_fp = unitFingerprint(program.sourceManager(), unit.file_id);
            unit.fingerprint.value.store(unit_fp, std::memory_order_relaxed);
        }
        for (const FunctionDecl* fn : unit.functionDefinitions())
            out.insert_or_assign(
                std::string(fn->name),
                support::Fnv1a().u64(unit_fp).str(fn->name).value());
    }
    return out;
}

} // namespace mc::lang
