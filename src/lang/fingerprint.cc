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
    const TokenSource& src = lexer.source();
    // Units reaching the cache already parsed once, so lexAll cannot
    // throw here; a LexError would simply propagate to the caller.
    for (const Token& tok : lexer.lexAll()) {
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
    for (const std::string& directive : lexer.directives())
        h.str(directive);
    return h.value();
}

std::vector<std::uint64_t>
fingerprintFunctions(const Program& program)
{
    const std::vector<const FunctionDecl*>& fns = program.functions();
    std::vector<std::uint64_t> out;
    out.reserve(fns.size());
    // Program::functions() lists each unit's definitions in declaration
    // order, unit by unit, so out[i] walks in step with fns[i].
    for (const TranslationUnit& unit : program.units()) {
        // A unit that needed frontend recovery gets no fingerprints at
        // all: its token stream contains the garbage region, so caching
        // sibling results keyed on it would be fragile, and a lex-failed
        // unit cannot even be re-lexed here. Its functions are simply
        // re-analyzed every run until the unit is fixed.
        std::uint64_t unit_fp = 0;
        if (unit.issues.empty()) {
            unit_fp = unit.fingerprint.value.load(std::memory_order_relaxed);
            if (unit_fp == 0) {
                unit_fp =
                    unitFingerprint(program.sourceManager(), unit.file_id);
                unit.fingerprint.value.store(unit_fp,
                                             std::memory_order_relaxed);
            }
        }
        const std::size_t first = out.size();
        for (const Decl* d : unit.decls) {
            if (d->dkind != DeclKind::Function)
                continue;
            const auto& fn = static_cast<const FunctionDecl&>(*d);
            if (!fn.isDefinition())
                continue;
            if (unit_fp == 0) {
                out.push_back(0);
                continue;
            }
            support::Fnv1a h;
            h.u64(unit_fp).str(fn.name);
            // Earlier definitions of this name in the same file; files
            // hold a handful of functions, so the scan stays short.
            std::uint64_t repeats = 0;
            for (std::size_t i = first; i < out.size(); ++i)
                repeats += fns[i]->sym == fn.sym ? 1 : 0;
            if (repeats != 0)
                h.u64(repeats);
            out.push_back(h.value());
        }
    }
    return out;
}

} // namespace mc::lang
