#ifndef MCHECK_LANG_PROGRAM_H
#define MCHECK_LANG_PROGRAM_H

#include "lang/ast.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "support/source_manager.h"

#include <deque>
#include <string>
#include <vector>

namespace mc::lang {

/**
 * A whole program under analysis: one AST arena, one source manager, and
 * every translation unit of (for example) one FLASH protocol.
 *
 * This is the unit the checkers run over: a protocol is a Program built
 * from its handler source files plus the protocol's common code.
 */
class Program
{
  public:
    /**
     * @param recover Enable frontend fault isolation: syntax errors in
     *   one declaration poison that declaration (panic-mode recovery)
     *   instead of aborting the unit, and a lex error yields an empty
     *   poisoned unit instead of propagating. Issues are recorded on
     *   each TranslationUnit; addSource never throws for malformed
     *   input in this mode.
     */
    explicit Program(bool recover = false) : sema_(ctx_), recover_(recover) {}

    Program(const Program&) = delete;
    Program& operator=(const Program&) = delete;

    /**
     * Parse `source` as a new translation unit named `name`, run Sema
     * over it, and index its function definitions. With metrics on, the
     * whole step feeds the "lang.parse" timer, and its lexing and Sema
     * parts also feed the nested "lang.lex" and "lang.sema" timers.
     * Throws LexError / ParseError on malformed input unless the
     * program was built with recover = true.
     */
    TranslationUnit& addSource(std::string name, std::string source);

    /**
     * Re-parse the translation unit registered under `name` with new
     * contents, in place: the file keeps its id (so diagnostic emission
     * order matches a fresh program built from the same file list), the
     * unit keeps its slot, and every *other* unit's AST stays resident —
     * this is the per-unit invalidation step of the checking daemon.
     * Returns nullptr (and changes nothing) if no unit was built from a
     * file of that name; the caller falls back to a full rebuild.
     *
     * Granularity caveat, shared with the analysis cache (see
     * lang/fingerprint.h): identifiers in *unchanged* units that resolved
     * into the replaced unit keep their old declaration pointers. The
     * arena is append-only so they stay valid, but they can go
     * semantically stale if the edit changes a shared declaration's type.
     * Unchanged units replay from the fingerprint-keyed cache, which has
     * exactly the same per-file granularity, so the daemon and a warm
     * batch run agree byte-for-byte. The corpus and FLASH layout keep one
     * handler per file, making cross-file edits of shared declarations a
     * full-rebuild event in practice (the server rebuilds whenever the
     * file *set* changes).
     *
     * Replaced declarations leak into the arena by design (append-only
     * allocation is what keeps resident ASTs cheap to fork); a long-lived
     * caller should track `arenaWasteEstimate` and rebuild when it grows
     * past its comfort.
     */
    TranslationUnit* updateSource(const std::string& name,
                                  std::string source);

    /** Bytes of source text whose parsed declarations were replaced by
     *  updateSource — a proxy for arena waste a rebuild would reclaim. */
    std::size_t arenaWasteEstimate() const { return arena_waste_; }

    /** True when any unit recorded a frontend issue (recovery mode). */
    bool degraded() const;

    bool recovering() const { return recover_; }

    AstContext& ctx() { return ctx_; }
    const AstContext& ctx() const { return ctx_; }

    support::SourceManager& sourceManager() { return sm_; }
    const support::SourceManager& sourceManager() const { return sm_; }

    const std::deque<TranslationUnit>& units() const { return units_; }

    /** Function definitions across all units, in addition order. */
    const std::vector<const FunctionDecl*>& functions() const
    {
        return functions_;
    }

    /** Definition of `name`, or nullptr. */
    const FunctionDecl* findFunction(std::string_view name) const;

    /**
     * Changes whenever the names of functions(), in order, may have
     * changed: every addSource that defines a function, and every
     * updateSource whose unit now defines other names than before. A
     * caller that derives something from the names alone (the daemon's
     * files-mode spec) re-derives it only when this moves.
     */
    std::uint64_t definitionNamesVersion() const
    {
        return definition_names_version_;
    }

  private:
    AstContext ctx_;
    support::SourceManager sm_;
    ParserSymbols symbols_;
    Sema sema_;
    /**
     * Lex + parse one registered file into a unit (recover rules). With
     * `fingerprint`, also hash the lexed tokens into it
     * (tokenStreamFingerprint), so the unit's fingerprint memo costs no
     * second lex.
     */
    TranslationUnit parseUnit(std::int32_t file_id,
                              std::uint64_t* fingerprint = nullptr);

    /** Sema over a freshly parsed unit, under the "lang.sema" timer. */
    void runSema(TranslationUnit& unit);

    /** Append `unit`'s function definitions to functions_/by_name_. */
    void indexFunctions(const TranslationUnit& unit);
    /**
     * Replace the definitions of the unit in `slot`, just re-parsed, in
     * functions_/by_name_: only its own definitions move, and only the
     * names it defined before or defines now are looked up again.
     */
    void reindexUnit(std::size_t slot);

    /** Feed the lang.ast_nodes / lang.arena_bytes gauges (--metrics). */
    void publishArenaMetrics() const;

    std::deque<TranslationUnit> units_;
    std::vector<const FunctionDecl*> functions_;
    /** Per slot of units_, how many entries of functions_ it defines. */
    std::vector<std::size_t> unit_definitions_;
    std::uint64_t definition_names_version_ = 0;
    /** Each function name's latest definition, by symbol. */
    support::SymbolMap<const FunctionDecl*> by_name_{nullptr};
    bool recover_ = false;
    std::size_t arena_waste_ = 0;
};

} // namespace mc::lang

#endif // MCHECK_LANG_PROGRAM_H
