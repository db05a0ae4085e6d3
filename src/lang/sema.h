#ifndef MCHECK_LANG_SEMA_H
#define MCHECK_LANG_SEMA_H

#include "lang/ast.h"
#include "support/interner.h"

#include <utility>
#include <vector>

namespace mc::lang {

/**
 * Light semantic analysis over one translation unit.
 *
 * Resolves identifier uses to their declarations (locals, parameters,
 * globals, enum constants, functions) and propagates types through
 * expressions where derivable. Checkers rely on this for:
 *  - the no-float rule (every expression with floating type is flagged);
 *  - the no-stack rules (address-of-local detection, local counting);
 *  - wildcard kind filters in patterns (a `scalar` wildcard refuses to
 *    bind expressions of floating type).
 *
 * Unresolvable names (externs, macros modeled as calls) are left with a
 * null decl and unknown type; analyses treat unknown conservatively.
 */
class Sema
{
  public:
    explicit Sema(AstContext& ctx) : ctx_(ctx) {}

    /** Run over all declarations of `tu`. Idempotent. */
    void run(TranslationUnit& tu);

    /**
     * Register a global scope name available to subsequently analyzed
     * units (e.g. functions from earlier units of the same protocol).
     */
    void addGlobal(const Decl* decl);

    class ScopeStack;

    /** Declarations by their name symbol. */
    using Scope = support::SymbolMap<const Decl*>;

  private:
    AstContext& ctx_;

    void analyzeFunction(FunctionDecl& fn);

    /** Globals by symbol, shadowed by locals while a body is analyzed. */
    Scope globals_;
    /** ScopeStack's undo log and scope marks, reused across functions. */
    std::vector<std::pair<support::SymbolId, const Decl*>> shadowed_;
    std::vector<std::size_t> marks_;
};

} // namespace mc::lang

#endif // MCHECK_LANG_SEMA_H
