#ifndef MCHECK_LANG_SEMA_H
#define MCHECK_LANG_SEMA_H

#include "lang/ast.h"

#include <map>
#include <string_view>

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

    /** Names to declarations; keys view the declarations' arena names. */
    using Scope = std::map<std::string_view, const Decl*, std::less<>>;

  private:
    AstContext& ctx_;

    void analyzeFunction(FunctionDecl& fn);

    Scope globals_;
};

} // namespace mc::lang

#endif // MCHECK_LANG_SEMA_H
