#ifndef MCHECK_MATCH_PATTERN_H
#define MCHECK_MATCH_PATTERN_H

#include "lang/ast.h"
#include "lang/parser.h"
#include "support/interner.h"
#include "support/source_manager.h"

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mc::match {

/**
 * Kinds of metal wildcard ("decl") variables.
 *
 * In metal, `decl { scalar } addr, buf;` declares wildcards that match any
 * C integer expression. We support the kinds the paper's checkers use plus
 * two natural extensions (Ident, Constant) used by the embedded checkers.
 */
enum class WildcardKind : std::uint8_t
{
    /** Any non-floating expression ("any C integer expression"). */
    Scalar,
    /** Alias of Scalar, spelled `unsigned` in Figure 3. */
    Unsigned,
    /** Any expression at all. */
    AnyExpr,
    /** A bare identifier only. */
    Ident,
    /** An integer/char literal or bare identifier naming a constant. */
    Constant,
};

/** Parse "scalar" / "unsigned" / "expr" / "ident" / "constant". */
std::optional<WildcardKind> wildcardKindFromName(std::string_view name);

/** One declared wildcard variable. */
struct WildcardDecl
{
    std::string name;
    WildcardKind kind = WildcardKind::Scalar;
    /** Interned `name`; filled in by Pattern::compile. */
    support::SymbolId sym = support::kInvalidSymbol;
};

/**
 * Wildcard-variable bindings accumulated during one successful match.
 *
 * Patterns declare at most a handful of wildcards, so bindings live in a
 * flat (symbol, expr) vector: binding is a push_back, lookup a linear
 * scan of uint32 keys — no node allocations on the matching hot path.
 */
struct Bindings
{
    std::vector<std::pair<support::SymbolId, const lang::Expr*>> entries;
    /**
     * The subexpression matchInStmt found the pattern in, or nullptr
     * when the pattern matched the statement itself. A finding is
     * reported at its location, so `x = DIR_READ(f)` reports at the
     * call, not at `x`.
     */
    const lang::Expr* matched = nullptr;

    /** The expression bound to the wildcard with interned id `sym`. */
    const lang::Expr*
    lookupId(support::SymbolId sym) const
    {
        for (const auto& [s, e] : entries)
            if (s == sym)
                return e;
        return nullptr;
    }

    /** Name-based lookup (resolves `name` via the global interner). */
    const lang::Expr* lookup(const std::string& name) const;
};

/**
 * Owns the ASTs of compiled patterns.
 *
 * Pattern templates are parsed with the same dialect parser as protocol
 * code and live in their own arena; the arena must outlive every Pattern
 * compiled against it.
 */
class PatternContext
{
  public:
    lang::AstContext& ctx() { return ctx_; }
    support::SourceManager& sourceManager() { return sm_; }
    lang::ParserSymbols& symbols() { return symbols_; }

  private:
    lang::AstContext ctx_;
    support::SourceManager sm_;
    lang::ParserSymbols symbols_;
};

/**
 * A compiled metal pattern: one or more source-template alternatives
 * (joined with `|` in metal) plus the wildcard table they refer to.
 *
 * A pattern whose template is a lone expression can match both a whole
 * expression statement and any subexpression of a larger statement; a
 * statement template (e.g. a return) matches statements only.
 */
class Pattern
{
  public:
    Pattern() = default;

    /**
     * Compile a pattern from metal surface syntax: "{ ... }" with an
     * optional trailing semicolon inside the braces.
     *
     * @param pc Arena the template AST is allocated in.
     * @param text The braced template, e.g. "{ WAIT_FOR_DB_FULL(addr); }".
     * @param wildcards Wildcards visible to this pattern.
     * Throws lang::ParseError on malformed templates.
     */
    static Pattern compile(PatternContext& pc, const std::string& text,
                           std::vector<WildcardDecl> wildcards);

    /** Merge `other`'s alternatives into this pattern (the `|` operator).
     *  Wildcard tables must agree on shared names. */
    void addAlternatives(const Pattern& other);

    /** Match against a whole statement. */
    std::optional<Bindings> matchStmt(const lang::Stmt& stmt) const;

    /** Match against one expression node (no descent). */
    std::optional<Bindings> matchExpr(const lang::Expr& expr) const;

    /**
     * Match anywhere inside a statement: first the statement itself, then
     * every subexpression of its top-level expressions. This is how the
     * engine applies patterns "down every path" — a send buried in a
     * condition still triggers.
     */
    std::optional<Bindings> matchInStmt(const lang::Stmt& stmt) const;

    bool empty() const { return alternatives_.empty(); }
    std::size_t alternativeCount() const { return alternatives_.size(); }

    const std::vector<WildcardDecl>& wildcards() const { return wildcards_; }

    /**
     * Fast rejection prefilter. Each alternative has a *required
     * identifier*: the first non-wildcard identifier in its template
     * (usually the macro name), which any matching statement must
     * contain verbatim. `ids` is a statement's sorted unique ident span
     * (FlatCfg). Returns true if some alternative's required identifier
     * is in `ids` (or it has none). Never rejects a statement that would
     * match — the engine uses this to skip full unification on the vast
     * majority of statements.
     */
    bool couldMatchIds(const std::vector<support::SymbolId>& ids) const;

    /**
     * Span twin of couldMatchIds for callers holding arena slices
     * (cfg/flat_cfg.h) instead of vectors; `ids` must be sorted unique.
     */
    bool couldMatchIds(const support::SymbolId* ids,
                       std::size_t count) const;

    /** Collect every identifier occurring in `stmt` into `out`. */
    static void collectIdents(const lang::Stmt& stmt,
                              std::set<std::string>& out);

    /**
     * Append every alternative's required-identifier symbol to `out` and
     * return true — or return false (leaving `out` unspecified) when some
     * alternative has no required identifier, i.e. the pattern cannot be
     * prefiltered at all. Used to build mask-based prefilters.
     */
    bool requiredSyms(std::vector<support::SymbolId>& out) const;

  private:
    struct Alternative
    {
        /** Set when the template is a statement (return, if, ...). */
        const lang::Stmt* stmt = nullptr;
        /** Set when the template is a lone expression. */
        const lang::Expr* expr = nullptr;
        /** First non-wildcard identifier in the template, interned
         *  (kInvalidSymbol if none). */
        support::SymbolId required_sym = support::kInvalidSymbol;
    };

    void computeRequiredIdent(Alternative& alt) const;

    const WildcardDecl* findWildcard(std::string_view name) const;
    bool unifyExpr(const lang::Expr& pat, const lang::Expr& cand,
                   Bindings& bindings) const;
    bool unifyStmt(const lang::Stmt& pat, const lang::Stmt& cand,
                   Bindings& bindings) const;
    bool bindWildcard(const WildcardDecl& wd, const lang::Expr& cand,
                      Bindings& bindings) const;

    std::vector<Alternative> alternatives_;
    std::vector<WildcardDecl> wildcards_;
};

} // namespace mc::match

#endif // MCHECK_MATCH_PATTERN_H
