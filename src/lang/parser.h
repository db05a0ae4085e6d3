#ifndef MCHECK_LANG_PARSER_H
#define MCHECK_LANG_PARSER_H

#include "lang/ast.h"
#include "lang/lexer.h"

#include <stdexcept>
#include <string>
#include <vector>

namespace mc::lang {

/** Thrown on syntax errors; carries the offending location. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(support::SourceLoc loc, const std::string& message)
        : std::runtime_error(message), loc_(loc)
    {}

    const support::SourceLoc& loc() const { return loc_; }

  private:
    support::SourceLoc loc_;
};

/**
 * Name environment shared between the translation units of a program,
 * so a typedef in one (header-like) unit is visible when parsing later
 * units, and an identifier is hashed once per program rather than once
 * per use.
 */
struct ParserSymbols
{
    /** What the lexer interns identifiers through. */
    support::SpellingTable spellings;
    /** Typedef names by symbol. */
    support::SymbolMap<TypeId> typedefs{kInvalidType};
};

/**
 * Recursive-descent parser for the FLASH protocol C dialect; binary,
 * assignment, conditional and comma operators go through one
 * precedence-climbing loop over token.h's kInfixOps.
 *
 * Supports: functions, global/local variables, typedefs, struct/union/enum
 * definitions, the full C statement set (if/else, while, do-while, for,
 * switch/case, break/continue, return, goto/labels), and the full C
 * expression grammar with standard precedence. FLASH macros appear as call
 * expressions; no preprocessing is performed.
 */
struct ParserOptions
{
    /**
     * Permit a statement to omit its trailing ';' when followed by '}' —
     * used when parsing metal patterns, which conventionally leave the
     * semicolon off (see Figure 3 of the paper).
     */
    bool allow_missing_semicolon = false;

    /**
     * Panic-mode error recovery: instead of aborting the unit at the
     * first syntax error, record a ParseIssue, emit a PoisonedDecl for
     * the malformed region, resynchronize at the next top-level
     * boundary (a `;` or a body-closing `}` at brace depth zero), and
     * keep parsing. The other declarations of the unit still parse and
     * check. Single-statement/expression entry points ignore this flag.
     */
    bool recover = false;
};

class Parser
{
  public:
    using Options = ParserOptions;

    /**
     * @param ctx Arena receiving all created nodes.
     * @param source What the tokens resolve against (Lexer::source()).
     * @param tokens Token stream from a Lexer (must end with End) that
     *   interned identifiers through `symbols->spellings`.
     * @param symbols Shared name environment (may be null only for a
     *   token stream without identifiers).
     */
    Parser(AstContext& ctx, const TokenSource& source,
           std::vector<Token> tokens, ParserSymbols* symbols = nullptr,
           Options options = Options());

    /** Parse a whole file's worth of top-level declarations. */
    TranslationUnit parseTranslationUnit(std::int32_t file_id);

    /** Parse exactly one statement (used by the pattern compiler). */
    Stmt* parseSingleStatement();

    /** Parse exactly one expression (used by the pattern compiler). */
    Expr* parseSingleExpression();

    /** Issues recovered from so far (recovery mode only). */
    const std::vector<ParseIssue>& issues() const { return issues_; }

  private:
    // Error recovery.
    PoisonedDecl* poisonAndSync(std::size_t start_pos,
                                support::SourceLoc start_loc,
                                support::SourceLoc error_loc,
                                const std::string& message);
    void synchronizeTopLevel(std::size_t start_pos);
    const Token* guessDeclaratorName(std::size_t start_pos) const;

    // Token access.
    /** The current token; advance() never moves past the End token. */
    const Token& peek() const { return tokens_[pos_]; }
    /** The token `ahead` places on, or End past the stream's end. */
    const Token& peek(int ahead) const;
    const Token& advance();
    bool check(TokKind kind) const { return peek().kind == kind; }
    bool accept(TokKind kind);
    const Token& expect(TokKind kind, const char* context);
    [[noreturn]] void fail(const std::string& message) const;
    support::SourceLoc locOf(const Token& tok) const { return src_.loc(tok); }
    /** An identifier token's stable spelling (the interner's copy). */
    std::string_view identName(const Token& tok) const;
    /** Set `decl`'s name and symbol from identifier token `tok`. */
    void nameDecl(Decl& decl, const Token& tok) const;

    // Types.
    bool atTypeStart() const;
    bool isTypeName(const Token& tok) const;
    TypeId parseTypeSpecifier();
    TypeId parseDeclaratorPointers(TypeId base);

    // Declarations.
    Decl* parseTopLevel();
    Decl* parseTypedef();
    RecordDecl* parseRecordDefinition();
    EnumDecl* parseEnumDefinition();
    Decl* parseFunctionOrGlobal();
    FunctionDecl* parseFunctionRest(TypeId ret, const Token& name,
                                    support::SourceLoc loc, bool is_static,
                                    bool is_inline);
    DeclStmt* parseLocalDecl();

    // Statements.
    Stmt* parseStatement();
    CompoundStmt* parseCompound();
    Stmt* parseIf();
    Stmt* parseWhile();
    Stmt* parseDoWhile();
    Stmt* parseFor();
    Stmt* parseSwitch();
    void expectStatementEnd();

    // Expressions.
    /** An expression of operators binding at least `min_precedence`. */
    Expr* parseExpression(Precedence min_precedence = kPrecComma);
    /** Prefix operators, casts, and primaries with their postfixes. */
    Expr* parseUnary();
    Expr* parsePostfix(Expr* base);
    bool looksLikeCast() const;

    /**
     * Copy list_scratch_[mark, end) into the arena as a child list and
     * pop it off the scratch stack. Lists nest (a call argument holds a
     * call), so each list pushes above the mark taken when it opened.
     */
    template <typename T>
    std::span<T* const> takeList(std::size_t mark);

    AstContext& ctx_;
    TokenSource src_;
    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    ParserSymbols local_symbols_;
    ParserSymbols* symbols_;
    Options options_;
    std::vector<ParseIssue> issues_;
    /** Stack of the child lists being parsed; see takeList. */
    std::vector<Node*> list_scratch_;
};

/**
 * Convenience: register `source` with `sm`, lex, and parse it.
 * Throws LexError / ParseError on malformed input.
 */
TranslationUnit parseSource(AstContext& ctx, support::SourceManager& sm,
                            std::string name, std::string source,
                            ParserSymbols* symbols = nullptr);

} // namespace mc::lang

#endif // MCHECK_LANG_PARSER_H
