#ifndef MCHECK_LANG_PARSER_H
#define MCHECK_LANG_PARSER_H

#include "lang/ast.h"
#include "lang/lexer.h"

#include <map>
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
 * Typedef environment shared between the translation units of a program,
 * so a typedef in one (header-like) unit is visible when parsing later
 * units.
 */
struct ParserSymbols
{
    /** Transparent, so a token's text probes it without a copy. */
    std::map<std::string, TypeId, std::less<>> typedefs;
};

/**
 * Recursive-descent parser for the FLASH protocol C dialect.
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
     * @param tokens Token stream from a Lexer (must end with End).
     * @param symbols Shared typedef environment (may be null).
     */
    Parser(AstContext& ctx, std::vector<Token> tokens,
           ParserSymbols* symbols = nullptr, Options options = Options());

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
    std::string_view guessDeclaratorName(std::size_t start_pos) const;

    // Token access.
    const Token& peek(int ahead = 0) const;
    const Token& advance();
    bool check(TokKind kind) const { return peek().kind == kind; }
    bool accept(TokKind kind);
    const Token& expect(TokKind kind, const char* context);
    [[noreturn]] void fail(const std::string& message) const;

    // Types.
    bool atTypeStart() const;
    bool isTypeName(std::string_view name) const;
    TypeId parseTypeSpecifier();
    TypeId parseDeclaratorPointers(TypeId base);

    // Declarations.
    Decl* parseTopLevel();
    Decl* parseTypedef();
    RecordDecl* parseRecordDefinition();
    EnumDecl* parseEnumDefinition();
    Decl* parseFunctionOrGlobal();
    FunctionDecl* parseFunctionRest(TypeId ret, std::string_view name,
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
    Expr* parseExpression();      // includes comma operator
    Expr* parseAssignment();
    Expr* parseTernary();
    Expr* parseBinary(int min_precedence);
    Expr* parseUnary();
    Expr* parsePostfix(Expr* base);
    Expr* parsePrimary();
    bool looksLikeCast() const;

    /**
     * Copy list_scratch_[mark, end) into the arena as a child list and
     * pop it off the scratch stack. Lists nest (a call argument holds a
     * call), so each list pushes above the mark taken when it opened.
     */
    template <typename T>
    std::span<T* const> takeList(std::size_t mark);

    AstContext& ctx_;
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
