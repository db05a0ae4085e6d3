#ifndef MCHECK_LANG_LEXER_H
#define MCHECK_LANG_LEXER_H

#include "lang/token.h"
#include "support/source_manager.h"

#include <stdexcept>
#include <string>
#include <vector>

namespace mc::lang {

/** Thrown on malformed input (unterminated literal, stray byte, ...). */
class LexError : public std::runtime_error
{
  public:
    LexError(support::SourceLoc loc, const std::string& message)
        : std::runtime_error(message), loc_(loc)
    {}

    const support::SourceLoc& loc() const { return loc_; }

  private:
    support::SourceLoc loc_;
};

/**
 * `value` narrowed to a token field that holds at most `limit`; throws
 * LexError at `loc` naming `what` when it does not fit, so a compact
 * field never wraps.
 */
std::uint32_t checkedTokenField(std::size_t value, std::size_t limit,
                                const support::SourceLoc& loc,
                                const char* what);

/**
 * Lexer for the FLASH protocol C dialect.
 *
 * Comments (// and block) are skipped. Preprocessor directives (#include,
 * #define, ...) are skipped to end-of-line and recorded so callers can see
 * which headers a translation unit pulls in; line continuations inside
 * directives are honored. Tokens resolve their text and locations
 * through source(), which views the SourceManager's buffer and line
 * table; the manager must outlive both.
 *
 * Given a SpellingTable, the lexer interns every identifier through it
 * exactly once, and the token carries the global SymbolId from then on;
 * without one (fingerprints, metal specs) identifiers carry
 * kInvalidSymbol. Files over kMaxFileBytes and tokens over
 * kMaxTokenBytes raise LexError rather than wrap a narrowed field.
 */
class Lexer
{
  public:
    /**
     * Lex the file registered as `file_id` with `sm`.
     * @param sm Source manager that owns the file contents.
     * @param file_id Id returned by SourceManager::addFile.
     * @param symbols Table to intern identifiers through (may be null).
     */
    Lexer(const support::SourceManager& sm, std::int32_t file_id,
          support::SpellingTable* symbols = nullptr);

    /** Lex the entire file into a token vector ending with an End token. */
    std::vector<Token> lexAll();

    /** Resolves the spelling and location of this file's tokens. */
    const TokenSource& source() const { return source_; }

    /** Directive lines seen so far (e.g. "include \"flash.h\""). */
    const std::vector<std::string>& directives() const { return directives_; }

  private:
    Token next();
    char peek(int ahead = 0) const;
    char advance();
    bool match(char c);
    bool atEnd() const { return pos_ >= text_.size(); }
    support::SourceLoc here() const;
    /** Where the token being lexed starts. */
    support::SourceLoc tokenLoc() const;
    void skipTrivia();
    /** The token from tok_begin_ to pos_. */
    Token makeToken(TokKind kind) const;
    Token lexNumber();
    Token lexIdentifier();
    Token lexString();
    Token lexChar();

    std::string_view text_;
    TokenSource source_;
    support::SpellingTable* symbols_;
    std::int32_t file_id_;
    std::size_t pos_ = 0;
    /** Line of pos_, and the offset where that line starts. */
    std::uint32_t line_ = 1;
    std::size_t line_start_ = 0;
    /** Offset, line and line start of the token being lexed. */
    std::size_t tok_begin_ = 0;
    std::uint32_t tok_line_ = 1;
    std::size_t tok_line_start_ = 0;
    std::vector<std::string> directives_;
};

} // namespace mc::lang

#endif // MCHECK_LANG_LEXER_H
