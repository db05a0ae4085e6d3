#ifndef MCHECK_LANG_LEXER_H
#define MCHECK_LANG_LEXER_H

#include "lang/token.h"
#include "support/source_manager.h"

#include <optional>
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
 * #define, ...) start at a '#' that is the first non-blank character of
 * its line (spaces and tabs may precede it); they are skipped to
 * end-of-line and recorded, trimmed, so callers can see which headers a
 * translation unit pulls in; line continuations inside directives are
 * honored. Tokens resolve their text and locations
 * through source(), which views the SourceManager's buffer and line
 * table; the manager must outlive both.
 *
 * Given a SpellingTable, the lexer hashes each identifier while it scans
 * it and resolves it with one probe of the table, which also holds the
 * keywords (the lexer reserves them on first use of the table); the
 * token carries the global SymbolId from then on. Without one
 * (fingerprints, metal specs) keywords come from keywordKind() and
 * identifiers carry kInvalidSymbol. Files over kMaxFileBytes and tokens over
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
    char peek(int ahead = 0) const;
    char advance();
    bool atEnd() const { return pos_ >= text_.size(); }
    support::SourceLoc here() const;
    /** Where the token being lexed starts. */
    support::SourceLoc tokenLoc() const;
    /** True when only spaces and tabs precede pos_ on its line. */
    bool atLineStartAfterBlanks() const;
    /** Record the directive at pos_ ('#') and skip to its line's end. */
    void skipDirective();
    /** Skip the line or block comment at pos_. */
    void skipComment();
    /**
     * Lex the comment, directive, literal or operator at pos_ (whose
     * first byte is `c`) and move past it: its kind, or nothing for a
     * comment or directive.
     */
    std::optional<TokKind> lexOther(char c);

    // Each lexes the token at pos_, moves past it, and returns its kind.
    TokKind lexNumber();
    TokKind lexString();
    TokKind lexChar();
    /** An operator of one to three bytes starting with `c`. */
    TokKind lexOperator(char c);
    /**
     * The identifier or keyword starting at `pos`: sets its kind and
     * payload (the identifier's symbol) and returns where it ends.
     */
    std::size_t lexIdentifier(std::size_t pos, std::uint32_t& payload,
                              TokKind& kind);

    std::string_view text_;
    TokenSource source_;
    support::SpellingTable* symbols_;
    std::int32_t file_id_;
    /** Where the slower paths lex; lexAll() hands its position over. */
    std::size_t pos_ = 0;
    /** Line of the current position, and the offset where it starts. */
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
