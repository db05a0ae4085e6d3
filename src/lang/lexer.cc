#include "lang/lexer.h"

#include "support/text.h"

#include <array>
#include <cstring>
#include <string>

namespace mc::lang {

namespace {

/** Character classes of the "C" locale, as bits of one table byte. */
enum CharClass : std::uint8_t
{
    kSpace = 1,      // isspace
    kDigit = 2,      // isdigit
    kHexDigit = 4,   // isxdigit
    kIdentStart = 8, // isalpha or '_'
    kIdentBody = 16, // isalnum or '_'
};

constexpr std::array<std::uint8_t, 256> kCharClass = [] {
    std::array<std::uint8_t, 256> table{};
    for (int c = 0; c < 256; ++c) {
        std::uint8_t bits = 0;
        if (c == ' ' || (c >= '\t' && c <= '\r'))
            bits |= kSpace;
        if (c >= '0' && c <= '9')
            bits |= kDigit | kHexDigit | kIdentBody;
        if ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))
            bits |= kHexDigit;
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_')
            bits |= kIdentStart | kIdentBody;
        table[static_cast<std::size_t>(c)] = bits;
    }
    return table;
}();

bool
inClass(char c, CharClass cls)
{
    return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

} // namespace

std::uint32_t
checkedTokenField(std::size_t value, std::size_t limit,
                  const support::SourceLoc& loc, const char* what)
{
    if (value > limit)
        throw LexError(loc, std::string(what) + " of " +
                                std::to_string(value) +
                                " bytes exceeds the limit of " +
                                std::to_string(limit));
    return static_cast<std::uint32_t>(value);
}

Lexer::Lexer(const support::SourceManager& sm, std::int32_t file_id,
             support::SpellingTable* symbols)
    : text_(sm.fileContents(file_id)),
      source_(text_, file_id, sm.lineStarts(file_id)), symbols_(symbols),
      file_id_(file_id)
{
    checkedTokenField(text_.size(), kMaxFileBytes,
                      support::SourceLoc{file_id, 1, 1}, "file");
}

std::vector<Token>
Lexer::lexAll()
{
    // Protocol C averages a token per ~3 bytes and rarely exceeds one
    // per 2; reserving that up front keeps a file to one allocation.
    std::vector<Token> out;
    out.reserve(text_.size() / 2 + 1);
    do {
        out.push_back(next());
    } while (out.back().kind != TokKind::End);
    return out;
}

char
Lexer::peek(int ahead) const
{
    std::size_t p = pos_ + static_cast<std::size_t>(ahead);
    return p < text_.size() ? text_[p] : '\0';
}

char
Lexer::advance()
{
    char c = text_[pos_++];
    if (c == '\n') {
        ++line_;
        line_start_ = pos_;
    }
    return c;
}

bool
Lexer::match(char c)
{
    if (atEnd() || text_[pos_] != c)
        return false;
    advance();
    return true;
}

support::SourceLoc
Lexer::here() const
{
    return support::SourceLoc{file_id_, static_cast<std::int32_t>(line_),
                              static_cast<std::int32_t>(pos_ - line_start_ +
                                                        1)};
}

support::SourceLoc
Lexer::tokenLoc() const
{
    return support::SourceLoc{
        file_id_, static_cast<std::int32_t>(tok_line_),
        static_cast<std::int32_t>(tok_begin_ - tok_line_start_ + 1)};
}

void
Lexer::skipTrivia()
{
    while (!atEnd()) {
        char c = text_[pos_];
        if (c == '\n') {
            ++pos_;
            ++line_;
            line_start_ = pos_;
        } else if (inClass(c, kSpace)) {
            ++pos_;
        } else if (c == '/' && peek(1) == '/') {
            // A line comment holds no newline: jump to its end.
            const void* nl = std::memchr(text_.data() + pos_, '\n',
                                         text_.size() - pos_);
            pos_ = nl ? static_cast<std::size_t>(
                            static_cast<const char*>(nl) - text_.data())
                      : text_.size();
        } else if (c == '/' && peek(1) == '*') {
            support::SourceLoc start = here();
            advance();
            advance();
            while (!(peek() == '*' && peek(1) == '/')) {
                if (atEnd())
                    throw LexError(start, "unterminated block comment");
                advance();
            }
            advance();
            advance();
        } else if (c == '#' && pos_ == line_start_) {
            // Preprocessor directive: record and skip to end of line,
            // honoring backslash continuations.
            std::string directive;
            advance();
            while (!atEnd() && peek() != '\n') {
                if (peek() == '\\' && peek(1) == '\n') {
                    advance();
                    advance();
                    directive += ' ';
                    continue;
                }
                directive += advance();
            }
            directives_.push_back(std::string(support::trim(directive)));
        } else {
            return;
        }
    }
}

Token
Lexer::makeToken(TokKind kind) const
{
    std::size_t length = pos_ - tok_begin_;
    if (length > kMaxTokenBytes) [[unlikely]]
        checkedTokenField(length, kMaxTokenBytes, tokenLoc(), "token");
    Token tok;
    tok.kind = kind;
    tok.offset = static_cast<std::uint32_t>(tok_begin_);
    tok.line = tok_line_;
    tok.length = static_cast<std::uint16_t>(length);
    return tok;
}

Token
Lexer::lexNumber()
{
    bool is_float = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        advance();
        advance();
        while (inClass(peek(), kHexDigit))
            advance();
    } else {
        while (inClass(peek(), kDigit))
            advance();
        if (peek() == '.' && inClass(peek(1), kDigit)) {
            is_float = true;
            advance();
            while (inClass(peek(), kDigit))
                advance();
        }
        if (peek() == 'e' || peek() == 'E') {
            char sign = peek(1);
            char digit = (sign == '+' || sign == '-') ? peek(2) : sign;
            if (inClass(digit, kDigit)) {
                is_float = true;
                advance();
                if (peek() == '+' || peek() == '-')
                    advance();
                while (inClass(peek(), kDigit))
                    advance();
            }
        }
    }
    // The suffix belongs to the token; TokenSource strips it when the
    // parser asks for the value.
    if (is_float) {
        if (peek() == 'f' || peek() == 'F' || peek() == 'l' || peek() == 'L')
            advance();
    } else {
        while (peek() == 'u' || peek() == 'U' || peek() == 'l' ||
               peek() == 'L')
            advance();
    }
    return makeToken(is_float ? TokKind::FloatLiteral : TokKind::IntLiteral);
}

Token
Lexer::lexIdentifier()
{
    // An identifier holds no newline: scan it, then move once.
    std::size_t end = pos_ + 1;
    while (end < text_.size() && inClass(text_[end], kIdentBody))
        ++end;
    pos_ = end;
    Token tok = makeToken(TokKind::Identifier);
    std::string_view spelling = text_.substr(tok_begin_, end - tok_begin_);
    tok.kind = keywordKind(spelling);
    if (tok.kind == TokKind::Identifier)
        tok.payload = symbols_ ? symbols_->intern(spelling)
                               : support::kInvalidSymbol;
    return tok;
}

Token
Lexer::lexString()
{
    advance(); // opening quote
    while (peek() != '"') {
        if (atEnd() || peek() == '\n')
            throw LexError(tokenLoc(), "unterminated string literal");
        if (peek() == '\\')
            advance();
        advance();
    }
    advance(); // closing quote
    return makeToken(TokKind::StringLiteral);
}

Token
Lexer::lexChar()
{
    advance(); // opening quote
    if (peek() == '\\') {
        advance();
        if (atEnd())
            throw LexError(tokenLoc(), "unterminated char literal");
        advance(); // the escaped character; TokenSource decodes it
    } else {
        if (atEnd() || peek() == '\n')
            throw LexError(tokenLoc(), "unterminated char literal");
        advance();
    }
    if (!match('\''))
        throw LexError(tokenLoc(), "unterminated char literal");
    return makeToken(TokKind::CharLiteral);
}

Token
Lexer::next()
{
    skipTrivia();
    tok_begin_ = pos_;
    tok_line_ = line_;
    tok_line_start_ = line_start_;
    if (atEnd())
        return makeToken(TokKind::End);

    char c = peek();
    if (inClass(c, kDigit))
        return lexNumber();
    if (inClass(c, kIdentStart))
        return lexIdentifier();
    if (c == '"')
        return lexString();
    if (c == '\'')
        return lexChar();

    advance();
    auto tok = [&](TokKind kind) { return makeToken(kind); };
    switch (c) {
      case '(': return tok(TokKind::LParen);
      case ')': return tok(TokKind::RParen);
      case '{': return tok(TokKind::LBrace);
      case '}': return tok(TokKind::RBrace);
      case '[': return tok(TokKind::LBracket);
      case ']': return tok(TokKind::RBracket);
      case ';': return tok(TokKind::Semicolon);
      case ',': return tok(TokKind::Comma);
      case '?': return tok(TokKind::Question);
      case '~': return tok(TokKind::Tilde);
      case ':': return tok(TokKind::Colon);
      case '.':
        if (peek() == '.' && peek(1) == '.') {
            advance();
            advance();
            return tok(TokKind::Ellipsis);
        }
        return tok(TokKind::Dot);
      case '+':
        if (match('+')) return tok(TokKind::PlusPlus);
        if (match('=')) return tok(TokKind::PlusAssign);
        return tok(TokKind::Plus);
      case '-':
        if (match('-')) return tok(TokKind::MinusMinus);
        if (match('=')) return tok(TokKind::MinusAssign);
        if (match('>')) return tok(TokKind::Arrow);
        return tok(TokKind::Minus);
      case '*':
        if (match('=')) return tok(TokKind::StarAssign);
        return tok(TokKind::Star);
      case '/':
        if (match('=')) return tok(TokKind::SlashAssign);
        return tok(TokKind::Slash);
      case '%':
        if (match('=')) return tok(TokKind::PercentAssign);
        return tok(TokKind::Percent);
      case '&':
        if (match('&')) return tok(TokKind::AmpAmp);
        if (match('=')) return tok(TokKind::AmpAssign);
        return tok(TokKind::Amp);
      case '|':
        if (match('|')) return tok(TokKind::PipePipe);
        if (match('=')) return tok(TokKind::PipeAssign);
        return tok(TokKind::Pipe);
      case '^':
        if (match('=')) return tok(TokKind::CaretAssign);
        return tok(TokKind::Caret);
      case '!':
        if (match('=')) return tok(TokKind::NotEq);
        return tok(TokKind::Bang);
      case '<':
        if (match('<'))
            return match('=') ? tok(TokKind::ShlAssign) : tok(TokKind::Shl);
        if (match('=')) return tok(TokKind::Le);
        return tok(TokKind::Lt);
      case '>':
        if (match('>'))
            return match('=') ? tok(TokKind::ShrAssign) : tok(TokKind::Shr);
        if (match('=')) return tok(TokKind::Ge);
        return tok(TokKind::Gt);
      case '=':
        if (match('=')) return tok(TokKind::EqEq);
        return tok(TokKind::Assign);
      default:
        throw LexError(tokenLoc(),
                       std::string("unexpected character '") + c + "'");
    }
}

} // namespace mc::lang
