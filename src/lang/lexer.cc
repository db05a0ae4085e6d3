#include "lang/lexer.h"

#include "support/text.h"

#include <array>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <cstring>

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

Lexer::Lexer(const support::SourceManager& sm, std::int32_t file_id)
    : text_(sm.fileContents(file_id)), file_id_(file_id)
{}

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
        col_ = 1;
    } else {
        ++col_;
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
    return support::SourceLoc{file_id_, line_, col_};
}

void
Lexer::skipTrivia()
{
    while (!atEnd()) {
        char c = peek();
        if (inClass(c, kSpace)) {
            advance();
        } else if (c == '/' && peek(1) == '/') {
            // A line comment holds no newline: jump to its end.
            const void* nl = std::memchr(text_.data() + pos_, '\n',
                                         text_.size() - pos_);
            std::size_t end = nl ? static_cast<std::size_t>(
                                       static_cast<const char*>(nl) -
                                       text_.data())
                                 : text_.size();
            col_ += static_cast<std::int32_t>(end - pos_);
            pos_ = end;
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
        } else if (c == '#' && col_ == 1) {
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
Lexer::makeToken(TokKind kind, std::size_t begin,
                 const support::SourceLoc& loc) const
{
    Token tok;
    tok.kind = kind;
    tok.text = text_.substr(begin, pos_ - begin);
    tok.loc = loc;
    return tok;
}

Token
Lexer::lexNumber(const support::SourceLoc& loc)
{
    std::size_t begin = pos_;
    bool is_float = false;
    bool is_hex = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        is_hex = true;
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
    std::size_t value_end = pos_;
    if (is_float) {
        if (peek() == 'f' || peek() == 'F' || peek() == 'l' || peek() == 'L')
            advance();
    } else {
        while (peek() == 'u' || peek() == 'U' || peek() == 'l' ||
               peek() == 'L')
            advance();
    }
    Token tok = makeToken(is_float ? TokKind::FloatLiteral
                                   : TokKind::IntLiteral,
                          begin, loc);
    // Values of the literal without its suffix. Integers: the same as
    // strtoull, without copying the text.
    const char* first = text_.data() + begin;
    const char* last = text_.data() + value_end;
    if (is_float) {
        tok.float_value =
            std::strtod(std::string(first, last).c_str(), nullptr);
    } else {
        if (is_hex)
            first += 2; // "0x"; no digits after it leaves the value 0
        std::uint64_t value = 0;
        if (std::from_chars(first, last, value, is_hex ? 16 : 10).ec ==
            std::errc::result_out_of_range)
            value = ULLONG_MAX; // strtoull saturates
        tok.int_value = static_cast<std::int64_t>(value);
    }
    return tok;
}

Token
Lexer::lexIdentifier(const support::SourceLoc& loc)
{
    // An identifier holds no newline: scan it, then move the column once.
    std::size_t begin = pos_;
    std::size_t end = pos_ + 1;
    while (end < text_.size() && inClass(text_[end], kIdentBody))
        ++end;
    col_ += static_cast<std::int32_t>(end - pos_);
    pos_ = end;
    Token tok = makeToken(TokKind::Identifier, begin, loc);
    tok.kind = keywordKind(tok.text);
    return tok;
}

Token
Lexer::lexString(const support::SourceLoc& loc)
{
    std::size_t begin = pos_;
    advance(); // opening quote
    while (peek() != '"') {
        if (atEnd() || peek() == '\n')
            throw LexError(loc, "unterminated string literal");
        if (peek() == '\\')
            advance();
        advance();
    }
    advance(); // closing quote
    return makeToken(TokKind::StringLiteral, begin, loc);
}

Token
Lexer::lexChar(const support::SourceLoc& loc)
{
    std::size_t begin = pos_;
    advance(); // opening quote
    std::int64_t value = 0;
    if (peek() == '\\') {
        advance();
        char esc = advance();
        switch (esc) {
          case 'n': value = '\n'; break;
          case 't': value = '\t'; break;
          case 'r': value = '\r'; break;
          case '0': value = '\0'; break;
          case '\\': value = '\\'; break;
          case '\'': value = '\''; break;
          default: value = esc; break;
        }
    } else {
        if (atEnd() || peek() == '\n')
            throw LexError(loc, "unterminated char literal");
        value = advance();
    }
    if (!match('\''))
        throw LexError(loc, "unterminated char literal");
    Token tok = makeToken(TokKind::CharLiteral, begin, loc);
    tok.int_value = value;
    return tok;
}

Token
Lexer::next()
{
    skipTrivia();
    support::SourceLoc loc = here();
    if (atEnd())
        return Token{TokKind::End, "", loc, 0, 0.0};

    char c = peek();
    if (inClass(c, kDigit))
        return lexNumber(loc);
    if (inClass(c, kIdentStart))
        return lexIdentifier(loc);
    if (c == '"')
        return lexString(loc);
    if (c == '\'')
        return lexChar(loc);

    std::size_t begin = pos_;
    advance();
    auto tok = [&](TokKind kind) { return makeToken(kind, begin, loc); };
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
        throw LexError(loc, std::string("unexpected character '") + c + "'");
    }
}

std::vector<Token>
lexString(support::SourceManager& sm, std::string name, std::string source)
{
    std::int32_t id = sm.addFile(std::move(name), std::move(source));
    Lexer lexer(sm, id);
    return lexer.lexAll();
}

} // namespace mc::lang
