#include "lang/lexer.h"

#include "support/text.h"

#include <array>
#include <bit>
#include <cstring>
#include <optional>
#include <string>

namespace mc::lang {

namespace {

/**
 * One table byte per character. The low nibble says what a byte
 * starts, so the lexer dispatches each byte once; the high bits are the
 * classes a byte can continue a token with ("C" locale).
 */
enum CharClass : std::uint8_t
{
    kStartOperator = 0, // an operator that may be longer, or a stray byte
    kStartSingle = 1,   // a one-byte punctuator: ( ) { } [ ] ; , ? ~ :
    kStartBlank = 2,    // space, \t, \v, \f, \r
    kStartNewline = 3,  // \n
    kStartDigit = 4,
    kStartIdent = 5,    // letter or '_'
    kStartString = 6,   // "
    kStartChar = 7,     // '
    kStartSlash = 8,    // a comment, '/' or '/='
    kStartHash = 9,     // a directive or a stray '#'
    kStartNul = 10,     // the end sentinel or a stray NUL
    kStartMask = 0x0F,

    kDigit = 0x10,     // isdigit
    kHexDigit = 0x20,  // isxdigit
    kIdentBody = 0x40, // isalnum or '_'
};

constexpr std::array<std::uint8_t, 256> kCharClass = [] {
    std::array<std::uint8_t, 256> table{};
    for (int c = 0; c < 256; ++c) {
        std::uint8_t bits = kStartOperator;
        if (c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r')
            bits = kStartBlank;
        else if (c == '\n')
            bits = kStartNewline;
        else if (c >= '0' && c <= '9')
            bits = kStartDigit | kDigit | kHexDigit | kIdentBody;
        else if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_')
            bits = kStartIdent | kIdentBody;
        else if (c == '"')
            bits = kStartString;
        else if (c == '\'')
            bits = kStartChar;
        else if (c == '/')
            bits = kStartSlash;
        else if (c == '#')
            bits = kStartHash;
        else if (c == 0)
            bits = kStartNul;
        else if (std::string_view("(){}[];,?~:").find(static_cast<char>(c)) !=
                 std::string_view::npos)
            bits = kStartSingle;
        if ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))
            bits |= kHexDigit;
        table[static_cast<std::size_t>(c)] = bits;
    }
    return table;
}();

/** The kind of each kStartSingle byte. */
constexpr std::array<TokKind, 256> kSingleKind = [] {
    std::array<TokKind, 256> table{};
    table['('] = TokKind::LParen;
    table[')'] = TokKind::RParen;
    table['{'] = TokKind::LBrace;
    table['}'] = TokKind::RBrace;
    table['['] = TokKind::LBracket;
    table[']'] = TokKind::RBracket;
    table[';'] = TokKind::Semicolon;
    table[','] = TokKind::Comma;
    table['?'] = TokKind::Question;
    table['~'] = TokKind::Tilde;
    table[':'] = TokKind::Colon;
    return table;
}();

std::uint8_t
charClass(char c)
{
    return kCharClass[static_cast<unsigned char>(c)];
}

bool
inClass(char c, CharClass cls)
{
    return (charClass(c) & cls) != 0;
}

/** Offset of the first byte at or after `pos` that is not a space. */
std::size_t
skipSpaces(std::string_view text, std::size_t pos)
{
    // Indentation is most of a protocol's spaces: test eight at a time.
    constexpr std::uint64_t kSpaces = 0x2020202020202020ULL;
    while (pos + 8 <= text.size()) {
        std::uint64_t word;
        std::memcpy(&word, text.data() + pos, 8);
        if (std::uint64_t diff = word ^ kSpaces) {
            int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
            return pos + static_cast<std::size_t>(bits / 8);
        }
        pos += 8;
    }
    while (pos < text.size() && text[pos] == ' ')
        ++pos;
    return pos;
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
    if (symbols_ && !symbols_->hasReservedWords())
        for (const Keyword& kw : keywords())
            symbols_->reserve(kw.spelling, static_cast<std::uint8_t>(kw.kind));
}

std::vector<Token>
Lexer::lexAll()
{
    // Protocol C averages a token per ~3 bytes and rarely exceeds one
    // per 2; reserving that up front keeps a file to one allocation.
    std::vector<Token> out;
    out.reserve(text_.size() / 2 + 1);
    // The SourceManager's text ends in a '\0', so scans stop on it
    // without a bounds check: it belongs to no class but kStartNul.
    // Blanks, newlines, identifiers and one-byte punctuators (most of
    // the bytes) are lexed here on a local position, with one dispatch
    // per byte; everything else goes through lexOther() on pos_.
    const char* const data = text_.data();
    std::size_t pos = pos_;
    while (true) {
        const char c = data[pos];
        const std::size_t begin = pos;
        const std::uint32_t line = line_;
        TokKind kind;
        std::uint32_t payload = 0;
        switch (charClass(c) & kStartMask) {
          case kStartBlank:
            // Mostly one space between two tokens.
            ++pos;
            if (data[pos] == ' ')
                pos = skipSpaces(text_, pos + 1);
            continue;
          case kStartNewline:
            // Mostly followed by the next line's indentation.
            ++pos;
            ++line_;
            line_start_ = pos;
            pos = skipSpaces(text_, pos);
            continue;
          case kStartIdent:
            pos = lexIdentifier(pos, payload, kind);
            break;
          case kStartSingle:
            ++pos;
            kind = kSingleKind[static_cast<unsigned char>(c)];
            break;
          default: {
            pos_ = pos;
            std::optional<TokKind> other = lexOther(c);
            pos = pos_;
            if (!other)
                continue; // a comment or a directive
            kind = *other;
            break;
          }
        }
        const std::size_t length = pos - begin;
        if (length > kMaxTokenBytes) [[unlikely]] {
            tok_begin_ = begin;
            tok_line_ = line;
            tok_line_start_ = line_start_;
            checkedTokenField(length, kMaxTokenBytes, tokenLoc(), "token");
        }
        out.push_back(Token{static_cast<std::uint32_t>(begin), line, payload,
                            static_cast<std::uint16_t>(length), kind});
        if (kind == TokKind::End)
            return out;
    }
}

std::optional<TokKind>
Lexer::lexOther(char c)
{
    tok_begin_ = pos_;
    tok_line_ = line_;
    tok_line_start_ = line_start_;
    switch (charClass(c) & kStartMask) {
      case kStartSlash:
        if (peek(1) == '/' || peek(1) == '*') {
            skipComment();
            return std::nullopt;
        }
        break;
      case kStartHash:
        if (atLineStartAfterBlanks()) {
            skipDirective();
            return std::nullopt;
        }
        break; // a stray '#': lexOperator reports it
      case kStartDigit:
        return lexNumber();
      case kStartString:
        return lexString();
      case kStartChar:
        return lexChar();
      case kStartNul:
        if (atEnd())
            return TokKind::End;
        break; // a NUL inside the text is a stray byte
      default:
        break;
    }
    return lexOperator(c);
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

bool
Lexer::atLineStartAfterBlanks() const
{
    for (std::size_t i = line_start_; i < pos_; ++i)
        if (text_[i] != ' ' && text_[i] != '\t')
            return false;
    return true;
}

void
Lexer::skipComment()
{
    if (peek(1) == '/') {
        // A line comment holds no newline: jump to its end.
        const void* nl = std::memchr(text_.data() + pos_, '\n',
                                     text_.size() - pos_);
        pos_ = nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                             text_.data())
                  : text_.size();
        return;
    }
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
}

void
Lexer::skipDirective()
{
    // Record and skip to end of line, honoring backslash continuations.
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
}

TokKind
Lexer::lexNumber()
{
    bool is_float = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        pos_ += 2;
        while (inClass(peek(), kHexDigit))
            ++pos_;
    } else {
        while (inClass(peek(), kDigit))
            ++pos_;
        if (peek() == '.' && inClass(peek(1), kDigit)) {
            is_float = true;
            ++pos_;
            while (inClass(peek(), kDigit))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            char sign = peek(1);
            char digit = (sign == '+' || sign == '-') ? peek(2) : sign;
            if (inClass(digit, kDigit)) {
                is_float = true;
                ++pos_;
                if (peek() == '+' || peek() == '-')
                    ++pos_;
                while (inClass(peek(), kDigit))
                    ++pos_;
            }
        }
    }
    // The suffix belongs to the token; TokenSource strips it when the
    // parser asks for the value.
    if (is_float) {
        if (peek() == 'f' || peek() == 'F' || peek() == 'l' || peek() == 'L')
            ++pos_;
    } else {
        while (peek() == 'u' || peek() == 'U' || peek() == 'l' ||
               peek() == 'L')
            ++pos_;
    }
    return is_float ? TokKind::FloatLiteral : TokKind::IntLiteral;
}

std::size_t
Lexer::lexIdentifier(std::size_t pos, std::uint32_t& payload, TokKind& kind)
{
    // An identifier holds no newline: scan and hash it, then move once.
    // The '\0' after the text ends the scan at end of file.
    const char* data = text_.data();
    std::size_t end = pos;
    support::SpellingHasher hasher;
    do {
        hasher.add(static_cast<unsigned char>(data[end]));
        ++end;
    } while (inClass(data[end], kIdentBody));
    std::string_view spelling(data + pos, end - pos);
    if (!symbols_) {
        kind = keywordKind(spelling);
        if (kind == TokKind::Identifier)
            payload = support::kInvalidSymbol;
        return end;
    }
    support::SpellingTable::Resolved r =
        symbols_->resolve(spelling, hasher.finish(spelling.size()));
    kind = r.reserved != 0 ? static_cast<TokKind>(r.reserved)
                           : TokKind::Identifier;
    payload = r.id == support::kInvalidSymbol ? 0 : r.id;
    return end;
}

TokKind
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
    return TokKind::StringLiteral;
}

TokKind
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
    if (peek() != '\'')
        throw LexError(tokenLoc(), "unterminated char literal");
    advance();
    return TokKind::CharLiteral;
}

TokKind
Lexer::lexOperator(char c)
{
    // No operator holds a newline, so pos_ moves without advance().
    const char c1 = peek(1);
    std::size_t length = 1;
    auto two = [&](TokKind kind) {
        length = 2;
        return kind;
    };
    auto three = [&](TokKind kind) {
        length = 3;
        return kind;
    };
    TokKind kind;
    switch (c) {
      case '.':
        kind = c1 == '.' && peek(2) == '.' ? three(TokKind::Ellipsis)
                                           : TokKind::Dot;
        break;
      case '+':
        kind = c1 == '+'   ? two(TokKind::PlusPlus)
               : c1 == '=' ? two(TokKind::PlusAssign)
                           : TokKind::Plus;
        break;
      case '-':
        kind = c1 == '-'   ? two(TokKind::MinusMinus)
               : c1 == '=' ? two(TokKind::MinusAssign)
               : c1 == '>' ? two(TokKind::Arrow)
                           : TokKind::Minus;
        break;
      case '*':
        kind = c1 == '=' ? two(TokKind::StarAssign) : TokKind::Star;
        break;
      case '/':
        kind = c1 == '=' ? two(TokKind::SlashAssign) : TokKind::Slash;
        break;
      case '%':
        kind = c1 == '=' ? two(TokKind::PercentAssign)
                         : TokKind::Percent;
        break;
      case '&':
        kind = c1 == '&'   ? two(TokKind::AmpAmp)
               : c1 == '=' ? two(TokKind::AmpAssign)
                           : TokKind::Amp;
        break;
      case '|':
        kind = c1 == '|'   ? two(TokKind::PipePipe)
               : c1 == '=' ? two(TokKind::PipeAssign)
                           : TokKind::Pipe;
        break;
      case '^':
        kind = c1 == '=' ? two(TokKind::CaretAssign) : TokKind::Caret;
        break;
      case '!':
        kind = c1 == '=' ? two(TokKind::NotEq) : TokKind::Bang;
        break;
      case '<':
        kind = c1 == '<'   ? (peek(2) == '=' ? three(TokKind::ShlAssign)
                                             : two(TokKind::Shl))
               : c1 == '=' ? two(TokKind::Le)
                           : TokKind::Lt;
        break;
      case '>':
        kind = c1 == '>'   ? (peek(2) == '=' ? three(TokKind::ShrAssign)
                                             : two(TokKind::Shr))
               : c1 == '=' ? two(TokKind::Ge)
                           : TokKind::Gt;
        break;
      case '=':
        kind = c1 == '=' ? two(TokKind::EqEq) : TokKind::Assign;
        break;
      default:
        throw LexError(tokenLoc(),
                       std::string("unexpected character '") + c + "'");
    }
    pos_ += length;
    return kind;
}

} // namespace mc::lang
