#ifndef MCHECK_LANG_TOKEN_H
#define MCHECK_LANG_TOKEN_H

#include "support/interner.h"
#include "support/source_location.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace mc::lang {

/**
 * Token kinds for the FLASH protocol C dialect.
 *
 * The dialect is the subset of C that FLASH protocol handlers are written
 * in, with preprocessor macros appearing as ordinary identifiers / call
 * expressions (the paper notes their adaptation work was confined to macro
 * headers; we adopt the post-expansion surface syntax directly).
 */
enum class TokKind : std::uint8_t
{
    End,
    Identifier,
    IntLiteral,
    FloatLiteral,
    CharLiteral,
    StringLiteral,

    // Keywords.
    KwVoid, KwChar, KwShort, KwInt, KwLong, KwUnsigned, KwSigned,
    KwFloat, KwDouble, KwStruct, KwUnion, KwEnum, KwTypedef,
    KwStatic, KwExtern, KwConst, KwVolatile, KwInline, KwRegister,
    KwIf, KwElse, KwWhile, KwFor, KwDo, KwSwitch, KwCase, KwDefault,
    KwBreak, KwContinue, KwReturn, KwGoto, KwSizeof,

    // Punctuation and operators.
    LParen, RParen, LBrace, RBrace, LBracket, RBracket,
    Semicolon, Comma, Colon, Question, Ellipsis,
    Dot, Arrow,
    Plus, Minus, Star, Slash, Percent,
    Amp, Pipe, Caret, Tilde, Bang,
    Shl, Shr,
    Lt, Gt, Le, Ge, EqEq, NotEq,
    AmpAmp, PipePipe,
    PlusPlus, MinusMinus,
    Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign,
    PercentAssign, AmpAssign, PipeAssign, CaretAssign, ShlAssign,
    ShrAssign,
};

/** Number of token kinds. */
inline constexpr std::size_t kTokKindCount =
    static_cast<std::size_t>(TokKind::ShrAssign) + 1;

/** Binary operators of the AST, built from the tokens that spell them. */
enum class BinaryOp : std::uint8_t
{
    Add, Sub, Mul, Div, Rem, Shl, Shr,
    Lt, Gt, Le, Ge, Eq, Ne,
    BitAnd, BitOr, BitXor, LogAnd, LogOr, Comma,
    Assign, AddAssign, SubAssign, MulAssign, DivAssign, RemAssign,
    AndAssign, OrAssign, XorAssign, ShlAssign, ShrAssign, // keep last
};

/**
 * Binding strength of the operators that continue an expression, from
 * loosest to tightest. kPrecNone marks a token that continues none.
 */
enum Precedence : std::uint8_t
{
    kPrecNone,
    kPrecComma,
    kPrecAssign,
    kPrecTernary,
    kPrecLogOr,
    kPrecLogAnd,
    kPrecBitOr,
    kPrecBitXor,
    kPrecBitAnd,
    kPrecEquality,
    kPrecRelational,
    kPrecShift,
    kPrecAdditive,
    kPrecMultiplicative,
};

/** How a token continues an expression as an infix operator. */
struct InfixOp
{
    Precedence precedence = kPrecNone;
    /** The node's operator; unused for '?' (a TernaryExpr). */
    BinaryOp op = BinaryOp::Add;
    /** Assignments and '?:' group right to left; the rest left to right. */
    bool right_assoc = false;
};

/** The infix operator of every token kind, kPrecNone for the rest. */
inline constexpr std::array<InfixOp, kTokKindCount> kInfixOps = [] {
    std::array<InfixOp, kTokKindCount> table{};
    auto set = [&](TokKind kind, Precedence prec, BinaryOp op,
                   bool right_assoc = false) {
        table[static_cast<std::size_t>(kind)] = {prec, op, right_assoc};
    };
    set(TokKind::Comma, kPrecComma, BinaryOp::Comma);
    set(TokKind::Assign, kPrecAssign, BinaryOp::Assign, true);
    set(TokKind::PlusAssign, kPrecAssign, BinaryOp::AddAssign, true);
    set(TokKind::MinusAssign, kPrecAssign, BinaryOp::SubAssign, true);
    set(TokKind::StarAssign, kPrecAssign, BinaryOp::MulAssign, true);
    set(TokKind::SlashAssign, kPrecAssign, BinaryOp::DivAssign, true);
    set(TokKind::PercentAssign, kPrecAssign, BinaryOp::RemAssign, true);
    set(TokKind::AmpAssign, kPrecAssign, BinaryOp::AndAssign, true);
    set(TokKind::PipeAssign, kPrecAssign, BinaryOp::OrAssign, true);
    set(TokKind::CaretAssign, kPrecAssign, BinaryOp::XorAssign, true);
    set(TokKind::ShlAssign, kPrecAssign, BinaryOp::ShlAssign, true);
    set(TokKind::ShrAssign, kPrecAssign, BinaryOp::ShrAssign, true);
    set(TokKind::Question, kPrecTernary, BinaryOp::Add, true);
    set(TokKind::PipePipe, kPrecLogOr, BinaryOp::LogOr);
    set(TokKind::AmpAmp, kPrecLogAnd, BinaryOp::LogAnd);
    set(TokKind::Pipe, kPrecBitOr, BinaryOp::BitOr);
    set(TokKind::Caret, kPrecBitXor, BinaryOp::BitXor);
    set(TokKind::Amp, kPrecBitAnd, BinaryOp::BitAnd);
    set(TokKind::EqEq, kPrecEquality, BinaryOp::Eq);
    set(TokKind::NotEq, kPrecEquality, BinaryOp::Ne);
    set(TokKind::Lt, kPrecRelational, BinaryOp::Lt);
    set(TokKind::Gt, kPrecRelational, BinaryOp::Gt);
    set(TokKind::Le, kPrecRelational, BinaryOp::Le);
    set(TokKind::Ge, kPrecRelational, BinaryOp::Ge);
    set(TokKind::Shl, kPrecShift, BinaryOp::Shl);
    set(TokKind::Shr, kPrecShift, BinaryOp::Shr);
    set(TokKind::Plus, kPrecAdditive, BinaryOp::Add);
    set(TokKind::Minus, kPrecAdditive, BinaryOp::Sub);
    set(TokKind::Star, kPrecMultiplicative, BinaryOp::Mul);
    set(TokKind::Slash, kPrecMultiplicative, BinaryOp::Div);
    set(TokKind::Percent, kPrecMultiplicative, BinaryOp::Rem);
    return table;
}();

/** Human-readable spelling of a token kind (for diagnostics). */
const char* tokKindName(TokKind kind);

/**
 * One lexed token, 16 bytes. It holds no text and no column: its
 * spelling and location resolve against the TokenSource of the file it
 * was lexed from (the column is the offset past the line's start).
 * Identifiers carry their interned global SymbolId in `payload` when
 * the lexer was given a SpellingTable; literal values are decoded only
 * when the parser asks for them.
 */
struct Token
{
    /** Byte offset of the first character in the file. */
    std::uint32_t offset = 0;
    /** 1-based line of the first character. */
    std::uint32_t line = 0;
    /** SymbolId for Identifier tokens; otherwise unused. */
    std::uint32_t payload = 0;
    /** Bytes of spelling; at most kMaxTokenBytes. */
    std::uint16_t length = 0;
    TokKind kind = TokKind::End;

    bool is(TokKind k) const { return kind == k; }

    /** The interned name of an Identifier token. */
    support::SymbolId symbol() const { return payload; }
};

static_assert(sizeof(Token) <= 16, "tokens are 16 bytes");

/** Longest token the `length` field holds. */
inline constexpr std::size_t kMaxTokenBytes = 0xFFFF;

/**
 * Largest file the lexer accepts: offsets fit the token's 32-bit field
 * and every line number and column (at most the size plus one) fits a
 * SourceLoc's int32 fields.
 */
inline constexpr std::size_t kMaxFileBytes = 0x7FFFFFFE;

/**
 * What a file's tokens resolve against: its text, its id, and the byte
 * offset of each line start (the SourceManager's table). A cheap view;
 * the SourceManager must outlive it.
 */
class TokenSource
{
  public:
    TokenSource() = default;
    TokenSource(std::string_view text, std::int32_t file_id,
                std::span<const std::size_t> line_starts)
        : text_(text), file_id_(file_id), line_starts_(line_starts)
    {}

    std::string_view
    spelling(const Token& tok) const
    {
        return {text_.data() + tok.offset, tok.length};
    }

    support::SourceLoc
    loc(const Token& tok) const
    {
        std::size_t start = line_starts_[tok.line - 1];
        return {file_id_, static_cast<std::int32_t>(tok.line),
                static_cast<std::int32_t>(tok.offset - start + 1)};
    }

    /** Value of an IntLiteral (saturating like strtoull) or CharLiteral. */
    std::int64_t intValue(const Token& tok) const;

    /** Value of a FloatLiteral, as strtod reads it. */
    double floatValue(const Token& tok) const;

  private:
    std::string_view text_;
    std::int32_t file_id_ = 0;
    std::span<const std::size_t> line_starts_;
};

/** A keyword's spelling and kind. */
struct Keyword
{
    std::string_view spelling;
    TokKind kind;
};

/** Every keyword of the dialect. */
std::span<const Keyword> keywords();

/**
 * Maps an identifier spelling to a keyword kind, or Identifier if none.
 * Lexers given a SpellingTable resolve keywords in its probe instead.
 */
TokKind keywordKind(std::string_view text);

/** True for type-introducing keywords (void, int, struct, ...). */
bool isTypeKeyword(TokKind kind);


} // namespace mc::lang

#endif // MCHECK_LANG_TOKEN_H
