#include "lang/lexer.h"

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "support/hash.h"

#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cstdlib>
#include <memory>

namespace mc::lang {
namespace {

/**
 * Token text views into the SourceManager's buffer, so the manager must
 * outlive the tokens: keep one per test via a static-free fixture object.
 */
struct LexResult
{
    std::unique_ptr<support::SourceManager> sm =
        std::make_unique<support::SourceManager>();
    std::vector<Token> tokens;

    const Token& operator[](std::size_t i) const { return tokens[i]; }
    std::size_t size() const { return tokens.size(); }
};

LexResult
lex(const std::string& source)
{
    LexResult result;
    result.tokens = lexString(*result.sm, "test.c", source);
    return result;
}

TEST(Lexer, EmptyInputYieldsEnd)
{
    auto toks = lex("");
    ASSERT_EQ(toks.size(), 1u);
    EXPECT_EQ(toks[0].kind, TokKind::End);
}

TEST(Lexer, IdentifiersAndKeywords)
{
    auto toks = lex("int foo while PI_SEND _x");
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks[0].kind, TokKind::KwInt);
    EXPECT_EQ(toks[1].kind, TokKind::Identifier);
    EXPECT_EQ(toks[1].text, "foo");
    EXPECT_EQ(toks[2].kind, TokKind::KwWhile);
    EXPECT_EQ(toks[3].kind, TokKind::Identifier);
    EXPECT_EQ(toks[3].text, "PI_SEND");
    EXPECT_EQ(toks[4].kind, TokKind::Identifier);
    EXPECT_EQ(toks[4].text, "_x");
}

TEST(Lexer, IntegerLiterals)
{
    auto toks = lex("0 42 0x1F 10UL 7u");
    EXPECT_EQ(toks[0].int_value, 0);
    EXPECT_EQ(toks[1].int_value, 42);
    EXPECT_EQ(toks[2].int_value, 31);
    EXPECT_EQ(toks[3].int_value, 10);
    EXPECT_EQ(toks[4].int_value, 7);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(toks[static_cast<std::size_t>(i)].kind,
                  TokKind::IntLiteral);
}

TEST(Lexer, FloatLiterals)
{
    auto toks = lex("1.5 2.0f 3e2 1.25e-1");
    ASSERT_GE(toks.size(), 4u);
    EXPECT_EQ(toks[0].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks[0].float_value, 1.5);
    EXPECT_EQ(toks[1].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks[1].float_value, 2.0);
    EXPECT_EQ(toks[2].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks[2].float_value, 300.0);
    EXPECT_EQ(toks[3].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks[3].float_value, 0.125);
}

TEST(Lexer, IntegerThenMemberIsNotFloat)
{
    // `x.y` after a digit boundary: `5 .x` should not merge.
    auto toks = lex("a.b");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(toks[0].kind, TokKind::Identifier);
    EXPECT_EQ(toks[1].kind, TokKind::Dot);
    EXPECT_EQ(toks[2].kind, TokKind::Identifier);
}

TEST(Lexer, CharAndStringLiterals)
{
    auto toks = lex("'a' '\\n' \"hi there\"");
    EXPECT_EQ(toks[0].kind, TokKind::CharLiteral);
    EXPECT_EQ(toks[0].int_value, 'a');
    EXPECT_EQ(toks[1].kind, TokKind::CharLiteral);
    EXPECT_EQ(toks[1].int_value, '\n');
    EXPECT_EQ(toks[2].kind, TokKind::StringLiteral);
    EXPECT_EQ(toks[2].text, "\"hi there\"");
}

TEST(Lexer, OperatorsGreedy)
{
    auto toks = lex("<<= >>= == != <= >= && || ++ -- -> ... << >>");
    std::vector<TokKind> expect = {
        TokKind::ShlAssign, TokKind::ShrAssign, TokKind::EqEq,
        TokKind::NotEq,     TokKind::Le,        TokKind::Ge,
        TokKind::AmpAmp,    TokKind::PipePipe,  TokKind::PlusPlus,
        TokKind::MinusMinus, TokKind::Arrow,    TokKind::Ellipsis,
        TokKind::Shl,       TokKind::Shr,       TokKind::End,
    };
    ASSERT_EQ(toks.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(toks[i].kind, expect[i]) << "token " << i;
}

TEST(Lexer, CommentsSkipped)
{
    auto toks = lex("a // line comment\n/* block\ncomment */ b");
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, LocationsTracked)
{
    auto toks = lex("a\n  b");
    EXPECT_EQ(toks[0].loc.line, 1);
    EXPECT_EQ(toks[0].loc.column, 1);
    EXPECT_EQ(toks[1].loc.line, 2);
    EXPECT_EQ(toks[1].loc.column, 3);
}

TEST(Lexer, DirectivesRecordedAndSkipped)
{
    support::SourceManager sm;
    std::int32_t id = sm.addFile(
        "t.c", "#include \"flash.h\"\n#define X \\\n  5\nint a;\n");
    Lexer lexer(sm, id);
    auto toks = lexer.lexAll();
    ASSERT_EQ(lexer.directives().size(), 2u);
    EXPECT_EQ(lexer.directives()[0], "include \"flash.h\"");
    EXPECT_EQ(toks[0].kind, TokKind::KwInt);
}

TEST(Lexer, HashNotAtLineStartIsError)
{
    EXPECT_THROW(lex("int a; # oops"), LexError);
}

TEST(Lexer, UnterminatedStringThrows)
{
    EXPECT_THROW(lex("\"unterminated"), LexError);
    EXPECT_THROW(lex("\"across\nlines\""), LexError);
}

TEST(Lexer, UnterminatedCommentThrows)
{
    EXPECT_THROW(lex("/* never closed"), LexError);
}

TEST(Lexer, UnexpectedCharacterThrows)
{
    EXPECT_THROW(lex("int a = @;"), LexError);
}

TEST(Lexer, EveryKeywordSpellingLexesToItsKind)
{
    for (int k = static_cast<int>(TokKind::KwVoid);
         k <= static_cast<int>(TokKind::KwSizeof); ++k) {
        auto kind = static_cast<TokKind>(k);
        auto toks = lex(tokKindName(kind));
        ASSERT_EQ(toks.size(), 2u);
        EXPECT_EQ(toks[0].kind, kind) << tokKindName(kind);
    }
}

TEST(Lexer, KeywordNearMissesAreIdentifiers)
{
    for (const char* text :
         {"Int", "inte", "in", "i", "do_x", "sizeof_", "sizeo", "_int",
          "IF", "iff", "cas", "chars", "cha", "structs", "signe",
          "staticx", "swtch", "typedefs", "defaulT", "unsignedx",
          "volatil", "registers", "continue1", "enumx", "els", "gotoo",
          "forr", "voidd", "long_", "shor", "floa", "doubl", "unio",
          "cons", "whil", "brea", "retur", "inlin", "exter"}) {
        auto toks = lex(text);
        ASSERT_EQ(toks.size(), 2u) << text;
        EXPECT_EQ(toks[0].kind, TokKind::Identifier) << text;
        EXPECT_EQ(toks[0].text, text);
    }
}

TEST(Lexer, IdentifiersLongerThanShortStringBuffers)
{
    const std::string name(100, 'q');
    auto toks = lex("int " + name + "_x1 = y;");
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks[1].text, name + "_x1");
    EXPECT_EQ(toks[2].loc.column, 4 + 1 + 103 + 1);
}

TEST(Lexer, IntegerSpellingsPrefixesSuffixesAndOverflow)
{
    struct Case
    {
        const char* text;
        std::int64_t value;
    };
    const Case cases[] = {
        {"0", 0},
        {"0123", 123}, // decimal, as the dialect has no octal
        {"0x", 0},
        {"0X1f", 31},
        {"0xABCDEF", 0xABCDEF},
        {"0x1Fu", 31},
        {"10UL", 10},
        {"7lu", 7},
        {"42LL", 42},
        {"9223372036854775807", INT64_MAX},
        {"18446744073709551615", -1},
        {"18446744073709551616", -1}, // saturates to ULLONG_MAX
        {"99999999999999999999999", -1},
        {"0xFFFFFFFFFFFFFFFF", -1},
        {"0x10000000000000000", -1},
        {"0x8000000000000000", INT64_MIN},
    };
    for (const Case& c : cases) {
        auto toks = lex(c.text);
        ASSERT_EQ(toks.size(), 2u) << c.text;
        EXPECT_EQ(toks[0].kind, TokKind::IntLiteral) << c.text;
        EXPECT_EQ(toks[0].text, c.text);
        EXPECT_EQ(toks[0].int_value, c.value) << c.text;
    }
}

TEST(Lexer, FloatSpellingsMatchStrtodBitForBit)
{
    for (const char* text :
         {"1e10", "1E+3", "2.5e-3", "6.02e23", "0.1", "3.0F", "1.0L",
          "123456789.123456789", "4.9e-324", "1.7976931348623157e308",
          "1e400", "1e-400", "2.2250738585072011e-308"}) {
        auto toks = lex(text);
        ASSERT_EQ(toks.size(), 2u) << text;
        EXPECT_EQ(toks[0].kind, TokKind::FloatLiteral) << text;
        std::string digits(text);
        while (digits.back() == 'F' || digits.back() == 'L')
            digits.pop_back();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(toks[0].float_value),
                  std::bit_cast<std::uint64_t>(
                      std::strtod(digits.c_str(), nullptr)))
            << text;
    }
}

TEST(Lexer, ExponentWithoutDigitsIsNotAFloat)
{
    auto toks = lex("1e 2.x 3e+");
    std::vector<TokKind> expect = {
        TokKind::IntLiteral, TokKind::Identifier, TokKind::IntLiteral,
        TokKind::Dot,        TokKind::Identifier, TokKind::IntLiteral,
        TokKind::Identifier, TokKind::Plus,       TokKind::End,
    };
    ASSERT_EQ(toks.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(toks[i].kind, expect[i]) << "token " << i;
    EXPECT_EQ(toks[0].int_value, 1);
    EXPECT_EQ(toks[2].int_value, 2);
}

TEST(Lexer, LineCommentAtEndOfFileAndColumnsAfterIt)
{
    auto toks = lex("a // trailing\nb // to eof");
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks[1].text, "b");
    EXPECT_EQ(toks[1].loc.line, 2);
    EXPECT_EQ(toks[1].loc.column, 1);
    EXPECT_EQ(toks[2].loc.line, 2);
    EXPECT_EQ(toks[2].loc.column, 12);
}

/**
 * Every token of the six generated protocols — kind, text, location,
 * int_value and the bits of float_value — plus each file's directive
 * lines, folded into one digest. The value was recorded with the
 * original strtoull/strtod, hash-map-keyword lexer; it pins the token
 * stream so lexer rewrites provably keep every token identical. Change
 * it only with a deliberate change to the corpus generator.
 */
TEST(Lexer, CorpusTokenStreamDigestIsPinned)
{
    support::Fnv1a h;
    std::size_t token_count = 0;
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        corpus::GeneratedProtocol gen = corpus::generateProtocol(profile);
        for (const corpus::GeneratedFile& file : gen.files) {
            support::SourceManager sm;
            std::int32_t id = sm.addFile(file.name, file.source);
            Lexer lexer(sm, id);
            h.str(file.name);
            for (const Token& tok : lexer.lexAll()) {
                h.u8(static_cast<std::uint8_t>(tok.kind))
                    .str(tok.text)
                    .i64(tok.loc.line)
                    .i64(tok.loc.column)
                    .i64(tok.int_value)
                    .u64(std::bit_cast<std::uint64_t>(tok.float_value));
                ++token_count;
            }
            for (const std::string& directive : lexer.directives())
                h.str(directive);
        }
    }
    EXPECT_EQ(token_count, 549812u);
    EXPECT_EQ(support::hashHex(h.value()), "87b527d2fe231b40");
}

} // namespace
} // namespace mc::lang
