#include "lang/lexer.h"

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "support/hash.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <climits>
#include <cstdlib>
#include <memory>

namespace mc::lang {
namespace {

/**
 * Tokens resolve their text and locations against the SourceManager's
 * buffer, so the manager must outlive them: keep one per test via a
 * static-free fixture object.
 */
struct LexResult
{
    std::unique_ptr<support::SourceManager> sm =
        std::make_unique<support::SourceManager>();
    TokenSource src;
    std::vector<Token> tokens;

    const Token& operator[](std::size_t i) const { return tokens[i]; }
    std::size_t size() const { return tokens.size(); }
    std::string_view text(std::size_t i) const
    {
        return src.spelling(tokens[i]);
    }
    support::SourceLoc loc(std::size_t i) const { return src.loc(tokens[i]); }
    std::int64_t intValue(std::size_t i) const
    {
        return src.intValue(tokens[i]);
    }
    double floatValue(std::size_t i) const
    {
        return src.floatValue(tokens[i]);
    }
};

LexResult
lex(const std::string& source)
{
    LexResult result;
    Lexer lexer(*result.sm, result.sm->addFile("test.c", source));
    result.tokens = lexer.lexAll();
    result.src = lexer.source();
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
    EXPECT_EQ(toks.text(1), "foo");
    EXPECT_EQ(toks[2].kind, TokKind::KwWhile);
    EXPECT_EQ(toks[3].kind, TokKind::Identifier);
    EXPECT_EQ(toks.text(3), "PI_SEND");
    EXPECT_EQ(toks[4].kind, TokKind::Identifier);
    EXPECT_EQ(toks.text(4), "_x");
}

TEST(Lexer, IntegerLiterals)
{
    auto toks = lex("0 42 0x1F 10UL 7u");
    EXPECT_EQ(toks.intValue(0), 0);
    EXPECT_EQ(toks.intValue(1), 42);
    EXPECT_EQ(toks.intValue(2), 31);
    EXPECT_EQ(toks.intValue(3), 10);
    EXPECT_EQ(toks.intValue(4), 7);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(toks[static_cast<std::size_t>(i)].kind,
                  TokKind::IntLiteral);
}

TEST(Lexer, FloatLiterals)
{
    auto toks = lex("1.5 2.0f 3e2 1.25e-1");
    ASSERT_GE(toks.size(), 4u);
    EXPECT_EQ(toks[0].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks.floatValue(0), 1.5);
    EXPECT_EQ(toks[1].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks.floatValue(1), 2.0);
    EXPECT_EQ(toks[2].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks.floatValue(2), 300.0);
    EXPECT_EQ(toks[3].kind, TokKind::FloatLiteral);
    EXPECT_DOUBLE_EQ(toks.floatValue(3), 0.125);
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
    EXPECT_EQ(toks.intValue(0), 'a');
    EXPECT_EQ(toks[1].kind, TokKind::CharLiteral);
    EXPECT_EQ(toks.intValue(1), '\n');
    EXPECT_EQ(toks[2].kind, TokKind::StringLiteral);
    EXPECT_EQ(toks.text(2), "\"hi there\"");
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
    EXPECT_EQ(toks.text(0), "a");
    EXPECT_EQ(toks.text(1), "b");
}

TEST(Lexer, LocationsTracked)
{
    auto toks = lex("a\n  b");
    EXPECT_EQ(toks.loc(0).line, 1);
    EXPECT_EQ(toks.loc(0).column, 1);
    EXPECT_EQ(toks.loc(1).line, 2);
    EXPECT_EQ(toks.loc(1).column, 3);
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
        EXPECT_EQ(toks.text(0), text);
    }
}

TEST(Lexer, IdentifiersLongerThanShortStringBuffers)
{
    const std::string name(100, 'q');
    auto toks = lex("int " + name + "_x1 = y;");
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks.text(1), name + "_x1");
    EXPECT_EQ(toks.loc(2).column, 4 + 1 + 103 + 1);
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
        EXPECT_EQ(toks.text(0), c.text);
        EXPECT_EQ(toks.intValue(0), c.value) << c.text;
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
        EXPECT_EQ(std::bit_cast<std::uint64_t>(toks.floatValue(0)),
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
    EXPECT_EQ(toks.intValue(0), 1);
    EXPECT_EQ(toks.intValue(2), 2);
}

TEST(Lexer, LineCommentAtEndOfFileAndColumnsAfterIt)
{
    auto toks = lex("a // trailing\nb // to eof");
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks.text(1), "b");
    EXPECT_EQ(toks.loc(1).line, 2);
    EXPECT_EQ(toks.loc(1).column, 1);
    EXPECT_EQ(toks.loc(2).line, 2);
    EXPECT_EQ(toks.loc(2).column, 12);
}

TEST(Lexer, IdentifiersCarryTheirGlobalSymbol)
{
    support::SourceManager sm;
    support::SpellingTable table;
    std::int32_t id = sm.addFile("t.c", "int wait_db; wait_db = other;");
    Lexer lexer(sm, id, &table);
    std::vector<Token> toks = lexer.lexAll();
    support::SymbolInterner& interner = support::SymbolInterner::global();
    ASSERT_EQ(toks[1].kind, TokKind::Identifier);
    EXPECT_EQ(toks[1].symbol(), interner.intern("wait_db"));
    EXPECT_EQ(toks[3].symbol(), toks[1].symbol());
    EXPECT_EQ(toks[5].symbol(), interner.intern("other"));
    EXPECT_EQ(interner.name(toks[5].symbol()), "other");
    EXPECT_EQ(table.size(), 2u); // keywords are never interned

    // Without a table identifiers carry no symbol.
    Lexer bare(sm, id);
    EXPECT_EQ(bare.lexAll()[1].symbol(), support::kInvalidSymbol);
}

TEST(Lexer, TokenAtTheLengthLimitLexes)
{
    const std::string name(kMaxTokenBytes, 'n');
    auto toks = lex(name + " z");
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks.text(0), name);
    EXPECT_EQ(toks.loc(1).column,
              static_cast<std::int32_t>(kMaxTokenBytes) + 2);
}

/** A token one byte past the 16-bit length field is a LexError at the
 *  token's first character, never a wrapped length. */
TEST(Lexer, TokenPastTheLengthLimitIsLexErrorWithLocation)
{
    const std::string name(kMaxTokenBytes + 1, 'n');
    const std::string text = '"' + std::string(kMaxTokenBytes - 1, 's') + '"';
    for (const std::string& token : {name, text}) {
        try {
            lex("int a;\n  " + token + ";");
            ADD_FAILURE() << "no LexError for a " << token.size()
                          << "-byte token";
        } catch (const LexError& err) {
            EXPECT_EQ(err.loc().line, 2);
            EXPECT_EQ(err.loc().column, 3);
            EXPECT_NE(std::string(err.what()).find("65535"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(Lexer, CheckedTokenFieldRejectsValuesPastTheLimit)
{
    const support::SourceLoc loc{3, 7, 9};
    EXPECT_EQ(checkedTokenField(kMaxTokenBytes, kMaxTokenBytes, loc, "token"),
              kMaxTokenBytes);
    EXPECT_EQ(checkedTokenField(kMaxFileBytes, kMaxFileBytes, loc, "file"),
              kMaxFileBytes);
    for (std::size_t limit : {kMaxTokenBytes, kMaxFileBytes}) {
        try {
            checkedTokenField(limit + 1, limit, loc, "file");
            ADD_FAILURE() << "no LexError past " << limit;
        } catch (const LexError& err) {
            EXPECT_EQ(err.loc(), loc);
        }
    }
    // The file limit is what bounds line numbers and columns: neither
    // exceeds the size plus one, which still fits SourceLoc's int32.
    static_assert(kMaxFileBytes + 1 <= INT32_MAX);
}

TEST(Lexer, ColumnsPastSixteenBitsStayExact)
{
    const std::string pad(100000, ' ');
    auto toks = lex("a\n" + pad + "b" + pad + "c");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(toks.loc(1).line, 2);
    EXPECT_EQ(toks.loc(1).column, 100001);
    EXPECT_EQ(toks.loc(2).column, 200002);
}

/** C allows blanks before a directive's '#'; the directive is trimmed. */
TEST(Lexer, DirectiveAfterLeadingWhitespace)
{
    support::SourceManager sm;
    std::int32_t id = sm.addFile("t.c", "void f(void) {\n  #if 0\n"
                                        "    int x = 1;\n\t #endif  \n}");
    Lexer lexer(sm, id);
    std::vector<Token> toks = lexer.lexAll();
    ASSERT_EQ(lexer.directives().size(), 2u);
    EXPECT_EQ(lexer.directives()[0], "if 0");
    EXPECT_EQ(lexer.directives()[1], "endif");
    // void f ( void ) { int x = 1 ; } End
    ASSERT_EQ(toks.size(), 13u);
    EXPECT_EQ(toks[6].kind, TokKind::KwInt);
    EXPECT_EQ(lexer.source().loc(toks[6]).line, 3);
    EXPECT_EQ(toks[11].kind, TokKind::RBrace);
    EXPECT_EQ(lexer.source().loc(toks[11]).line, 5);
}

/** A '#' after a token on its line starts no directive. */
TEST(Lexer, HashAfterATokenIsStillALexError)
{
    try {
        lex("int x; #define Y 1\n");
        FAIL() << "expected a LexError";
    } catch (const LexError& err) {
        EXPECT_EQ(err.loc().line, 1);
        EXPECT_EQ(err.loc().column, 8);
        EXPECT_STREQ(err.what(), "unexpected character '#'");
    }
    // A comment before the '#' is not a blank either.
    EXPECT_THROW(lex("/* c */ #define Y 1\n"), LexError);
}

/**
 * Identifiers are hashed while they are scanned: one that ends the
 * file, at every length around the hasher's 8-byte word, must resolve
 * to the same symbol as the same name mid-file, and a hex literal that
 * ends the file keeps all its digits.
 */
TEST(Lexer, TokensThatEndTheFileWithoutANewline)
{
    for (std::size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u}) {
        const std::string name(n, 'q');
        support::SourceManager sm;
        support::SpellingTable table;
        std::int32_t id = sm.addFile("t.c", name + " " + name);
        Lexer lexer(sm, id, &table);
        std::vector<Token> toks = lexer.lexAll();
        ASSERT_EQ(toks.size(), 3u) << n;
        EXPECT_EQ(lexer.source().spelling(toks[1]), name);
        EXPECT_EQ(toks[1].symbol(), toks[0].symbol());
        EXPECT_EQ(toks[1].symbol(),
                  support::SymbolInterner::global().intern(name));
    }
    auto toks = lex("x = 0x1F");
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(toks[2].kind, TokKind::IntLiteral);
    EXPECT_EQ(toks.text(2), "0x1F");
    EXPECT_EQ(toks.intValue(2), 31);
    EXPECT_EQ(lex("0x").intValue(0), 0);
}

TEST(Lexer, MixedBlankRunsKeepColumns)
{
    auto toks = lex("a \t\r\f\v b\n \t  \v c\f\n\t\td");
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_EQ(toks.loc(1).line, 1);
    EXPECT_EQ(toks.loc(1).column, 8);
    EXPECT_EQ(toks.loc(2).line, 2);
    EXPECT_EQ(toks.loc(2).column, 7);
    EXPECT_EQ(toks.loc(3).line, 3);
    EXPECT_EQ(toks.loc(3).column, 3);
    // A long run of spaces ends exactly where the next token starts.
    auto spaced = lex(std::string(37, ' ') + "z" + std::string(9, ' '));
    ASSERT_EQ(spaced.size(), 2u);
    EXPECT_EQ(spaced.loc(0).column, 38);
}

/** Keyword lookup must match whole spellings only, table or not. */
TEST(Lexer, KeywordPrefixesAndExtensionsAreIdentifiers)
{
    const std::string text = "i iff int_ _int in inT int if";
    const TokKind want[] = {TokKind::Identifier, TokKind::Identifier,
                            TokKind::Identifier, TokKind::Identifier,
                            TokKind::Identifier, TokKind::Identifier,
                            TokKind::KwInt,      TokKind::KwIf,
                            TokKind::End};
    support::SourceManager sm;
    support::SpellingTable table;
    std::int32_t id = sm.addFile("t.c", text);
    for (support::SpellingTable* symbols :
         std::array<support::SpellingTable*, 2>{&table, nullptr}) {
        Lexer lexer(sm, id, symbols);
        std::vector<Token> toks = lexer.lexAll();
        ASSERT_EQ(toks.size(), std::size(want));
        for (std::size_t i = 0; i < toks.size(); ++i)
            EXPECT_EQ(toks[i].kind, want[i]) << i;
    }
}

/** The reserved words of a SpellingTable and keywordKind() agree. */
TEST(Lexer, KeywordTableAgreesWithKeywordKind)
{
    std::string text;
    for (const Keyword& kw : keywords()) {
        EXPECT_EQ(keywordKind(kw.spelling), kw.kind) << kw.spelling;
        EXPECT_STREQ(tokKindName(kw.kind), std::string(kw.spelling).c_str());
        text += std::string(kw.spelling) + ' ';
    }
    support::SourceManager sm;
    support::SpellingTable table;
    std::int32_t id = sm.addFile("t.c", text);
    Lexer lexer(sm, id, &table);
    std::vector<Token> toks = lexer.lexAll();
    ASSERT_EQ(toks.size(), keywords().size() + 1);
    for (std::size_t i = 0; i < keywords().size(); ++i)
        EXPECT_EQ(toks[i].kind, keywords()[i].kind);
    EXPECT_EQ(table.size(), 0u);
}

/**
 * Every token of the six generated protocols — kind, text, location,
 * integer value and the bits of the float value (zero for tokens that
 * are not such literals) — plus each file's directive
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
            const TokenSource& src = lexer.source();
            h.str(file.name);
            for (const Token& tok : lexer.lexAll()) {
                // Literal values are decoded on demand; every other token
                // hashes the zeros its old value fields held.
                bool has_int = tok.kind == TokKind::IntLiteral ||
                               tok.kind == TokKind::CharLiteral;
                double float_value = tok.kind == TokKind::FloatLiteral
                                         ? src.floatValue(tok)
                                         : 0.0;
                h.u8(static_cast<std::uint8_t>(tok.kind))
                    .str(src.spelling(tok))
                    .i64(src.loc(tok).line)
                    .i64(src.loc(tok).column)
                    .i64(has_int ? src.intValue(tok) : 0)
                    .u64(std::bit_cast<std::uint64_t>(float_value));
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
