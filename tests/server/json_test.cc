/**
 * @file
 * Wire-protocol JSON tests: parse/dump round-trips, insertion-order
 * rendering (wire bytes must be deterministic), integral-vs-fractional
 * number discipline, and rejection of everything outside the strict
 * line-protocol subset (trailing garbage, bad escapes, control
 * characters, runaway nesting), with the exact error messages; and the
 * run-appending string decoder and escaper against per-byte references
 * over random strings.
 */
#include "server/json.h"

#include "support/text.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>
#include <utility>

namespace mc::server {
namespace {

JsonValue
parseOk(const std::string& text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, v, error)) << text << ": " << error;
    return v;
}

std::string
parseFail(const std::string& text)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::parse(text, v, error)) << text;
    EXPECT_FALSE(error.empty()) << text;
    return error;
}

TEST(ServerJson, ScalarsRoundTrip)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool(true));
    EXPECT_EQ(parseOk("42").asInt(), 42);
    EXPECT_EQ(parseOk("-7").asInt(), -7);
    EXPECT_DOUBLE_EQ(parseOk("2.5").asDouble(), 2.5);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
}

TEST(ServerJson, IntegralNumbersAreDistinguished)
{
    // Integrality is value-based (JSON Schema's rule): 3, 3.0, and 3e2
    // are all whole numbers; 1.5 is not.
    EXPECT_TRUE(parseOk("3").isIntegral());
    EXPECT_TRUE(parseOk("3.0").isIntegral());
    EXPECT_TRUE(parseOk("3e2").isIntegral());
    EXPECT_FALSE(parseOk("1.5").isIntegral());

    // asInt refuses fractional values rather than truncating: a
    // malformed "jobs": 1.5 must be an error, not one thread.
    bool ok = true;
    EXPECT_EQ(parseOk("1.5").asInt(0, &ok), 0);
    EXPECT_FALSE(ok);
    ok = false;
    EXPECT_EQ(parseOk("6").asInt(0, &ok), 6);
    EXPECT_TRUE(ok);
    ok = false;
    EXPECT_EQ(parseOk("3.0").asInt(0, &ok), 3);
    EXPECT_TRUE(ok);
}

TEST(ServerJson, StringEscapesRoundTrip)
{
    JsonValue v = parseOk(R"("a\"b\\c\nd\teA")");
    EXPECT_EQ(v.asString(), "a\"b\\c\nd\teA");
    // Dumping re-escapes to a parseable spelling.
    JsonValue again = parseOk(v.dump());
    EXPECT_EQ(again.asString(), v.asString());
}

TEST(ServerJson, ObjectsPreserveInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj.set("zebra", JsonValue::number(std::int64_t{1}));
    obj.set("alpha", JsonValue::number(std::int64_t{2}));
    obj.set("mid", JsonValue::string("x"));
    // Insertion order, not key order: response fields render in the
    // order the handler set them, keeping wire bytes deterministic.
    EXPECT_EQ(obj.dump(), R"({"zebra": 1, "alpha": 2, "mid": "x"})");

    // Overwriting keeps the original position.
    obj.set("zebra", JsonValue::number(std::int64_t{9}));
    EXPECT_EQ(obj.dump(), R"({"zebra": 9, "alpha": 2, "mid": "x"})");
}

TEST(ServerJson, ParsedObjectsKeepSourceOrder)
{
    JsonValue v = parseOk(R"({"b": 1, "a": [true, null], "c": {"d": 2}})");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members().size(), 3u);
    EXPECT_EQ(v.members()[0].first, "b");
    EXPECT_EQ(v.members()[1].first, "a");
    EXPECT_EQ(v.members()[2].first, "c");
    ASSERT_NE(v.get("a"), nullptr);
    EXPECT_EQ(v.get("a")->items().size(), 2u);
    EXPECT_EQ(v.get("missing"), nullptr);
    EXPECT_EQ(parseOk(v.dump()).dump(), v.dump());
}

TEST(ServerJson, WhitespaceAroundDocumentIsAccepted)
{
    EXPECT_EQ(parseOk("  {\"a\": 1}\t ").dump(), R"({"a": 1})");
}

TEST(ServerJson, TrailingGarbageIsRejected)
{
    parseFail("{} extra");
    parseFail("1 2");
    parseFail("{\"a\": 1}{\"b\": 2}");
}

TEST(ServerJson, MalformedDocumentsAreRejected)
{
    parseFail("");
    parseFail("{");
    parseFail("[1,]");
    parseFail("{\"a\" 1}");
    parseFail("{\"a\": }");
    parseFail("{'a': 1}");
    parseFail("nul");
    parseFail("+1");
    parseFail("01");
}

TEST(ServerJson, BadStringsAreRejected)
{
    parseFail("\"unterminated");
    parseFail(R"("bad \q escape")");
    parseFail(R"("short \u12")");
    parseFail("\"ctrl \x01 char\"");
}

TEST(ServerJson, RunawayNestingIsRejected)
{
    std::string deep(100, '[');
    deep += "1";
    deep.append(100, ']');
    parseFail(deep);
}

TEST(ServerJson, DumpEscapesControlCharacters)
{
    JsonValue v = JsonValue::string(std::string("a\nb\x02") + "c");
    JsonValue back = parseOk(v.dump());
    EXPECT_EQ(back.asString(), v.asString());
}

TEST(ServerJson, ErrorMessagesNameTheFaultAndOffset)
{
    const std::pair<std::string, std::string> cases[] = {
        {"", "unexpected end of input at offset 0"},
        {"{", "expected string at offset 1"},
        {"[1,]", "malformed number at offset 3"},
        {"{\"a\" 1}", "expected ':' at offset 5"},
        {"{\"a\": 1 \"b\"}", "expected ',' or '}' at offset 8"},
        {"[1 2]", "expected ',' or ']' at offset 3"},
        {"nul", "malformed literal at offset 0"},
        {"01", "leading zero in number at offset 2"},
        {"-", "malformed number at offset 1"},
        {"1.e5", "malformed number at offset 2"},
        {"{} extra", "trailing characters after value at offset 3"},
        {"\"unterminated", "unterminated string at offset 13"},
        {R"("bad \q escape")", "unknown escape at offset 7"},
        {R"("short \u12")", "bad \\u escape at offset 9"},
        {"\"ctrl \x01 char\"", "raw control character in string at offset 6"},
        {"\"tail \\", "truncated escape at offset 6"},
        {R"("\ud800")", "unpaired surrogate at offset 7"},
        {R"("\udc00")", "unpaired surrogate at offset 7"},
        {R"("\ud800A")", "unpaired surrogate at offset 7"},
        {std::string(100, '['), "nesting too deep at offset 65"},
    };
    for (const auto& [text, message] : cases)
        EXPECT_EQ(parseFail(text), message) << text;
}

/**
 * A string decoder that reads one byte at a time: the reference the
 * run-appending parser must agree with, value and error alike, on a
 * document that is one string literal.
 */
bool
referenceParseString(std::string_view text, std::string& out,
                     std::string& error)
{
    std::size_t pos = 0;
    auto fail = [&](const std::string& what) {
        error = what + " at offset " + std::to_string(pos);
        return false;
    };
    auto hex4 = [&](std::size_t at, unsigned& cp) {
        if (at + 4 > text.size())
            return false;
        cp = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            const char c = text[at + i];
            unsigned digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                digit = static_cast<unsigned>(c - 'A' + 10);
            else
                return false;
            cp = (cp << 4) | digit;
        }
        return true;
    };
    auto utf8 = [&](unsigned cp) {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    };
    if (text.empty() || text[0] != '"')
        return fail("expected string");
    ++pos;
    out.clear();
    while (pos < text.size()) {
        const unsigned char c = static_cast<unsigned char>(text[pos]);
        if (c == '"') {
            ++pos;
            if (pos != text.size())
                return fail("trailing characters after value");
            return true;
        }
        if (c < 0x20)
            return fail("raw control character in string");
        if (c != '\\') {
            out.push_back(static_cast<char>(c));
            ++pos;
            continue;
        }
        if (pos + 1 >= text.size())
            return fail("truncated escape");
        const char esc = text[pos + 1];
        pos += 2;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned cp = 0;
            if (!hex4(pos, cp))
                return fail("bad \\u escape");
            pos += 4;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
                unsigned lo = 0;
                if (pos + 2 > text.size() || text[pos] != '\\' ||
                    text[pos + 1] != 'u' || !hex4(pos + 2, lo) ||
                    lo < 0xDC00 || lo > 0xDFFF)
                    return fail("unpaired surrogate");
                pos += 6;
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                return fail("unpaired surrogate");
            }
            utf8(cp);
            break;
          }
          default:
            return fail("unknown escape");
        }
    }
    return fail("unterminated string");
}

/** A byte-at-a-time escaper: jsonEscape's reference. */
std::string
referenceEscape(std::string_view s)
{
    std::string out;
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                static const char* hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
hex4(unsigned v)
{
    static const char* digits = "0123456789abcdefABCDEF";
    std::string out;
    for (int shift = 12; shift >= 0; shift -= 4) {
        const unsigned d = (v >> shift) & 0xf;
        // Upper- and lower-case hex digits both decode.
        out += d >= 10 && (v & 1) ? digits[d + 6] : digits[d];
    }
    return out;
}

/**
 * One piece of a string literal's body: a run of raw bytes (any byte
 * the literal may hold verbatim, UTF-8 or not), a multi-byte UTF-8
 * character, a short escape, a \u escape or surrogate pair — or, now
 * and then, something the parser must reject.
 */
std::string
literalPiece(std::mt19937& rng)
{
    auto pick = [&rng](unsigned n) { return static_cast<unsigned>(rng() % n); };
    switch (pick(100)) {
      case 0: // a raw control byte
        return std::string(1, static_cast<char>(pick(0x20)));
      case 1: // an escape the grammar lacks
        return std::string("\\") + "axq0'"[pick(5)];
      case 2: // a lone surrogate half
        return "\\u" + hex4(0xD800 + pick(0x800));
      case 3: // a \u with too few hex digits
        return "\\u" + hex4(pick(0x10000)).substr(0, pick(4)) + "z";
      default:
        break;
    }
    switch (pick(6)) {
      case 0: { // raw bytes: everything but '"', '\\' and controls
        std::string run;
        for (unsigned n = 1 + pick(12); n > 0; --n) {
            unsigned char c;
            do
                c = static_cast<unsigned char>(pick(256));
            while (c < 0x20 || c == '"' || c == '\\');
            run += static_cast<char>(c);
        }
        return run;
      }
      case 1: { // a well-formed UTF-8 character
        const char* samples[] = {"\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80",
                                 "\xd0\x96", "\xe4\xb8\xad"};
        return samples[pick(5)];
      }
      case 2:
        return std::string("\\") + "\"\\/bfnrt"[pick(8)];
      case 3: { // \u outside the surrogate range, controls included
        unsigned cp;
        do
            cp = pick(0x10000);
        while (cp >= 0xD800 && cp <= 0xDFFF);
        return "\\u" + hex4(pick(2) ? cp : pick(0x20));
      }
      case 4: // a surrogate pair
        return "\\u" + hex4(0xD800 + pick(0x400)) + "\\u" +
               hex4(0xDC00 + pick(0x400));
      default:
        return "x";
    }
}

TEST(ServerJson, StringDecoderMatchesThePerByteReference)
{
    std::mt19937 rng(2026);
    int accepted = 0;
    int rejected = 0;
    for (int round = 0; round < 20000; ++round) {
        std::string text = "\"";
        for (unsigned n = rng() % 10; n > 0; --n)
            text += literalPiece(rng);
        // Mostly closed; sometimes cut off, inside an escape or not.
        if (rng() % 20 != 0)
            text += '"';
        std::string want;
        std::string want_error;
        const bool ok = referenceParseString(text, want, want_error);
        JsonValue got;
        std::string error;
        ASSERT_EQ(JsonValue::parse(text, got, error), ok) << text;
        if (ok) {
            ASSERT_TRUE(got.isString());
            EXPECT_EQ(got.asString(), want) << text;
            ++accepted;
        } else {
            EXPECT_EQ(error, want_error) << text;
            ++rejected;
        }
    }
    // Neither side of the comparison is vacuous.
    EXPECT_GT(accepted, 5000);
    EXPECT_GT(rejected, 1000);
}

TEST(ServerJson, EscaperMatchesThePerByteReference)
{
    std::mt19937 rng(7);
    for (int round = 0; round < 20000; ++round) {
        // Every byte value; escapes cluster at run starts and ends.
        std::string s;
        const unsigned length = rng() % 40;
        for (unsigned i = 0; i < length; ++i)
            s += static_cast<char>(rng() % 4 == 0 ? "\"\\\n\x01\x1f"[rng() % 5]
                                                  : rng() % 256);
        const std::string want = referenceEscape(s);
        EXPECT_EQ(support::jsonEscape(s), want);
        std::string appended = "prefix";
        support::appendJsonEscaped(appended, s);
        EXPECT_EQ(appended, "prefix" + want);
        // What the escaper writes the decoder reads back, byte for byte.
        JsonValue back;
        std::string error;
        ASSERT_TRUE(JsonValue::parse("\"" + want + "\"", back, error))
            << error;
        EXPECT_EQ(back.asString(), s);
    }
    std::string all;
    for (int c = 0; c < 256; ++c)
        all += static_cast<char>(c);
    EXPECT_EQ(support::jsonEscape(all), referenceEscape(all));
}

/** A random value: nested arrays and objects over every scalar kind. */
JsonValue
randomValue(std::mt19937& rng, int depth)
{
    switch (rng() % (depth < 4 ? 7 : 5)) {
      case 0:
        return JsonValue();
      case 1:
        return JsonValue::boolean(rng() % 2 == 0);
      case 2:
        return JsonValue::number(static_cast<std::int64_t>(rng()) -
                                 (std::int64_t{1} << 31));
      case 3:
        return JsonValue::number(static_cast<double>(rng() % 4096) / 8.0 +
                                 0.125);
      case 4: {
        std::string s;
        for (unsigned n = rng() % 12; n > 0; --n)
            s += static_cast<char>(rng() % 256);
        return JsonValue::string(s);
      }
      case 5: {
        JsonValue array = JsonValue::array();
        for (unsigned n = rng() % 5; n > 0; --n)
            array.push(randomValue(rng, depth + 1));
        return array;
      }
      default: {
        JsonValue object = JsonValue::object();
        for (unsigned n = rng() % 5; n > 0; --n)
            object.set("k" + std::to_string(rng() % 8) + "\n\"",
                       randomValue(rng, depth + 1));
        return object;
      }
    }
}

TEST(ServerJson, DumpParseRoundTrips)
{
    std::mt19937 rng(99);
    for (int round = 0; round < 2000; ++round) {
        const JsonValue value = randomValue(rng, 0);
        const std::string text = value.dump();
        JsonValue back;
        std::string error;
        ASSERT_TRUE(JsonValue::parse(text, back, error)) << text << error;
        EXPECT_EQ(back.dump(), text);
    }
}

} // namespace
} // namespace mc::server
