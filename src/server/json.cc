#include "server/json.h"

#include "support/text.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace mc::server {

namespace {

constexpr int kMaxDepth = 64;

void
appendUtf8(std::string& out, unsigned cp)
{
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
}

bool
parseHex4(std::string_view text, std::size_t pos, unsigned& out)
{
    if (pos + 4 > text.size())
        return false;
    out = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        char c = text[pos + i];
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<unsigned>(c - 'A' + 10);
        else
            return false;
        out = (out << 4) | digit;
    }
    return true;
}

} // namespace

/** Cursor over the input with one-token-lookahead helpers. */
struct JsonValue::Parser
{
    std::string_view text;
    std::size_t pos = 0;
    std::string error;

    bool fail(const std::string& what)
    {
        if (error.empty()) {
            std::ostringstream os;
            os << what << " at offset " << pos;
            error = os.str();
        }
        return false;
    }

    void skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool atEnd()
    {
        skipWs();
        return pos >= text.size();
    }

    bool consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    /** Parse the next value into `out`, a default-constructed value. */
    bool parseValue(JsonValue& out, int depth);
    bool parseString(std::string& out);
    bool parseNumber(JsonValue& out);
    bool parseLiteral(std::string_view word);
};

bool
JsonValue::Parser::parseString(std::string& out)
{
    skipWs();
    if (pos >= text.size() || text[pos] != '"')
        return fail("expected string");
    ++pos;
    out.clear();
    while (pos < text.size()) {
        // Everything up to the next quote, backslash or control byte is
        // copied as one run.
        const char* run = text.data() + pos;
        const char* stop =
            support::jsonPlainRunEnd(run, text.data() + text.size());
        out.append(run, static_cast<std::size_t>(stop - run));
        pos = static_cast<std::size_t>(stop - text.data());
        if (pos >= text.size())
            break;
        unsigned char c = static_cast<unsigned char>(text[pos]);
        if (c == '"') {
            ++pos;
            return true;
        }
        if (c < 0x20)
            return fail("raw control character in string");
        if (pos + 1 >= text.size())
            return fail("truncated escape");
        char esc = text[pos + 1];
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
            if (!parseHex4(text, pos, cp))
                return fail("bad \\u escape");
            pos += 4;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
                // Surrogate pair: the low half must follow immediately.
                unsigned lo = 0;
                if (pos + 2 > text.size() || text[pos] != '\\' ||
                    text[pos + 1] != 'u' ||
                    !parseHex4(text, pos + 2, lo) || lo < 0xDC00 ||
                    lo > 0xDFFF)
                    return fail("unpaired surrogate");
                pos += 6;
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                return fail("unpaired surrogate");
            }
            appendUtf8(out, cp);
            break;
          }
          default:
            return fail("unknown escape");
        }
    }
    return fail("unterminated string");
}

bool
JsonValue::Parser::parseNumber(JsonValue& out)
{
    std::size_t start = pos;
    bool integral = true;
    if (pos < text.size() && text[pos] == '-')
        ++pos;
    if (pos >= text.size() ||
        !(text[pos] >= '0' && text[pos] <= '9'))
        return fail("malformed number");
    const bool leading_zero = text[pos] == '0';
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
        ++pos;
    if (leading_zero && pos - start > (text[start] == '-' ? 2u : 1u))
        return fail("leading zero in number");
    if (pos < text.size() && text[pos] == '.') {
        integral = false;
        ++pos;
        if (pos >= text.size() ||
            !(text[pos] >= '0' && text[pos] <= '9'))
            return fail("malformed number");
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
        integral = false;
        ++pos;
        if (pos < text.size() && (text[pos] == '+' || text[pos] == '-'))
            ++pos;
        if (pos >= text.size() ||
            !(text[pos] >= '0' && text[pos] <= '9'))
            return fail("malformed number");
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
    }
    const char* first = text.data() + start;
    const char* last = text.data() + pos;
    if (integral) {
        std::int64_t v = 0;
        if (std::from_chars(first, last, v).ec == std::errc()) {
            out = JsonValue::number(v);
            return true;
        }
        // Out of int64 range: fall through to double, losing exactness.
    }
    const std::string token(first, last);
    out = JsonValue::number(std::strtod(token.c_str(), nullptr));
    return true;
}

bool
JsonValue::Parser::parseLiteral(std::string_view word)
{
    if (text.substr(pos, word.size()) != word)
        return fail("malformed literal");
    pos += word.size();
    return true;
}

bool
JsonValue::Parser::parseValue(JsonValue& out, int depth)
{
    if (depth > kMaxDepth)
        return fail("nesting too deep");
    skipWs();
    if (pos >= text.size())
        return fail("unexpected end of input");
    char c = text[pos];
    if (c == '{') {
        ++pos;
        out.kind_ = Kind::Object;
        if (consume('}'))
            return true;
        while (true) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.set(std::move(key), std::move(value));
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }
    if (c == '[') {
        ++pos;
        out.kind_ = Kind::Array;
        if (consume(']'))
            return true;
        while (true) {
            if (!parseValue(out.items_.emplace_back(), depth + 1))
                return false;
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }
    if (c == '"') {
        out.kind_ = Kind::String;
        return parseString(out.string_);
    }
    if (c == 't') {
        if (!parseLiteral("true"))
            return false;
        out = JsonValue::boolean(true);
        return true;
    }
    if (c == 'f') {
        if (!parseLiteral("false"))
            return false;
        out = JsonValue::boolean(false);
        return true;
    }
    if (c == 'n')
        return parseLiteral("null");
    return parseNumber(out);
}

namespace {

/**
 * About the size `v` dumps to, escapes aside. dump reserves it with an
 * eighth more for escapes, so a response carrying a long output fills
 * one buffer instead of growing it by doubling.
 */
std::size_t
dumpSizeHint(const JsonValue& v)
{
    // Punctuation and scalars: a few bytes per value.
    std::size_t n = 24 + v.asString().size();
    for (const JsonValue& item : v.items())
        n += dumpSizeHint(item);
    for (const auto& [key, value] : v.members())
        n += key.size() + dumpSizeHint(value);
    return n;
}

void
dumpInto(const JsonValue& v, std::string& out)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case JsonValue::Kind::Number: {
        if (v.isIntegral()) {
            char digits[24];
            const auto end =
                std::to_chars(digits, digits + sizeof digits, v.asInt()).ptr;
            out.append(digits, end);
        } else {
            std::ostringstream os;
            os.precision(15);
            os << v.asDouble();
            out += os.str();
        }
        break;
      }
      case JsonValue::Kind::String:
        out += '"';
        support::appendJsonEscaped(out, v.asString());
        out += '"';
        break;
      case JsonValue::Kind::Array: {
        out += '[';
        bool first = true;
        for (const JsonValue& item : v.items()) {
            if (!first)
                out += ", ";
            first = false;
            dumpInto(item, out);
        }
        out += ']';
        break;
      }
      case JsonValue::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto& [key, value] : v.members()) {
            if (!first)
                out += ", ";
            first = false;
            out += '"';
            support::appendJsonEscaped(out, key);
            out += "\": ";
            dumpInto(value, out);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

JsonValue
JsonValue::boolean(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::number(double d)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    // A double that happens to be integral still dumps as a plain
    // integer when it round-trips exactly (wall_ms of 0 reads "0").
    if (std::nearbyint(d) == d && std::abs(d) < 9.0e15) {
        v.int_ = static_cast<std::int64_t>(d);
        v.integral_ = true;
    }
    return v;
}

JsonValue
JsonValue::number(std::int64_t i)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = static_cast<double>(i);
    v.int_ = i;
    v.integral_ = true;
    return v;
}

JsonValue
JsonValue::number(std::uint64_t u)
{
    return number(static_cast<std::int64_t>(u));
}

JsonValue
JsonValue::string(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.string_ = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

bool
JsonValue::asBool(bool dflt) const
{
    return kind_ == Kind::Bool ? bool_ : dflt;
}

double
JsonValue::asDouble(double dflt) const
{
    return kind_ == Kind::Number ? num_ : dflt;
}

std::int64_t
JsonValue::asInt(std::int64_t dflt, bool* ok) const
{
    if (kind_ == Kind::Number && integral_) {
        if (ok)
            *ok = true;
        return int_;
    }
    if (ok)
        *ok = false;
    return dflt;
}

void
JsonValue::push(JsonValue v)
{
    items_.push_back(std::move(v));
}

const JsonValue*
JsonValue::get(const std::string& key) const
{
    for (const auto& [k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

JsonValue*
JsonValue::get(const std::string& key)
{
    return const_cast<JsonValue*>(std::as_const(*this).get(key));
}

void
JsonValue::set(std::string key, JsonValue v)
{
    for (auto& [k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(std::move(key), std::move(v));
}

std::string
JsonValue::dump() const
{
    std::string out;
    const std::size_t hint = dumpSizeHint(*this);
    out.reserve(hint + hint / 8);
    dumpInto(*this, out);
    return out;
}

bool
JsonValue::parse(std::string_view text, JsonValue& out, std::string& error)
{
    Parser p{text, 0, {}};
    JsonValue value;
    if (!p.parseValue(value, 0)) {
        error = p.error;
        return false;
    }
    if (!p.atEnd()) {
        p.fail("trailing characters after value");
        error = p.error;
        return false;
    }
    out = std::move(value);
    return true;
}

} // namespace mc::server
