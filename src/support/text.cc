#include "support/text.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <sstream>

namespace mc::support {

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (true) {
        std::size_t pos = s.find(sep, begin);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(begin));
            return out;
        }
        out.emplace_back(s.substr(begin, pos - begin));
        begin = pos + 1;
    }
}

std::string_view
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
join(const std::vector<std::string>& parts, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
formatTable(const std::vector<std::string>& header,
            const std::vector<std::vector<std::string>>& rows)
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto& row : rows)
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](std::ostringstream& os,
                        const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            std::string cell = c < row.size() ? row[c] : "";
            os << cell << std::string(widths[c] - cell.size(), ' ');
            if (c + 1 < widths.size())
                os << "  ";
        }
        os << '\n';
    };

    std::ostringstream os;
    emit_row(os, header);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto& row : rows)
        emit_row(os, row);
    return os.str();
}

namespace {

/** True for the bytes a JSON string literal must escape. */
bool
needsEscape(unsigned char c)
{
    return c < 0x20 || c == '"' || c == '\\';
}

} // namespace

const char*
jsonPlainRunEnd(const char* p, const char* end)
{
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighs = 0x8080808080808080ull;
    // Eight bytes at a time: the has-less and has-zero word tests flag a
    // byte below 0x20, a quote or a backslash. They are exact for the
    // lowest flagged byte (a borrow only falsely flags bytes above a
    // real match), so on a little-endian word its index is the first
    // special byte; elsewhere the hit word is rescanned byte by byte.
    while (end - p >= 8) {
        std::uint64_t w;
        std::memcpy(&w, p, sizeof w);
        const std::uint64_t quote = w ^ (kOnes * '"');
        const std::uint64_t backslash = w ^ (kOnes * '\\');
        const std::uint64_t special = (((w - kOnes * 0x20) & ~w) |
                                       ((quote - kOnes) & ~quote) |
                                       ((backslash - kOnes) & ~backslash)) &
                                      kHighs;
        if (special != 0) {
            if constexpr (std::endian::native == std::endian::little)
                return p + std::countr_zero(special) / 8;
            break;
        }
        p += sizeof w;
    }
    while (p != end && !needsEscape(static_cast<unsigned char>(*p)))
        ++p;
    return p;
}

void
appendJsonEscaped(std::string& out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    const char* const end = s.data() + s.size();
    // First the escaped size, so the output grows once and is then
    // written through a pointer: escape-dense text (rendered JSON) would
    // otherwise pay a capacity check per few bytes.
    std::size_t size = s.size();
    for (const char* p = jsonPlainRunEnd(s.data(), end); p != end;
         p = jsonPlainRunEnd(p + 1, end)) {
        const unsigned char c = static_cast<unsigned char>(*p);
        const bool short_form = c == '"' || c == '\\' || c == '\b' ||
                                c == '\f' || c == '\n' || c == '\r' ||
                                c == '\t';
        size += short_form ? 1 : 5;
    }
    const std::size_t at = out.size();
    out.resize(at + size);
    char* dst = out.data() + at;
    const char* p = s.data();
    while (p != end) {
        const char* run = p;
        p = jsonPlainRunEnd(p, end);
        std::memcpy(dst, run, static_cast<std::size_t>(p - run));
        dst += p - run;
        if (p == end)
            break;
        const unsigned char c = static_cast<unsigned char>(*p++);
        *dst++ = '\\';
        switch (c) {
          case '"': *dst++ = '"'; break;
          case '\\': *dst++ = '\\'; break;
          case '\b': *dst++ = 'b'; break;
          case '\f': *dst++ = 'f'; break;
          case '\n': *dst++ = 'n'; break;
          case '\r': *dst++ = 'r'; break;
          case '\t': *dst++ = 't'; break;
          default:
            *dst++ = 'u';
            *dst++ = '0';
            *dst++ = '0';
            *dst++ = kHex[c >> 4];
            *dst++ = kHex[c & 0xf];
        }
    }
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    appendJsonEscaped(out, s);
    return out;
}

} // namespace mc::support
