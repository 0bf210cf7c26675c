#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstring>

#include "logging.hh"

namespace lag
{

namespace
{

constexpr char kHexDigits[] = "0123456789abcdef";

void
appendEscape(std::string &out, unsigned char c)
{
    switch (c) {
    case '"':
        out.append("\\\"");
        break;
    case '\\':
        out.append("\\\\");
        break;
    case '\n':
        out.append("\\n");
        break;
    case '\r':
        out.append("\\r");
        break;
    case '\t':
        out.append("\\t");
        break;
    default: {
        const char escape[] = {'\\', 'u', '0', '0',
                               kHexDigits[c >> 4], kHexDigits[c & 0xF]};
        out.append(escape, sizeof(escape));
        break;
    }
    }
}

/** True when any byte of @p word is below 0x20, '"' or '\\' (the
 * bit tricks are exact for "any byte", not for which one). */
bool
wordNeedsEscape(std::uint64_t word)
{
    constexpr std::uint64_t ones = 0x0101010101010101u;
    constexpr std::uint64_t highs = 0x8080808080808080u;
    const std::uint64_t quote = word ^ (ones * '"');
    const std::uint64_t slash = word ^ (ones * '\\');
    return (((word - ones * 0x20) | (quote - ones) | (slash - ones)) &
            ~word & highs) != 0;
}

} // namespace

void
appendJsonString(std::string &out, std::string_view text)
{
    out.push_back('"');
    // Copy each run of bytes that need no escape in one append,
    // skipping eight plain bytes at a time.
    const char *run = text.data();
    const char *const end = run + text.size();
    const char *p = run;
    while (p != end) {
        if (end - p >= 8) {
            std::uint64_t word = 0;
            std::memcpy(&word, p, sizeof(word));
            if (!wordNeedsEscape(word)) {
                p += 8;
                continue;
            }
        }
        const auto c = static_cast<unsigned char>(*p++);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(run, p - 1);
        appendEscape(out, c);
        run = p;
    }
    out.append(run, end);
    out.push_back('"');
}

void
appendJsonNumber(std::string &out, double v)
{
    lag_assert(std::isfinite(v), "NaN/Inf cannot be emitted as JSON");
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    lag_assert(res.ec == std::errc(), "double to_chars failed");
    out.append(buf, res.ptr);
}

void
appendJsonNumber(std::string &out, std::uint64_t v)
{
    char buf[20];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendJsonNumber(std::string &out, std::int64_t v)
{
    char buf[20];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendHex16(std::string &out, std::uint64_t v)
{
    char buf[16];
    for (int i = 15; i >= 0; --i) {
        buf[i] = kHexDigits[v & 0xF];
        v >>= 4;
    }
    out.append(buf, sizeof(buf));
}

} // namespace lag
