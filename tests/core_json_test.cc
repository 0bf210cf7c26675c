/**
 * @file
 * The appending JSON writers (util/json.hh) and the /v1/patterns
 * emitter built on them: the escaper's bytes, the number and key
 * forms, and top-k selection against the full stable sort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "core/figure_json.hh"
#include "obs/json_check.hh"
#include "util/json.hh"

namespace lag::core
{
namespace
{

std::string
escaped(std::string_view text)
{
    std::string out;
    appendJsonString(out, text);
    return out;
}

template <typename T>
std::string
number(T value)
{
    std::string out;
    appendJsonNumber(out, value);
    return out;
}

TEST(CoreJson, EscaperShortEscapes)
{
    EXPECT_EQ(escaped(""), "\"\"");
    EXPECT_EQ(escaped("\""), "\"\\\"\"");
    EXPECT_EQ(escaped("\\"), "\"\\\\\"");
    EXPECT_EQ(escaped("\n"), "\"\\n\"");
    EXPECT_EQ(escaped("\r"), "\"\\r\"");
    EXPECT_EQ(escaped("\t"), "\"\\t\"");
}

TEST(CoreJson, EscaperControlBytesAndPassThrough)
{
    EXPECT_EQ(escaped(std::string_view("\x00", 1)), "\"\\u0000\"");
    EXPECT_EQ(escaped("\x01"), "\"\\u0001\"");
    EXPECT_EQ(escaped("\x1f"), "\"\\u001f\"");
    // DEL is not a JSON control character.
    EXPECT_EQ(escaped("\x7f"), "\"\x7f\"");
    // UTF-8 multi-byte sequences pass through byte for byte.
    EXPECT_EQ(escaped("caf\xc3\xa9 \xe2\x82\xac"),
              "\"caf\xc3\xa9 \xe2\x82\xac\"");
}

TEST(CoreJson, EscaperKeepsRunsAroundEscapes)
{
    EXPECT_EQ(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(escaped("Foo.bar()\tBaz"), "\"Foo.bar()\\tBaz\"");
    // The writer appends: what the string held stays in front.
    std::string out = "x:";
    appendJsonString(out, "y");
    EXPECT_EQ(out, "x:\"y\"");
}

/** Byte-at-a-time reference for the escaper's word-at-a-time scan. */
std::string
escapedByteByByte(std::string_view text)
{
    static const char hex[] = "0123456789abcdef";
    std::string out = "\"";
    for (const char ch : text) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 0xF];
            } else {
                out += ch;
            }
        }
    }
    return out + "\"";
}

TEST(CoreJson, EscaperMatchesByteByByteAtEveryOffset)
{
    // Every byte value at every offset of a 20-byte run, so each
    // lands in every lane of a word and in the tail after the last
    // whole word.
    for (int value = 0; value < 256; ++value) {
        for (std::size_t at = 0; at < 20; ++at) {
            std::string text(20, 'a');
            text[at] = static_cast<char>(value);
            ASSERT_EQ(escaped(text), escapedByteByByte(text))
                << "byte " << value << " at " << at;
        }
    }
    const std::string mixed = "\x01\x7f\x80\xff\"\\ #[]\t\r\n \x1f~";
    EXPECT_EQ(escaped(mixed + mixed), escapedByteByByte(mixed + mixed));
}

TEST(CoreJson, Doubles)
{
    EXPECT_EQ(number(0.0), "0");
    EXPECT_EQ(number(-0.0), "-0");
    EXPECT_EQ(number(0.1), "0.1");
    EXPECT_EQ(number(1.0 / 3.0), "0.3333333333333333");
    EXPECT_EQ(number(1e-7), "1e-07");
    EXPECT_EQ(number(42.5), "42.5");
}

TEST(CoreJson, Integers)
{
    EXPECT_EQ(number(std::uint64_t{0}), "0");
    EXPECT_EQ(number(std::numeric_limits<std::uint64_t>::max()),
              "18446744073709551615");
    EXPECT_EQ(number(std::numeric_limits<std::int64_t>::min()),
              "-9223372036854775808");
    EXPECT_EQ(number(std::int64_t{-1}), "-1");
}

TEST(CoreJson, PatternKeyKeepsLeadingZeros)
{
    EXPECT_EQ(patternKeyHex(0xabu), "00000000000000ab");
    EXPECT_EQ(patternKeyHex(0), "0000000000000000");
    EXPECT_EQ(patternKeyHex(0xfedcba9876543210u), "fedcba9876543210");
    std::uint64_t parsed = 1;
    ASSERT_TRUE(parsePatternKeyHex(patternKeyHex(0x0102u), parsed));
    EXPECT_EQ(parsed, 0x0102u);
}

MergedPattern
makePattern(std::uint64_t key, std::string signature,
            std::size_t episodes, DurationNs total, DurationNs max)
{
    MergedPattern p;
    p.key = key;
    p.signature = std::move(signature);
    p.sessions = {0};
    p.episodeCounts = {episodes};
    p.totalEpisodes = episodes;
    p.totalPerceptible = episodes / 2;
    p.minLag = total / static_cast<DurationNs>(episodes) / 2;
    p.maxLag = max;
    p.totalLag = total;
    p.occurrence = OccurrenceClass::Sometimes;
    p.descendants = 3;
    p.depth = 2;
    return p;
}

TEST(CoreJson, PatternsBodyBytes)
{
    MergedPatternSet set;
    set.sessionCount = 2;
    set.patterns.push_back(makePattern(0x1f, "A.run()", 4, 800, 500));
    EXPECT_EQ(
        patternsJson("App", set, "episodes", 0),
        "{\"app\":\"App\",\"sessions\":2,\"total_patterns\":1,"
        "\"sort\":\"episodes\",\"patterns\":[{\"key\":"
        "\"000000000000001f\",\"signature\":\"A.run()\","
        "\"sessions\":1,\"episodes\":4,\"perceptible\":2,"
        "\"min_lag_ns\":100,\"max_lag_ns\":500,\"total_lag_ns\":800,"
        "\"avg_lag_ns\":200,\"occurrence\":\"sometimes\","
        "\"recurring\":false,\"descendants\":3,\"depth\":2}]}");
}

TEST(CoreJson, PatternsBodyWithEveryEscapeIsStrictJson)
{
    std::string signature = "q\"b\\n\nr\rt\t";
    signature += std::string_view("\x00\x01\x1f\x7f", 4);
    signature += "caf\xc3\xa9";
    MergedPatternSet set;
    set.sessionCount = 1;
    set.patterns.push_back(makePattern(0xab, signature, 2, 10, 7));
    const std::string body = patternsJson("A\"pp", set, "episodes", 0);
    const obs::JsonCheckResult check = obs::checkJson(body);
    EXPECT_TRUE(check.ok) << body;
    EXPECT_NE(body.find(escaped(signature)), std::string::npos);
    EXPECT_NE(body.find("\"key\":\"00000000000000ab\""),
              std::string::npos);
}

/** The "key" values of a patterns body, in order. */
std::vector<std::string>
bodyKeys(const std::string &body)
{
    std::vector<std::string> keys;
    constexpr std::string_view tag = "\"key\":\"";
    for (std::size_t at = body.find(tag); at != std::string::npos;
         at = body.find(tag, at + 1))
        keys.push_back(body.substr(at + tag.size(), 16));
    return keys;
}

TEST(CoreJson, TopKMatchesFullStableSort)
{
    // 25 patterns whose lags repeat, so every sort key has ties.
    MergedPatternSet set;
    set.sessionCount = 1;
    for (std::uint64_t i = 0; i < 25; ++i) {
        const std::size_t episodes = 1 + i % 3;
        const DurationNs total = 100 * static_cast<DurationNs>(i % 4);
        const DurationNs max = 10 * static_cast<DurationNs>(i % 5);
        set.patterns.push_back(
            makePattern(0x100 + i, std::to_string(i), episodes, total,
                        max));
    }
    const std::size_t n = set.patterns.size();

    const auto reference = [&](std::string_view sort) {
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        const auto value = [&](std::size_t i) -> DurationNs {
            const MergedPattern &p = set.patterns[i];
            if (sort == "total_lag")
                return p.totalLag;
            if (sort == "max_lag")
                return p.maxLag;
            if (sort == "avg_lag")
                return p.avgLag();
            return 0; // "episodes": set order
        };
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return value(a) > value(b);
                         });
        std::vector<std::string> keys;
        for (const std::size_t i : order)
            keys.push_back(patternKeyHex(set.patterns[i].key));
        return keys;
    };

    for (const std::string_view sort : kPatternSortKeys) {
        const std::vector<std::string> full = reference(sort);
        for (const std::size_t limit :
             {std::size_t{1}, std::size_t{10}, n - 1, n, n + 5}) {
            const std::vector<std::string> keys =
                bodyKeys(patternsJson("App", set, sort, limit));
            const std::size_t count = std::min(limit, n);
            const std::vector<std::string> expected(
                full.begin(),
                full.begin() + static_cast<std::ptrdiff_t>(count));
            EXPECT_EQ(keys, expected)
                << "sort=" << sort << " limit=" << limit;
        }
        EXPECT_EQ(bodyKeys(patternsJson("App", set, sort, 0)), full)
            << "sort=" << sort;
    }
}

} // namespace
} // namespace lag::core
