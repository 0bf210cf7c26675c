/**
 * @file
 * Tests for the stable FNV-1a hashing and the CRC32C trace checksum.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hh"

namespace lag
{
namespace
{

/** The textbook byte-at-a-time FNV-1a loop, as the reference for
 * the word-at-a-time addBytes fast path. */
std::uint64_t
naiveFnv1a(const unsigned char *bytes, std::size_t size)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i]; // lag-lint: allow(byte-hash-loop)
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

TEST(HashTest, KnownFnv1aValues)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, IncrementalMatchesOneShot)
{
    Fnv1aHasher h;
    h.addBytes("foo", 3);
    h.addBytes("bar", 3);
    EXPECT_EQ(h.digest(), fnv1a("foobar"));
}

TEST(HashTest, AddStringSeparatesFields)
{
    // ("ab", "c") and ("a", "bc") must differ: addString appends a
    // separator byte.
    Fnv1aHasher h1;
    h1.addString("ab");
    h1.addString("c");
    Fnv1aHasher h2;
    h2.addString("a");
    h2.addString("bc");
    EXPECT_NE(h1.digest(), h2.digest());
}

TEST(HashTest, AddValueIsOrderSensitive)
{
    Fnv1aHasher h1;
    h1.addValue<std::uint32_t>(1);
    h1.addValue<std::uint32_t>(2);
    Fnv1aHasher h2;
    h2.addValue<std::uint32_t>(2);
    h2.addValue<std::uint32_t>(1);
    EXPECT_NE(h1.digest(), h2.digest());
}

TEST(HashTest, WordFoldMatchesByteLoopAllLengths)
{
    // The word-at-a-time fast path must be bit-identical to the
    // byte loop for every length 0–64 (covers the empty input, the
    // pure tail, exact multiples of 8 and every straddle).
    unsigned char bytes[64];
    for (std::size_t i = 0; i < sizeof(bytes); ++i)
        bytes[i] = static_cast<unsigned char>(i * 37 + 11);
    for (std::size_t len = 0; len <= sizeof(bytes); ++len) {
        Fnv1aHasher h;
        h.addBytes(bytes, len);
        EXPECT_EQ(h.digest(), naiveFnv1a(bytes, len))
            << "length " << len;
    }
}

TEST(HashTest, WordFoldMatchesByteLoopAcrossChunkings)
{
    // Splitting the input at any point (so words straddle addBytes
    // calls) must not change the digest.
    const std::string input =
        "D[app.Main.run](L[x.Y.on](P[a.B.paint])N[j.K.native])";
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(input.data());
    const std::uint64_t expected = naiveFnv1a(bytes, input.size());
    EXPECT_EQ(fnv1a(input), expected);
    for (std::size_t cut = 0; cut <= input.size(); ++cut) {
        Fnv1aHasher h;
        h.addBytes(input.data(), cut);
        h.addBytes(input.data() + cut, input.size() - cut);
        EXPECT_EQ(h.digest(), expected) << "cut " << cut;
    }
}

TEST(HashTest, StableAcrossRuns)
{
    // The pattern keys and cache keys depend on this exact value
    // never changing.
    EXPECT_EQ(fnv1a("LagAlyzer"), 0x7c79b209367a9126ULL);
}

/** Standard CRC32C digest of @p bytes through one path. */
template <typename Update>
std::uint32_t
crc32cWith(Update update, const void *bytes, std::size_t size)
{
    return ~update(0xffffffffU, bytes, size);
}

std::uint32_t
crc32cOf(std::string_view s)
{
    Crc32cHasher h;
    h.addBytes(s.data(), s.size());
    return h.digest();
}

TEST(Crc32cTest, Rfc3720CheckValues)
{
    // RFC 3720 (iSCSI) appendix B.4 and the common check value.
    EXPECT_EQ(crc32cOf("123456789"), 0xE3069283U);
    EXPECT_EQ(crc32cOf(std::string(32, '\0')), 0x8A9136AAU);
    EXPECT_EQ(crc32cOf(std::string(32, '\xff')), 0x62A8AB43U);
    std::string ascending;
    for (int i = 0; i < 32; ++i)
        ascending += static_cast<char>(i);
    EXPECT_EQ(crc32cOf(ascending), 0x46DD794EU);
    EXPECT_EQ(crc32cOf(""), 0x00000000U);
    for (const auto update : {crc32cTable, crc32cHardware}) {
        if (update == crc32cHardware && !crc32cHardwareAvailable())
            continue;
        EXPECT_EQ(crc32cWith(update, "123456789", 9), 0xE3069283U);
        const std::string zeros(32, '\0');
        EXPECT_EQ(crc32cWith(update, zeros.data(), zeros.size()),
                  0x8A9136AAU);
    }
}

TEST(Crc32cTest, HardwareAndTablePathsAgreeAtEveryLength)
{
    if (!crc32cHardwareAvailable())
        GTEST_SKIP() << "no CRC32C instruction on this CPU";
    unsigned char bytes[64];
    for (std::size_t i = 0; i < sizeof(bytes); ++i)
        bytes[i] = static_cast<unsigned char>(i * 37 + 11);
    // Every length 0-64 from every start offset 0-7, so unaligned
    // heads, whole words and every tail length are all covered.
    for (std::size_t start = 0; start < 8; ++start) {
        for (std::size_t len = 0; start + len <= sizeof(bytes); ++len) {
            EXPECT_EQ(crc32cHardware(0xffffffffU, bytes + start, len),
                      crc32cTable(0xffffffffU, bytes + start, len))
                << "start " << start << " length " << len;
        }
    }
}

TEST(Crc32cTest, EveryChunkingGivesTheSameDigest)
{
    std::vector<unsigned char> bytes(300);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<unsigned char>(i * 131 + 7);
    const std::uint32_t expected =
        crc32cWith(crc32cTable, bytes.data(), bytes.size());
    for (const auto update : {crc32cTable, crc32cHardware}) {
        if (update == crc32cHardware && !crc32cHardwareAvailable())
            continue;
        // Two pieces cut anywhere.
        for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
            std::uint32_t crc = update(0xffffffffU, bytes.data(), cut);
            crc = update(crc, bytes.data() + cut, bytes.size() - cut);
            EXPECT_EQ(~crc, expected) << "cut " << cut;
        }
        // Fixed-size chunks of every width 1-17.
        for (std::size_t width = 1; width <= 17; ++width) {
            std::uint32_t crc = 0xffffffffU;
            for (std::size_t at = 0; at < bytes.size(); at += width) {
                crc = update(crc, bytes.data() + at,
                             std::min(width, bytes.size() - at));
            }
            EXPECT_EQ(~crc, expected) << "width " << width;
        }
    }
    Crc32cHasher h;
    for (const unsigned char byte : bytes)
        h.addBytes(&byte, 1);
    EXPECT_EQ(h.digest(), expected);
}

} // namespace
} // namespace lag
