#include "hash.hh"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define LAG_CRC32C_X86 1
#endif

namespace lag
{

namespace
{

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/** Slicing-by-8 tables: row 0 is the classic byte table, row k
 * advances a byte through k further zero bytes. */
constexpr Crc32cTables
makeCrc32cTables()
{
    Crc32cTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (c >> 1) ^ 0x82F63B78U : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t s = 1; s < 8; ++s) {
        for (std::size_t i = 0; i < 256; ++i)
            t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
    }
    return t;
}

constexpr Crc32cTables kCrc32cTables = makeCrc32cTables();

#if defined(LAG_CRC32C_X86)

__attribute__((target("sse4.2"))) std::uint32_t
crc32cInstruction(std::uint32_t crc, const unsigned char *bytes,
                  std::size_t size)
{
    std::uint64_t c = crc;
    for (; size >= 8; bytes += 8, size -= 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes, 8);
        c = _mm_crc32_u64(c, word);
    }
    auto c32 = static_cast<std::uint32_t>(c);
    for (; size > 0; ++bytes, --size)
        c32 = _mm_crc32_u8(c32, *bytes);
    return c32;
}

bool
cpuHasCrc32c()
{
    return __builtin_cpu_supports("sse4.2");
}

#endif

} // namespace

std::uint32_t
crc32cTable(std::uint32_t crc, const void *data, std::size_t size)
{
    const auto &t = kCrc32cTables;
    const auto *bytes = static_cast<const unsigned char *>(data);
    if constexpr (std::endian::native == std::endian::little) {
        for (; size >= 8; bytes += 8, size -= 8) {
            std::uint64_t word;
            std::memcpy(&word, bytes, 8);
            word ^= crc;
            crc = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
                  t[5][(word >> 16) & 0xff] ^
                  t[4][(word >> 24) & 0xff] ^
                  t[3][(word >> 32) & 0xff] ^
                  t[2][(word >> 40) & 0xff] ^
                  t[1][(word >> 48) & 0xff] ^ t[0][word >> 56];
        }
    }
    // Tail (and the whole input on big-endian targets).
    for (; size > 0; ++bytes, --size)
        crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xff];
    return crc;
}

bool
crc32cHardwareAvailable()
{
#if defined(LAG_CRC32C_X86)
    static const bool available = cpuHasCrc32c();
    return available;
#else
    return false;
#endif
}

std::uint32_t
crc32cHardware(std::uint32_t crc, const void *data, std::size_t size)
{
#if defined(LAG_CRC32C_X86)
    return crc32cInstruction(
        crc, static_cast<const unsigned char *>(data), size);
#else
    // No CRC instruction on this target: never reached through
    // Crc32cHasher, and still correct if called directly.
    return crc32cTable(crc, data, size);
#endif
}

void
Crc32cHasher::addBytes(const void *data, std::size_t size)
{
    crc_ = crc32cHardwareAvailable() ? crc32cHardware(crc_, data, size)
                                     : crc32cTable(crc_, data, size);
}

} // namespace lag
