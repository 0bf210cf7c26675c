/**
 * @file
 * Stable hashing: FNV-1a 64 for pattern signatures and cache keys,
 * CRC32C for trace payload checksums.
 *
 * std::hash is implementation-defined; pattern keys and trace-cache
 * keys must be stable across compilers and runs, so FNV-1a is
 * implemented explicitly.  FNV-1a is serial per byte, which makes it
 * the wrong tool for megabytes of trace payload: the trace checksum
 * is CRC32C (Castagnoli), which the CPU computes eight bytes per
 * instruction where it can.
 */

#ifndef LAG_UTIL_HASH_HH
#define LAG_UTIL_HASH_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace lag
{

/** Incremental FNV-1a 64-bit hasher. */
class Fnv1aHasher
{
  public:
    /**
     * Fold raw bytes into the hash state.
     *
     * FNV-1a is serial per byte (the multiply does not distribute
     * over the xor), so the digest cannot be block-parallelized —
     * but the *loads* can: on little-endian targets the main loop
     * reads one 64-bit word per iteration and folds its eight bytes
     * from a register, replacing eight 1-byte loads with one load
     * plus shifts. Bit-identical to the byte loop on every input;
     * tests/util_hash_test.cc proves it for all lengths 0–64 and
     * all chunkings.
     */
    void
    addBytes(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        std::size_t i = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::uint64_t h = hash_;
            for (; i + 8 <= size; i += 8) {
                std::uint64_t word;
                std::memcpy(&word, bytes + i, 8);
                h = (h ^ (word & 0xff)) * kPrime;
                h = (h ^ ((word >> 8) & 0xff)) * kPrime;
                h = (h ^ ((word >> 16) & 0xff)) * kPrime;
                h = (h ^ ((word >> 24) & 0xff)) * kPrime;
                h = (h ^ ((word >> 32) & 0xff)) * kPrime;
                h = (h ^ ((word >> 40) & 0xff)) * kPrime;
                h = (h ^ ((word >> 48) & 0xff)) * kPrime;
                h = (h ^ (word >> 56)) * kPrime;
            }
            hash_ = h;
        }
        // Tail (and the whole input on big-endian targets).
        for (; i < size; ++i) {
            hash_ ^= bytes[i]; // lag-lint: allow(byte-hash-loop)
            hash_ *= kPrime;
        }
    }

    /** Fold a string (including a terminator byte as separator). */
    void
    addString(std::string_view s)
    {
        addBytes(s.data(), s.size());
        const unsigned char sep = 0xff;
        addBytes(&sep, 1);
    }

    /** Fold an integral value (little-endian byte order). */
    template <typename T>
    void
    addValue(T value)
    {
        addBytes(&value, sizeof(value));
    }

    /** Current digest. */
    std::uint64_t digest() const { return hash_; }

  private:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    std::uint64_t hash_ = kOffset;
};

/**
 * @name CRC32C (Castagnoli, reflected polynomial 0x82F63B78).
 * The functions below advance a raw CRC register (no initial or final
 * inversion); Crc32cHasher adds both to give the standard digest.
 * Both implementations are exposed so tests can prove them equal.
 * @{ */

/** Slicing-by-8 table implementation; available everywhere. */
std::uint32_t crc32cTable(std::uint32_t crc, const void *data,
                          std::size_t size);

/** True when this CPU has a CRC32C instruction (SSE4.2 on x86-64).
 * Checked once per process. */
bool crc32cHardwareAvailable();

/** One lane of the CPU's CRC32C instruction, eight bytes per step.
 * Requires crc32cHardwareAvailable(). */
std::uint32_t crc32cHardware(std::uint32_t crc, const void *data,
                             std::size_t size);

/** @} */

/** Incremental CRC32C hasher: the trace payload checksum. */
class Crc32cHasher
{
  public:
    /** Fold raw bytes through the hardware path when available,
     * else the table path; any chunking gives the same digest. */
    void addBytes(const void *data, std::size_t size);

    /** Current digest (the standard CRC32C of the bytes so far). */
    std::uint32_t digest() const { return ~crc_; }

  private:
    std::uint32_t crc_ = 0xffffffffU;
};

/** One-shot hash of a string. */
inline std::uint64_t
fnv1a(std::string_view s)
{
    Fnv1aHasher h;
    h.addBytes(s.data(), s.size());
    return h.digest();
}

} // namespace lag

#endif // LAG_UTIL_HASH_HH
