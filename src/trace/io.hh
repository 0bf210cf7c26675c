/**
 * @file
 * Binary trace file reader and writer.
 *
 * File layout (all integers little-endian):
 *
 *   magic   "LAGTRC\0\0" (8 bytes)
 *   u32     format version (kFormatVersion)
 *   u64     payload CRC32C checksum, zero-extended (the high 32
 *           bits must be zero; anything else is a mismatch)
 *   payload section header, meta, threads, string table, events,
 *           samples
 *
 * The payload opens with a sectioned count header (thread, string,
 * event and sample counts plus aggregate sample totals) so decoders
 * can pre-size every vector exactly instead of growing through
 * push_back, and can reject implausible counts before allocating.
 *
 * The checksum covers the payload bytes exactly; readers verify it
 * before decoding, so bit rot and truncation are detected up front.
 * deserializeTrace borrows its input: handed an mmap-backed view
 * (see mapped_file.hh) it decodes straight out of the mapping with
 * no intermediate buffer copy.
 */

#ifndef LAG_TRACE_IO_HH
#define LAG_TRACE_IO_HH

#include <string>

#include "trace.hh"

namespace lag::trace
{

/**
 * Current binary format version.  Version 3 added the sectioned
 * count header that enables pre-sized (reserve-exact) decode.
 * Version 4 replaced the payload checksum, FNV-1a 64, with CRC32C,
 * which the CPU computes eight bytes per instruction; the field keeps
 * its offset and width.  Readers accept only the current version: an
 * older file is unreadable, and a study re-simulates it.
 */
constexpr std::uint32_t kFormatVersion = 4;

/** Fixed wire size of one encoded TraceEvent, in bytes. */
constexpr std::size_t kEventWireBytes = 23;

/** How readTraceFile obtains the file's bytes. */
enum class TraceReadMode
{
    Auto,   ///< mmap when the platform supports it, else stream.
    Mapped, ///< force the mmap zero-copy path.
    Stream, ///< force the stream (owned buffer) path.
};

/** Serialize @p trace into a byte buffer. */
std::string serializeTrace(const Trace &trace);

/** Parse a byte buffer produced by serializeTrace. */
Trace deserializeTrace(std::string_view data);

/** Write @p trace to @p path. Throws TraceError on I/O failure. */
void writeTraceFile(const Trace &trace, const std::string &path);

/**
 * Write @p trace to @p path via a temp file and an atomic rename,
 * so a crash or kill mid-write can never leave a truncated trace
 * behind at @p path. Throws TraceError on I/O failure.
 */
void writeTraceFileAtomic(const Trace &trace,
                          const std::string &path);

/**
 * Read a trace from @p path. Throws TraceError on any failure.
 * In Auto (the default) the file is memory-mapped where the platform
 * allows and decoded zero-copy; Mapped and Stream force one path,
 * which exists for tests and benchmarks — both decode to identical
 * traces.
 */
Trace readTraceFile(const std::string &path,
                    TraceReadMode mode = TraceReadMode::Auto);

/**
 * Export a human-readable JSON-lines rendering of @p trace (one
 * record per line: meta, threads, events, samples). For debugging
 * and interoperability; the binary format is the system of record.
 */
std::string toJsonl(const Trace &trace);

} // namespace lag::trace

#endif // LAG_TRACE_IO_HH
