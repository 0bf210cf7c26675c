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
 * The checksum covers the payload bytes exactly. The decoder
 * (decoder.hh) folds it over the bytes as it consumes them and
 * verifies it when the last record is decoded, so bit rot that the
 * record checks let through is still rejected. decodeTrace borrows
 * its input: handed an mmap-backed view (see mapped_file.hh) it
 * decodes straight out of the mapping with no intermediate buffer
 * copy, and the samples land in their flat columns (trace.hh)
 * directly. Decoding checks each record's wire form; its meaning is
 * validated once per load, by the session builder or, for a caller
 * that wants only the Trace, by deserializeTrace.
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

/** Serialize @p trace into a byte buffer. */
std::string serializeTrace(const Trace &trace);

/**
 * Decode a byte buffer produced by serializeTrace: one whole feed of
 * a TraceDecoder (decoder.hh). Throws TraceError; kind Truncated
 * when the bytes end inside a record. The records are decoded but
 * not validated: a caller that builds a session from the trace lets
 * the session builder validate each record, once.
 */
Trace decodeTrace(std::string_view data);

/** decodeTrace, then one Trace::validate() pass. */
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
 * Read and validate a trace from @p path (deserializeTrace). Throws
 * TraceError on any failure. The file is memory-mapped where the
 * platform allows and decoded zero-copy (MappedFile reads it into a
 * buffer elsewhere).
 */
Trace readTraceFile(const std::string &path);

} // namespace lag::trace

#endif // LAG_TRACE_IO_HH
