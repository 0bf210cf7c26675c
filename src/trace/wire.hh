/**
 * @file
 * Record-level codec: the writer (io.cc) encodes with it, and the
 * one decoder (decoder.cc) decodes with it.
 *
 * Everything here works on one record at a time over a ByteReader,
 * so the same functions decode a complete in-memory payload and a
 * partial, still-growing one. Error discipline: running out of
 * buffered bytes raises TraceError with kind Truncated (the
 * ByteReader does this); every structural violation — unknown enum
 * value, a count exceeding the section header's declared totals —
 * raises kind Corrupt. The decoder leaves a Truncated record for its
 * next feed and throws Corrupt; the batch reader, which feeds the
 * whole file at once, treats both as fatal.
 *
 * Internal header: the trace library and its tests only.
 */

#ifndef LAG_TRACE_WIRE_HH
#define LAG_TRACE_WIRE_HH

#include <cstring>
#include <string>

#include "bytes.hh"
#include "io.hh"
#include "trace.hh"

namespace lag::trace::wire
{

inline constexpr char kMagic[8] = {'L', 'A', 'G', 'T',
                                   'R', 'C', '\0', '\0'};

/** Fixed wire size of the file header: magic + version + checksum. */
inline constexpr std::size_t kFileHeaderBytes = 8 + 4 + 8;

/**
 * Sectioned count header at the head of the payload: record counts
 * up front so the decoder pre-sizes every vector exactly, plus
 * aggregate sample totals so implausible (corrupt) counts are
 * rejected before any large allocation.
 */
struct SectionHeader
{
    std::uint32_t threadCount = 0;
    std::uint32_t stringCount = 0;
    std::uint64_t eventCount = 0;
    std::uint64_t sampleCount = 0;
    std::uint64_t sampleThreadTotal = 0;
    std::uint64_t frameTotal = 0;
};

inline void
writeSectionHeader(ByteWriter &w, const SectionHeader &header)
{
    w.u32(header.threadCount);
    w.u32(header.stringCount);
    w.u64(header.eventCount);
    w.u64(header.sampleCount);
    w.u64(header.sampleThreadTotal);
    w.u64(header.frameTotal);
}

inline SectionHeader
readSectionHeader(ByteReader &r)
{
    SectionHeader header;
    header.threadCount = r.u32();
    header.stringCount = r.u32();
    header.eventCount = r.u64();
    header.sampleCount = r.u64();
    header.sampleThreadTotal = r.u64();
    header.frameTotal = r.u64();
    return header;
}

/**
 * Reject a section count that could not possibly fit in the bytes
 * that remain, before reserving storage for it.  @p minBytes is the
 * smallest legal wire size of one record. Only meaningful over a
 * complete payload — with a partial buffer the missing bytes may
 * simply not have been written yet.
 */
inline void
checkSectionCount(const char *section, std::uint64_t count,
                  std::size_t minBytes, std::size_t remaining)
{
    if (count > 0 && count > remaining / minBytes) {
        throw TraceError(
            "implausible " + std::string(section) + " count " +
            std::to_string(count) + ": only " +
            std::to_string(remaining) + " payload bytes remain");
    }
}

/** Context prefix for a malformed record: which one, and where. */
inline std::string
recordContext(const char *kind, std::uint64_t index,
              std::size_t payloadOffset)
{
    return std::string(kind) + " " + std::to_string(index) +
           " at payload offset " + std::to_string(payloadOffset) +
           ": ";
}

inline void
writeMeta(ByteWriter &w, const TraceMeta &meta)
{
    w.str(meta.appName);
    w.u32(meta.sessionIndex);
    w.u64(meta.seed);
    w.i64(meta.startTime);
    w.i64(meta.endTime);
    w.i64(meta.samplePeriod);
    w.i64(meta.filterThreshold);
    w.u64(meta.filteredShortEpisodes);
    w.i64(meta.totalInEpisodeTime);
}

inline TraceMeta
readMeta(ByteReader &r)
{
    TraceMeta meta;
    meta.appName = r.str();
    meta.sessionIndex = r.u32();
    meta.seed = r.u64();
    meta.startTime = r.i64();
    meta.endTime = r.i64();
    meta.samplePeriod = r.i64();
    meta.filterThreshold = r.i64();
    meta.filteredShortEpisodes = r.u64();
    meta.totalInEpisodeTime = r.i64();
    return meta;
}

inline void
writeEvent(ByteWriter &w, const TraceEvent &event)
{
    w.u8(static_cast<std::uint8_t>(event.type));
    w.u32(event.thread);
    w.i64(event.time);
    w.u8(static_cast<std::uint8_t>(event.kind));
    w.u32(event.classSym);
    w.u32(event.methodSym);
    w.u8(static_cast<std::uint8_t>(event.gcKind));
}

/**
 * Decode one fixed-size event record straight from the buffer: a
 * single bounds check covers all seven fields, so the hot decode
 * loop does one range test per event instead of seven.
 */
inline TraceEvent
readEvent(ByteReader &r)
{
    const char *p = r.bytes(kEventWireBytes);
    TraceEvent event;
    const auto type = static_cast<std::uint8_t>(p[0]);
    if (type > static_cast<std::uint8_t>(EventType::GcEnd))
        throw TraceError("unknown event type " + std::to_string(type));
    event.type = static_cast<EventType>(type);
    std::memcpy(&event.thread, p + 1, sizeof(event.thread));
    std::memcpy(&event.time, p + 5, sizeof(event.time));
    const auto kind = static_cast<std::uint8_t>(p[13]);
    if (kind > static_cast<std::uint8_t>(IntervalKind::Async))
        throw TraceError("unknown interval kind " + std::to_string(kind));
    event.kind = static_cast<IntervalKind>(kind);
    std::memcpy(&event.classSym, p + 14, sizeof(event.classSym));
    std::memcpy(&event.methodSym, p + 18, sizeof(event.methodSym));
    const auto gc = static_cast<std::uint8_t>(p[22]);
    if (gc > static_cast<std::uint8_t>(TraceGcKind::Major))
        throw TraceError("unknown GC kind " + std::to_string(gc));
    event.gcKind = static_cast<TraceGcKind>(gc);
    return event;
}

/** Write sample @p s of @p samples. */
inline void
writeSample(ByteWriter &w, const SampleColumns &samples, std::size_t s)
{
    w.i64(samples.time(s));
    const std::size_t begin = samples.entryBegin(s);
    const std::size_t end = samples.entryEnd(s);
    w.u32(static_cast<std::uint32_t>(end - begin));
    for (std::size_t e = begin; e < end; ++e) {
        w.u32(samples.thread(e));
        w.u8(static_cast<std::uint8_t>(samples.state(e)));
        const auto stack = samples.stack(e);
        w.u32(static_cast<std::uint32_t>(stack.size()));
        for (const auto &frame : stack) {
            w.u32(frame.classSym);
            w.u32(frame.methodSym);
        }
    }
}

/** How readSample bounds a sample's internal counts. */
struct SampleBounds
{
    /** Declared section-header totals: any single sample exceeding
     * them is definitely corrupt, complete buffer or not. */
    std::uint64_t maxThreads = 0;
    std::uint64_t maxFrames = 0;

    /** True when the reader spans the whole payload, enabling the
     * remaining-bytes plausibility checks. False for a tail read,
     * where missing bytes mean "not written yet", not "corrupt". */
    bool completeBuffer = true;
};

/**
 * Decode one sample record onto the end of @p out. A throw can leave
 * the sample partly added; the caller truncates it away.
 */
inline void
readSample(ByteReader &r, const SampleBounds &bounds, SampleColumns &out)
{
    const TimeNs time = r.i64();
    const std::uint32_t threads = r.u32();
    if (threads > bounds.maxThreads) {
        throw TraceError("implausible sample thread count " +
                         std::to_string(threads) +
                         " exceeds the declared total " +
                         std::to_string(bounds.maxThreads));
    }
    // Each entry needs at least thread id + state + frame count.
    if (bounds.completeBuffer)
        checkSectionCount("sample thread", threads, 9, r.remaining());
    out.addSample(time);
    for (std::uint32_t i = 0; i < threads; ++i) {
        const ThreadId thread = r.u32();
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(TraceThreadState::Sleeping))
            throw TraceError("unknown thread state " +
                             std::to_string(state));
        const std::uint32_t frames = r.u32();
        if (frames > bounds.maxFrames) {
            throw TraceError("implausible sample frame count " +
                             std::to_string(frames) +
                             " exceeds the declared total " +
                             std::to_string(bounds.maxFrames));
        }
        if (bounds.completeBuffer)
            checkSectionCount("sample frame", frames, 8,
                              r.remaining());
        out.addEntry(thread, static_cast<TraceThreadState>(state));
        if (frames > 0) {
            // Frames are a flat run of {u32 class, u32 method}
            // pairs: one bounds check, one copy. Borrow the bytes
            // BEFORE growing the column, so a partial tail read
            // raises Truncated instead of allocating for a record
            // whose bytes have not landed yet.
            static_assert(sizeof(SampleFrame) ==
                              2 * sizeof(std::uint32_t),
                          "SampleFrame must match its wire layout");
            const std::size_t bytes = static_cast<std::size_t>(frames) * 8;
            const char *raw = r.bytes(bytes);
            std::memcpy(out.addFrames(frames), raw, bytes);
        }
    }
}

} // namespace lag::trace::wire

#endif // LAG_TRACE_WIRE_HH
