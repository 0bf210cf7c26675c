#include "io.hh"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "bytes.hh"
#include "mapped_file.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/hash.hh"
#include "util/strings.hh"
#include "util/thread_name.hh"
#include "wire.hh"

static_assert(std::endian::native == std::endian::little,
              "the trace format assumes a little-endian host");

namespace lag::trace
{

// The record-level codec lives in wire.hh so the incremental tail
// reader (tailer.cc) decodes with the exact same functions — the
// batch/streamed byte-identity contract depends on it.
using wire::checkSectionCount;
using wire::kMagic;
using wire::readEvent;
using wire::readMeta;
using wire::readSample;
using wire::readSectionHeader;
using wire::recordContext;
using wire::SectionHeader;
using wire::writeEvent;
using wire::writeMeta;
using wire::writeSample;
using wire::writeSectionHeader;

std::string
serializeTrace(const Trace &trace)
{
    SectionHeader header;
    header.threadCount =
        static_cast<std::uint32_t>(trace.threads.size());
    header.stringCount =
        static_cast<std::uint32_t>(trace.strings.size());
    header.eventCount = trace.events.size();
    header.sampleCount = trace.samples.size();
    for (const auto &sample : trace.samples) {
        header.sampleThreadTotal += sample.threads.size();
        for (const auto &entry : sample.threads)
            header.frameTotal += entry.frames.size();
    }

    ByteWriter payload;
    writeSectionHeader(payload, header);
    writeMeta(payload, trace.meta);

    for (const auto &thread : trace.threads) {
        payload.u32(thread.id);
        payload.str(thread.name);
        payload.u8(thread.isGui ? 1 : 0);
    }

    for (const auto &s : trace.strings.all())
        payload.str(s);

    for (const auto &event : trace.events)
        writeEvent(payload, event);

    for (const auto &sample : trace.samples)
        writeSample(payload, sample);

    const std::string body = payload.take();

    Crc32cHasher hasher;
    hasher.addBytes(body.data(), body.size());

    ByteWriter out;
    for (char c : kMagic)
        out.u8(static_cast<std::uint8_t>(c));
    out.u32(kFormatVersion);
    out.u64(hasher.digest()); // zero-extended into the u64 field
    std::string result = out.take();
    result += body;
    return result;
}

Trace
deserializeTrace(std::string_view data)
{
    LAG_SPAN_ARG("trace.decode", "bytes", data.size());
    const std::int64_t decode_start = processElapsedNs();

    ByteReader header(data);
    for (char expected : kMagic) {
        if (header.u8() != static_cast<std::uint8_t>(expected))
            throw TraceError("bad magic: not a LagAlyzer trace file");
    }
    const std::uint32_t version = header.u32();
    if (version != kFormatVersion) {
        throw TraceError("unsupported trace format version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kFormatVersion) + ")");
    }
    const std::uint64_t checksum = header.u64();

    const std::string_view body = data.substr(header.position());
    Crc32cHasher hasher;
    hasher.addBytes(body.data(), body.size());
    // Nonzero high bits in the u64 field can never match.
    if (hasher.digest() != checksum)
        throw TraceError("trace payload checksum mismatch");

    ByteReader r(body);
    Trace trace;
    const SectionHeader counts = readSectionHeader(r);
    // Minimum wire sizes: thread = id + name length + gui flag,
    // string = length prefix, sample = time + thread count.
    checkSectionCount("thread", counts.threadCount, 9, r.remaining());
    checkSectionCount("string", counts.stringCount, 4, r.remaining());
    checkSectionCount("event", counts.eventCount, kEventWireBytes,
                      r.remaining());
    checkSectionCount("sample", counts.sampleCount, 12,
                      r.remaining());

    trace.meta = readMeta(r);

    {
        LAG_SPAN_ARG("trace.decode.threads", "count",
                     counts.threadCount);
        trace.threads.reserve(counts.threadCount);
        for (std::uint32_t i = 0; i < counts.threadCount; ++i) {
            TraceThread thread;
            thread.id = r.u32();
            thread.name = r.str();
            thread.isGui = r.u8() != 0;
            trace.threads.push_back(std::move(thread));
        }
    }

    {
        LAG_SPAN_ARG("trace.decode.strings", "count",
                     counts.stringCount);
        std::vector<std::string> list;
        list.reserve(counts.stringCount);
        for (std::uint32_t i = 0; i < counts.stringCount; ++i)
            list.push_back(r.str());
        trace.strings = StringTable::fromList(std::move(list));
    }

    {
        LAG_SPAN_ARG("trace.decode.events", "count",
                     counts.eventCount);
        trace.events.reserve(counts.eventCount);
        for (std::uint64_t i = 0; i < counts.eventCount; ++i) {
            const std::size_t at = r.position();
            try {
                trace.events.push_back(readEvent(r));
            } catch (const TraceError &e) {
                // Keep the kind: the tailer relies on Truncated
                // surviving the context-wrapping rethrow.
                throw TraceError(recordContext("event", i, at) +
                                     e.what(),
                                 e.kind());
            }
        }
    }

    std::uint64_t sampleThreadTotal = 0;
    std::uint64_t frameTotal = 0;
    {
        LAG_SPAN_ARG("trace.decode.samples", "count",
                     counts.sampleCount);
        trace.samples.reserve(counts.sampleCount);
        for (std::uint64_t i = 0; i < counts.sampleCount; ++i) {
            const std::size_t at = r.position();
            try {
                trace.samples.push_back(readSample(
                    r, {counts.sampleThreadTotal, counts.frameTotal,
                        /*completeBuffer=*/true}));
            } catch (const TraceError &e) {
                throw TraceError(recordContext("sample", i, at) +
                                     e.what(),
                                 e.kind());
            }
            const TraceSample &sample = trace.samples.back();
            sampleThreadTotal += sample.threads.size();
            for (const auto &entry : sample.threads)
                frameTotal += entry.frames.size();
        }
    }
    if (sampleThreadTotal != counts.sampleThreadTotal ||
        frameTotal != counts.frameTotal) {
        throw TraceError(
            "sample totals disagree with the section header");
    }

    if (r.remaining() != 0) {
        throw TraceError("trailing garbage: " +
                         std::to_string(r.remaining()) +
                         " bytes after trace payload");
    }
    trace.validate();

    // Decode metrics: byte/decode totals plus a latency histogram
    // per whole trace (not per record — the grain must stay coarse
    // enough that metrics never show up in a decode profile).
    static obs::Counter &decode_bytes =
        obs::metrics().counter("trace.decode.bytes");
    static obs::Counter &decode_count =
        obs::metrics().counter("trace.decode.count");
    static obs::Histogram &decode_ms = obs::metrics().histogram(
        "trace.decode.ms", {1, 5, 10, 50, 100, 500, 1000});
    decode_bytes.add(data.size());
    decode_count.add();
    decode_ms.record((processElapsedNs() - decode_start) /
                     1'000'000);
    return trace;
}

void
writeTraceFile(const Trace &trace, const std::string &path)
{
    const std::string data = serializeTrace(trace);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw TraceError("cannot open '" + path + "' for writing");
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out)
        throw TraceError("write to '" + path + "' failed");
}

void
writeTraceFileAtomic(const Trace &trace, const std::string &path)
{
    const std::string temp = path + ".tmp";
    writeTraceFile(trace, temp);
    std::error_code ec;
    std::filesystem::rename(temp, path, ec);
    if (ec) {
        throw TraceError("cannot rename '" + temp + "' to '" + path +
                         "': " + ec.message());
    }
}

Trace
readTraceFile(const std::string &path, TraceReadMode mode)
{
    if (mode == TraceReadMode::Auto) {
        mode = MappedFile::supported() ? TraceReadMode::Mapped
                                       : TraceReadMode::Stream;
    }
    if (mode == TraceReadMode::Mapped) {
        const MappedFile file(path);
        return deserializeTrace(file.view());
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw TraceError("cannot open '" + path + "' for reading");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in && !in.eof())
        throw TraceError("read from '" + path + "' failed");
    return deserializeTrace(buffer.str());
}

std::string
toJsonl(const Trace &trace)
{
    std::ostringstream out;
    out << "{\"record\":\"meta\",\"app\":\""
        << xmlEscape(trace.meta.appName) << "\",\"session\":"
        << trace.meta.sessionIndex << ",\"seed\":" << trace.meta.seed
        << ",\"start\":" << trace.meta.startTime << ",\"end\":"
        << trace.meta.endTime << ",\"filtered\":"
        << trace.meta.filteredShortEpisodes << "}\n";
    for (const auto &thread : trace.threads) {
        out << "{\"record\":\"thread\",\"id\":" << thread.id
            << ",\"name\":\"" << xmlEscape(thread.name)
            << "\",\"gui\":" << (thread.isGui ? "true" : "false")
            << "}\n";
    }
    for (const auto &event : trace.events) {
        out << "{\"record\":\"event\",\"type\":\""
            << eventTypeName(event.type) << "\",\"t\":" << event.time;
        if (event.type == EventType::IntervalBegin ||
            event.type == EventType::IntervalEnd) {
            out << ",\"kind\":\"" << intervalKindName(event.kind) << '"';
        }
        if (event.type == EventType::IntervalBegin) {
            out << ",\"class\":\""
                << xmlEscape(trace.strings.lookup(event.classSym))
                << "\",\"method\":\""
                << xmlEscape(trace.strings.lookup(event.methodSym))
                << '"';
        }
        if (event.type == EventType::GcBegin) {
            out << ",\"gc\":\""
                << (event.gcKind == TraceGcKind::Major ? "major"
                                                       : "minor")
                << '"';
        }
        if (event.type != EventType::GcBegin &&
            event.type != EventType::GcEnd) {
            out << ",\"thread\":" << event.thread;
        }
        out << "}\n";
    }
    for (const auto &sample : trace.samples) {
        out << "{\"record\":\"sample\",\"t\":" << sample.time
            << ",\"threads\":[";
        for (std::size_t i = 0; i < sample.threads.size(); ++i) {
            const auto &entry = sample.threads[i];
            if (i > 0)
                out << ',';
            out << "{\"id\":" << entry.thread << ",\"state\":\""
                << traceThreadStateName(entry.state)
                << "\",\"depth\":" << entry.frames.size() << '}';
        }
        out << "]}\n";
    }
    return out.str();
}

} // namespace lag::trace
