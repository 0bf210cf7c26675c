#include "io.hh"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "bytes.hh"
#include "decoder.hh"
#include "mapped_file.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/hash.hh"
#include "util/thread_name.hh"
#include "wire.hh"

static_assert(std::endian::native == std::endian::little,
              "the trace format assumes a little-endian host");

namespace lag::trace
{

// The record-level codec lives in wire.hh; reading goes through
// TraceDecoder (decoder.hh), the one decoder the tail reader runs
// too.
using wire::kMagic;
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
    header.sampleThreadTotal = trace.samples.entryCount();
    header.frameTotal = trace.samples.frames().size();

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

    for (std::size_t s = 0; s < trace.samples.size(); ++s)
        writeSample(payload, trace.samples, s);

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
decodeTrace(std::string_view data)
{
    LAG_SPAN_ARG("trace.decode", "bytes", data.size());
    const std::int64_t decode_start = processElapsedNs();

    TraceDecoder decoder;
    const std::size_t used = decoder.feed(data, /*whole=*/true);
    if (!decoder.complete()) {
        throw TraceError("trace file truncated: " +
                             std::to_string(data.size() - used) +
                             " bytes at offset " +
                             std::to_string(used) +
                             " do not complete a record",
                         TraceErrorKind::Truncated);
    }
    Trace trace = decoder.takeTrace();

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

Trace
deserializeTrace(std::string_view data)
{
    Trace trace = decodeTrace(data);
    trace.validate();
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
readTraceFile(const std::string &path)
{
    const MappedFile file(path);
    return deserializeTrace(file.view());
}

} // namespace lag::trace
