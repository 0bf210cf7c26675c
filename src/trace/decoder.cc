#include "decoder.hh"

#include <algorithm>

#include "util/logging.hh"

namespace lag::trace
{

namespace
{

/**
 * Cap for speculative reserves. Declared counts come from a file
 * that may be mid-write (or hostile), so without a whole feed's
 * plausibility checks pre-sizing trusts them only up to this many
 * records; std::vector growth covers honest larger traces at
 * amortized cost.
 */
constexpr std::uint64_t kReserveCap = 64 * 1024;

/** Records to pre-size for a section that declares @p count. */
std::size_t
reserveFor(std::uint64_t count, bool whole)
{
    return static_cast<std::size_t>(
        whole ? count : std::min(count, kReserveCap));
}

} // namespace

std::size_t
TraceDecoder::feed(std::string_view bytes, bool whole)
{
    ByteReader r(bytes);
    const std::size_t firstEvent = events_.size();
    std::size_t used = 0;    // end of the last whole record
    std::size_t payload = 0; // first consumed byte not yet folded
    // Fold the consumed payload into the checksum once per feed (and
    // before the completion check reads it).
    const auto fold = [&] {
        hasher_.addBytes(bytes.data() + payload, used - payload);
        payload = used;
    };
    try {
        if (stage_ == Stage::FileHeader) {
            readFileHeader(r);
            used = payload = r.position(); // the header is not payload
            stage_ = Stage::SectionHeader;
        }
        if (stage_ == Stage::SectionHeader) {
            counts_ = wire::readSectionHeader(r);
            if (whole)
                checkCounts(r.remaining());
            used = r.position();
            stage_ = Stage::Meta;
        }
        if (stage_ == Stage::Meta) {
            meta_ = wire::readMeta(r);
            used = r.position();
            threads_.reserve(reserveFor(counts_.threadCount, whole));
            stage_ = Stage::Threads;
        }
        if (stage_ == Stage::Threads) {
            decodeThreads(r, used);
            stringList_.reserve(reserveFor(counts_.stringCount, whole));
            stage_ = Stage::Strings;
        }
        if (stage_ == Stage::Strings) {
            decodeStrings(r, used);
            stringTable_ = StringTable::fromList(std::move(stringList_));
            stringList_.clear();
            events_.reserve(reserveFor(counts_.eventCount, whole));
            stage_ = Stage::Events;
        }
        if (stage_ == Stage::Events) {
            decodeEvents(r, used);
            reserveSamples(r.remaining(), whole);
            stage_ = Stage::Samples;
        }
        if (stage_ == Stage::Samples) {
            decodeSamples(r, whole, used);
            fold();
            finish(bytes.size() - used);
            stage_ = Stage::Complete;
        }
    } catch (const TraceError &e) {
        // Truncated: a record cut short at the end waits for the
        // next feed. Otherwise the bytes decoded so far still count
        // as consumed, so a caller's carry stays in step.
        if (e.kind() != TraceErrorKind::Truncated) {
            consumed_ += used;
            throw;
        }
    }
    fold();
    consumed_ += used;
    // The closed prefix bounds the cut only while the trace is
    // incomplete.
    if (!complete())
        noteEvents(firstEvent);
    return used;
}

void
TraceDecoder::readFileHeader(ByteReader &r)
{
    for (char expected : wire::kMagic) {
        if (r.u8() != static_cast<std::uint8_t>(expected))
            throw TraceError("bad magic: not a LagAlyzer trace file");
    }
    const std::uint32_t version = r.u32();
    if (version != kFormatVersion) {
        throw TraceError("unsupported trace format version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kFormatVersion) + ")");
    }
    declaredChecksum_ = r.u64();
}

void
TraceDecoder::checkCounts(std::size_t remaining) const
{
    // Minimum wire sizes: thread = id + name length + gui flag,
    // string = length prefix, sample = time + thread count.
    wire::checkSectionCount("thread", counts_.threadCount, 9,
                            remaining);
    wire::checkSectionCount("string", counts_.stringCount, 4,
                            remaining);
    wire::checkSectionCount("event", counts_.eventCount,
                            kEventWireBytes, remaining);
    wire::checkSectionCount("sample", counts_.sampleCount, 12,
                            remaining);
}

void
TraceDecoder::reserveSamples(std::size_t remaining, bool whole)
{
    // Only the sample count was checked against the bytes, so a
    // whole feed bounds the entry and frame totals by what fits in
    // the bytes that remain (an entry takes at least 9, a frame 8).
    // For a valid file that bound is never below the declared total.
    const auto fit = [&](std::uint64_t count, std::size_t minBytes) {
        return reserveFor(
            whole ? std::min<std::uint64_t>(count, remaining / minBytes)
                  : count,
            whole);
    };
    samples_.reserve(reserveFor(counts_.sampleCount, whole),
                     fit(counts_.sampleThreadTotal, 9),
                     fit(counts_.frameTotal, 8));
}

void
TraceDecoder::decodeThreads(ByteReader &r, std::size_t &used)
{
    while (threads_.size() < counts_.threadCount) {
        TraceThread thread;
        thread.id = r.u32();
        thread.name = r.str();
        thread.isGui = r.u8() != 0;
        threads_.push_back(std::move(thread));
        used = r.position();
    }
}

void
TraceDecoder::decodeStrings(ByteReader &r, std::size_t &used)
{
    while (stringList_.size() < counts_.stringCount) {
        stringList_.push_back(r.str());
        used = r.position();
    }
}

void
TraceDecoder::decodeEvents(ByteReader &r, std::size_t &used)
{
    // The hot loops run on local copies of the reader and the record
    // end, written back on the way out, so the compiler can keep them
    // in registers across the stores into the vectors.
    ByteReader in = r;
    std::size_t end = used;
    const std::uint64_t count = counts_.eventCount;
    while (events_.size() < count) {
        try {
            events_.push_back(wire::readEvent(in));
        } catch (const TraceError &e) {
            used = end;
            throw inRecord("event", events_.size(), end, e);
        }
        end = in.position();
    }
    r = in;
    used = end;
}

void
TraceDecoder::decodeSamples(ByteReader &r, bool whole,
                            std::size_t &used)
{
    const wire::SampleBounds bounds{counts_.sampleThreadTotal,
                                    counts_.frameTotal, whole};
    ByteReader in = r;
    std::size_t end = used;
    const std::uint64_t count = counts_.sampleCount;
    while (samples_.size() < count) {
        const std::size_t index = samples_.size();
        try {
            wire::readSample(in, bounds, samples_);
        } catch (const TraceError &e) {
            // A sample cut short leaves no entries or frames behind.
            samples_.truncate(index);
            used = end;
            throw inRecord("sample", index, end, e);
        }
        end = in.position();
    }
    r = in;
    used = end;
}

TraceError
TraceDecoder::inRecord(const char *kind, std::uint64_t index,
                       std::size_t at, const TraceError &e) const
{
    if (e.kind() == TraceErrorKind::Truncated)
        return e;
    const std::uint64_t payloadOffset =
        consumed_ + at - wire::kFileHeaderBytes;
    return TraceError(wire::recordContext(
                          kind, index,
                          static_cast<std::size_t>(payloadOffset)) +
                          e.what(),
                      e.kind());
}

void
TraceDecoder::noteEvents(std::size_t from)
{
    // Every begin type is even and its end the next odd value, so
    // the depth moves without a branch per event type.
    static_assert(static_cast<int>(EventType::DispatchEnd) == 1 &&
                  static_cast<int>(EventType::IntervalEnd) == 3 &&
                  static_cast<int>(EventType::GcEnd) == 5);
    std::int64_t open = openIntervals_;
    for (std::size_t i = from; i < events_.size(); ++i) {
        open += 1 - 2 * (static_cast<int>(events_[i].type) & 1);
        if (open == 0) {
            closedEvents_ = i + 1;
            closedEndTime_ = events_[i].time;
        }
    }
    openIntervals_ = open;
}

void
TraceDecoder::finish(std::size_t trailing)
{
    if (samples_.entryCount() != counts_.sampleThreadTotal ||
        samples_.frames().size() != counts_.frameTotal) {
        throw TraceError(
            "sample totals disagree with the section header");
    }
    if (trailing > 0) {
        // All declared records are decoded but bytes follow; a
        // valid writer never produces this, so it cannot heal.
        throw TraceError("trailing garbage: " +
                         std::to_string(trailing) +
                         " bytes after trace payload");
    }
    if (hasher_.digest() != declaredChecksum_)
        throw TraceError("trace payload checksum mismatch");
}

std::uint64_t
TraceDecoder::recordsDecoded() const
{
    const std::size_t strings = stage_ > Stage::Strings
                                    ? stringTable_.size()
                                    : stringList_.size();
    return threads_.size() + strings + events_.size() +
           samples_.size();
}

std::size_t
TraceDecoder::cutEvents() const
{
    // Once the event section is complete (Samples/Complete stage)
    // the whole stream is included; mid-events only the closed
    // prefix is safe for the session builder.
    return stage_ >= Stage::Samples
               ? events_.size()
               : static_cast<std::size_t>(closedEvents_);
}

TraceMeta
TraceDecoder::cutMeta() const
{
    TraceMeta meta = meta_;
    if (!complete()) {
        // The declared endTime is the writer's final value; while
        // records are still arriving, report only the time span the
        // decoded prefix actually covers.
        const TimeNs lastSample =
            samples_.empty() ? 0 : samples_.time(samples_.size() - 1);
        meta.endTime =
            std::max({meta.startTime, closedEndTime_, lastSample});
    }
    return meta;
}

Trace
TraceDecoder::snapshot() const
{
    if (!analyzable()) {
        throw TraceError(
            "trace snapshot requested before threads and strings "
            "are decoded",
            TraceErrorKind::Truncated);
    }
    Trace t;
    t.meta = cutMeta();
    t.threads = threads_;
    t.strings = stringTable_;
    t.events.assign(events_.begin(),
                    events_.begin() +
                        static_cast<std::ptrdiff_t>(cutEvents()));
    t.samples = samples_;
    return t;
}

Trace
TraceDecoder::takeTrace()
{
    lag_assert(complete(), "takeTrace() before the trace is complete");
    return Trace{std::move(meta_), std::move(threads_),
                 std::move(events_), std::move(samples_),
                 std::move(stringTable_)};
}

} // namespace lag::trace
