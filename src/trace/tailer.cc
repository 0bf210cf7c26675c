#include "tailer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>

namespace lag::trace
{

namespace
{

/**
 * Head bytes remembered to detect in-place rewrites. 64 bytes spans
 * the file header plus the section counts, so two different traces
 * of the same length are told apart by their counts alone.
 */
constexpr std::size_t kFingerprintBytes = 64;

/**
 * Cap for speculative reserves. Declared counts come from a file
 * that may be mid-write (or hostile), so pre-sizing trusts them
 * only up to this many records; std::vector growth covers honest
 * larger traces at amortized cost.
 */
constexpr std::uint64_t kReserveCap = 64 * 1024;

std::uint64_t
cappedReserve(std::uint64_t declared)
{
    return std::min(declared, kReserveCap);
}

} // namespace

const char *
tailStatusName(TailStatus status)
{
    switch (status) {
    case TailStatus::Waiting:
        return "waiting";
    case TailStatus::Advanced:
        return "advanced";
    case TailStatus::Complete:
        return "complete";
    case TailStatus::Restarted:
        return "restarted";
    }
    return "unknown";
}

TraceTailer::TraceTailer(std::string path) : path_(std::move(path)) {}

void
TraceTailer::reset()
{
    stage_ = Stage::FileHeader;
    consumed_ = 0;
    totalRead_ = 0;
    buffer_.clear();
    fingerprint_.clear();
    hasher_ = Fnv1aHasher();
    declaredChecksum_ = 0;
    counts_ = wire::SectionHeader();
    meta_ = TraceMeta();
    threads_.clear();
    stringList_.clear();
    stringTable_ = StringTable();
    events_.clear();
    samples_.clear();
    threadsDecoded_ = 0;
    stringsDecoded_ = 0;
    eventsDecoded_ = 0;
    samplesDecoded_ = 0;
    sampleThreadTotal_ = 0;
    frameTotal_ = 0;
    openIntervals_ = 0;
    closedEvents_ = 0;
    closedEndTime_ = 0;
    lastSampleTime_ = 0;
}

TailStatus
TraceTailer::poll()
{
    std::error_code ec;
    const std::uint64_t size =
        std::filesystem::file_size(path_, ec);
    if (ec) {
        // Missing file: either the writer has not created it yet or
        // it is mid-rename. Both resolve by waiting; the fingerprint
        // check below catches a replacement once it appears.
        return complete() ? TailStatus::Complete
                          : TailStatus::Waiting;
    }
    knownSize_ = size;

    bool restarted = false;
    if (size < totalRead_) {
        // The file lost bytes we already read: truncated or
        // replaced by a shorter file.
        reset();
        ++restarts_;
        restarted = true;
    }

    std::ifstream in(path_, std::ios::binary);
    if (!in)
        return complete() ? TailStatus::Complete
                          : TailStatus::Waiting;

    // Rewrite detection: the head bytes we consumed must still be
    // the head bytes on disk. (A same-length rewrite with an
    // identical head is indistinguishable and goes undetected;
    // the checksum still rejects a spliced tail at completion.)
    if (!restarted && !fingerprint_.empty()) {
        std::string head(fingerprint_.size(), '\0');
        in.read(head.data(),
                static_cast<std::streamsize>(head.size()));
        head.resize(static_cast<std::size_t>(in.gcount()));
        if (head != fingerprint_) {
            reset();
            ++restarts_;
            restarted = true;
        }
        in.clear();
    }

    if (complete()) {
        if (!restarted && size > totalRead_) {
            throw TraceError("trailing garbage: trace file grew by " +
                             std::to_string(size - totalRead_) +
                             " bytes after completion");
        }
        if (!restarted)
            return TailStatus::Complete;
    }

    bool readAny = false;
    if (size > totalRead_) {
        // Read straight onto the end of the carry buffer.
        const std::size_t base = buffer_.size();
        buffer_.resize(base +
                       static_cast<std::size_t>(size - totalRead_));
        in.seekg(static_cast<std::streamoff>(totalRead_));
        in.read(buffer_.data() + base,
                static_cast<std::streamsize>(buffer_.size() - base));
        const auto got = static_cast<std::size_t>(in.gcount());
        buffer_.resize(base + got);
        if (got > 0) {
            if (fingerprint_.size() < kFingerprintBytes) {
                fingerprint_.append(
                    buffer_, base,
                    kFingerprintBytes - fingerprint_.size());
            }
            totalRead_ += got;
            readAny = true;
        }
    }

    const bool advanced = readAny ? drive() : false;
    if (restarted)
        return TailStatus::Restarted;
    if (complete())
        return TailStatus::Complete;
    return advanced ? TailStatus::Advanced : TailStatus::Waiting;
}

bool
TraceTailer::drive()
{
    // Decode by offset and drop the consumed prefix once per call;
    // erasing each record from the front would make one poll of n
    // bytes cost O(n^2).
    std::size_t offset = 0;
    bool any = false;
    while (stage_ != Stage::Complete) {
        ByteReader r{std::string_view(buffer_).substr(offset)};
        const Stage before = stage_;
        try {
            if (!step(r))
                break;
        } catch (const TraceError &e) {
            if (e.kind() == TraceErrorKind::Truncated)
                break; // partial record at the tail; retry later
            // Keep buffer_ in step with consumed_ even on the way
            // out, so the carry never holds decoded records.
            buffer_.erase(0, offset);
            throw;
        }
        const std::size_t used = r.position();
        if (before != Stage::FileHeader && used > 0)
            hasher_.addBytes(buffer_.data() + offset, used);
        offset += used;
        consumed_ += used;
        any = true;
    }
    buffer_.erase(0, offset);
    return any;
}

bool
TraceTailer::step(ByteReader &r)
{
    switch (stage_) {
    case Stage::FileHeader: {
        for (char expected : wire::kMagic) {
            if (r.u8() != static_cast<std::uint8_t>(expected))
                throw TraceError(
                    "bad magic: not a LagAlyzer trace file");
        }
        const std::uint32_t version = r.u32();
        if (version != kFormatVersion) {
            throw TraceError("unsupported trace format version " +
                             std::to_string(version) +
                             " (expected " +
                             std::to_string(kFormatVersion) + ")");
        }
        declaredChecksum_ = r.u64();
        stage_ = Stage::SectionHeader;
        return true;
    }
    case Stage::SectionHeader:
        counts_ = wire::readSectionHeader(r);
        stage_ = Stage::Meta;
        return true;
    case Stage::Meta:
        meta_ = wire::readMeta(r);
        threads_.reserve(
            static_cast<std::size_t>(cappedReserve(counts_.threadCount)));
        stage_ = Stage::Threads;
        return true;
    case Stage::Threads: {
        if (threadsDecoded_ == counts_.threadCount) {
            stringList_.reserve(static_cast<std::size_t>(
                cappedReserve(counts_.stringCount)));
            stage_ = Stage::Strings;
            return step(r);
        }
        TraceThread thread;
        thread.id = r.u32();
        thread.name = r.str();
        thread.isGui = r.u8() != 0;
        threads_.push_back(std::move(thread));
        ++threadsDecoded_;
        return true;
    }
    case Stage::Strings:
        if (stringsDecoded_ == counts_.stringCount) {
            stringTable_ =
                StringTable::fromList(std::move(stringList_));
            stringList_.clear();
            events_.reserve(static_cast<std::size_t>(
                cappedReserve(counts_.eventCount)));
            stage_ = Stage::Events;
            return step(r);
        }
        stringList_.push_back(r.str());
        ++stringsDecoded_;
        return true;
    case Stage::Events: {
        if (eventsDecoded_ == counts_.eventCount) {
            samples_.reserve(static_cast<std::size_t>(
                cappedReserve(counts_.sampleCount)));
            stage_ = Stage::Samples;
            return step(r);
        }
        try {
            events_.push_back(wire::readEvent(r));
        } catch (const TraceError &e) {
            if (e.kind() == TraceErrorKind::Truncated)
                throw;
            throw TraceError(
                wire::recordContext("event", eventsDecoded_,
                                    static_cast<std::size_t>(
                                        consumed_ -
                                        wire::kFileHeaderBytes)) +
                    e.what(),
                e.kind());
        }
        ++eventsDecoded_;
        noteEvent(events_.back());
        return true;
    }
    case Stage::Samples: {
        if (samplesDecoded_ == counts_.sampleCount) {
            finalize(r.remaining());
            stage_ = Stage::Complete;
            return true;
        }
        TraceSample sample;
        try {
            sample = wire::readSample(
                r, {counts_.sampleThreadTotal, counts_.frameTotal,
                    /*completeBuffer=*/false});
        } catch (const TraceError &e) {
            if (e.kind() == TraceErrorKind::Truncated)
                throw;
            throw TraceError(
                wire::recordContext("sample", samplesDecoded_,
                                    static_cast<std::size_t>(
                                        consumed_ -
                                        wire::kFileHeaderBytes)) +
                    e.what(),
                e.kind());
        }
        sampleThreadTotal_ += sample.threads.size();
        for (const auto &entry : sample.threads)
            frameTotal_ += entry.frames.size();
        lastSampleTime_ = sample.time;
        samples_.push_back(std::move(sample));
        ++samplesDecoded_;
        return true;
    }
    case Stage::Complete:
        return false;
    }
    return false;
}

void
TraceTailer::noteEvent(const TraceEvent &event)
{
    switch (event.type) {
    case EventType::DispatchBegin:
    case EventType::IntervalBegin:
    case EventType::GcBegin:
        ++openIntervals_;
        break;
    case EventType::DispatchEnd:
    case EventType::IntervalEnd:
    case EventType::GcEnd:
        --openIntervals_;
        break;
    }
    if (openIntervals_ == 0) {
        closedEvents_ = eventsDecoded_;
        closedEndTime_ = event.time;
    }
}

void
TraceTailer::finalize(std::size_t unconsumed)
{
    if (sampleThreadTotal_ != counts_.sampleThreadTotal ||
        frameTotal_ != counts_.frameTotal) {
        throw TraceError(
            "sample totals disagree with the section header");
    }
    if (unconsumed > 0) {
        // All declared records are decoded but bytes follow; a
        // valid writer never produces this, so it cannot heal.
        throw TraceError("trailing garbage: " +
                         std::to_string(unconsumed) +
                         " bytes after trace payload");
    }
    if (hasher_.digest() != declaredChecksum_)
        throw TraceError("trace payload checksum mismatch");
    // Trace::validate() over the decoded parts, without assembling
    // a copy of them.
    TraceValidator::checkMeta(meta_);
    TraceValidator validator(meta_.startTime, threads_,
                             stringTable_.size());
    for (const TraceEvent &event : events_)
        validator.checkEvent(event);
    for (const TraceSample &sample : samples_)
        validator.checkSample(sample);
}

std::size_t
TraceTailer::cutEvents() const
{
    // Once the event section is complete (Samples/Complete stage)
    // the whole stream is included; mid-events only the closed
    // prefix is safe for the session builder.
    return stage_ >= Stage::Samples
               ? events_.size()
               : static_cast<std::size_t>(closedEvents_);
}

TraceMeta
TraceTailer::cutMeta() const
{
    TraceMeta meta = meta_;
    if (!complete()) {
        // The declared endTime is the writer's final value; while
        // records are still arriving, report only the time span the
        // decoded prefix actually covers.
        meta.endTime = std::max(
            {meta.startTime, closedEndTime_, lastSampleTime_});
    }
    return meta;
}

Trace
TraceTailer::snapshot() const
{
    if (!analyzable()) {
        throw TraceError(
            "tailer snapshot requested before threads and strings "
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

std::uint64_t
TraceTailer::recordsDecoded() const
{
    return threadsDecoded_ + stringsDecoded_ + eventsDecoded_ +
           samplesDecoded_;
}

} // namespace lag::trace
