#include "tailer.hh"

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
    decoder_ = TraceDecoder();
    totalRead_ = 0;
    buffer_.clear();
    fingerprint_.clear();
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
        return decoder_.complete() ? TailStatus::Complete
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
        return decoder_.complete() ? TailStatus::Complete
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

    if (decoder_.complete()) {
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

    std::uint64_t used = 0;
    if (readAny) {
        // Drop the consumed prefix once per poll (erasing each record
        // from the front would make one poll of n bytes cost O(n^2)),
        // and on the way out of a throw too, so the carry never holds
        // decoded records.
        const std::uint64_t before = decoder_.consumed();
        try {
            decoder_.feed(buffer_, /*whole=*/false);
        } catch (const TraceError &) {
            buffer_.erase(0, decoder_.consumed() - before);
            throw;
        }
        used = decoder_.consumed() - before;
        buffer_.erase(0, used);
    }
    if (restarted)
        return TailStatus::Restarted;
    if (decoder_.complete())
        return TailStatus::Complete;
    return used > 0 ? TailStatus::Advanced : TailStatus::Waiting;
}

} // namespace lag::trace
