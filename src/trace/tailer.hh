/**
 * @file
 * Incremental reader for a trace file that is still being written.
 *
 * TraceTailer follows one trace file on disk. Each poll() re-stats
 * the file, reads whatever has been appended since the last poll
 * onto a carry buffer, and feeds that buffer to its TraceDecoder
 * (decoder.hh), which decodes every whole record and leaves a
 * half-flushed one at the tail for the next poll. The decoded parts,
 * the cut and the completion checks all live in the decoder, the
 * same one the batch reader runs; decoded() hands it out.
 *
 * Rewrite/truncation detection: the tailer remembers a fingerprint
 * of the first bytes it read. If the file shrinks below what was
 * read, or the fingerprint no longer matches, the file was truncated
 * or atomically replaced; the tailer resets to byte zero and reports
 * Restarted so callers drop derived state.
 */

#ifndef LAG_TRACE_TAILER_HH
#define LAG_TRACE_TAILER_HH

#include <cstdint>
#include <string>

#include "decoder.hh"
#include "trace.hh"

namespace lag::trace
{

/** What one TraceTailer::poll() observed. */
enum class TailStatus : std::uint8_t
{
    /** No new complete record: the file is missing, has not grown,
     * or only a partial record has been flushed so far. */
    Waiting = 0,

    /** At least one new record was decoded this poll. */
    Advanced = 1,

    /** The whole trace is decoded and checksum-verified; snapshots
     * are now byte-identical to the batch reader's Trace. */
    Complete = 2,

    /** The file shrank or its head changed: it was truncated or
     * rewritten. The tailer reset and re-read from byte zero (the
     * poll also consumed whatever the new file already holds).
     * Callers must discard state derived from earlier snapshots. */
    Restarted = 3,
};

/** Human-readable name of a TailStatus. */
const char *tailStatusName(TailStatus status);

/** Follows one growing trace file; see the file comment. */
class TraceTailer
{
  public:
    explicit TraceTailer(std::string path);

    /**
     * Read newly appended bytes and decode as many whole records as
     * they complete. Throws TraceError (kind Corrupt) when the file
     * can never become valid (see TraceDecoder::feed), or when it
     * grows after completion.
     */
    TailStatus poll();

    /** Path this tailer follows. */
    const std::string &path() const { return path_; }

    /** The decoder: the decoded parts, the cut and completion. */
    const TraceDecoder &decoded() const { return decoder_; }

    /** Total file bytes consumed by the decoder so far. */
    std::uint64_t cursor() const { return decoder_.consumed(); }

    /** File size observed by the last poll(). */
    std::uint64_t knownSize() const { return knownSize_; }

    /** Bytes the file holds that the decoder has not consumed. */
    std::uint64_t
    backlogBytes() const
    {
        return knownSize_ > cursor() ? knownSize_ - cursor() : 0;
    }

    /** Times the tailer detected truncation/rewrite and reset. */
    std::uint64_t restarts() const { return restarts_; }

  private:
    void reset();

    std::string path_;
    TraceDecoder decoder_;
    std::uint64_t totalRead_ = 0; ///< file bytes read (>= cursor())
    std::uint64_t knownSize_ = 0;
    std::string buffer_; ///< read-but-unconsumed carry (partial tail)
    std::string fingerprint_;
    std::uint64_t restarts_ = 0;
};

} // namespace lag::trace

#endif // LAG_TRACE_TAILER_HH
