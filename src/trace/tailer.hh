/**
 * @file
 * Incremental reader for a trace file that is still being written.
 *
 * TraceTailer follows one trace file on disk, decoding records as
 * their bytes land. Each poll() re-stats the file, reads whatever
 * has been appended since the last poll, and advances a sectioned
 * decode state machine (header → counts → meta → threads → strings
 * → events → samples) one whole record at a time. A half-flushed
 * record at the tail is left in the carry buffer and retried on the
 * next poll — the Truncated/Corrupt split on TraceError (trace.hh)
 * is what tells retryable incompleteness apart from damage.
 *
 * Cut semantics: the tailer's *cut* is a view that core's session
 * builder accepts at any point mid-stream. Because the builder
 * rejects unterminated intervals, the cut trims the event stream to
 * its longest *closed prefix* — the longest run after which every
 * begin (dispatch, interval, GC) has its matching end — and clamps
 * meta.endTime to the last closed boundary while the trace is
 * incomplete. Once the final byte lands, the cut is byte-for-byte
 * the same Trace the batch reader produces: the sections are
 * complete, the event stream is balanced, and the declared metadata
 * is used untouched. That is the ingest pipeline's
 * batch-equivalence contract.
 *
 * The cut is handed out by index into the vectors the tailer already
 * holds (events()[0, cutEvents()), samples()), so a follower feeds
 * its session builder only the records past its own cursor and
 * nothing is copied. snapshot() assembles the same cut as a Trace
 * (a full copy), the reference the tests compare against.
 *
 * Rewrite/truncation detection: the tailer remembers a fingerprint
 * of the first bytes it consumed. If the file shrinks below the
 * consumed cursor, or the fingerprint no longer matches, the file
 * was truncated or atomically replaced; the tailer resets to byte
 * zero and reports Restarted so callers drop derived state.
 *
 * The payload checksum is folded incrementally over consumed bytes,
 * so completion verifies the same FNV-1a digest as the batch reader
 * without ever holding the whole file in memory.
 */

#ifndef LAG_TRACE_TAILER_HH
#define LAG_TRACE_TAILER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hh"
#include "util/hash.hh"
#include "wire.hh"

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
     * can never become valid: bad magic, unknown enum values,
     * implausible counts, checksum mismatch, trailing garbage.
     */
    TailStatus poll();

    /** Path this tailer follows. */
    const std::string &path() const { return path_; }

    /** True once the entire trace has been decoded and verified. */
    bool complete() const { return stage_ == Stage::Complete; }

    /**
     * True once threads and the string table are fully decoded —
     * from then on snapshot() yields an analyzable Trace (possibly
     * with an empty closed event prefix).
     */
    bool analyzable() const { return stage_ >= Stage::Events; }

    /**
     * Assemble the current cut as a Trace (see file comment).
     * Requires analyzable(); throws TraceError otherwise.
     */
    Trace snapshot() const;

    /** @name The cut by reference (see file comment); valid once
     * analyzable(), until the next poll(). @{ */
    const std::vector<TraceThread> &threads() const { return threads_; }
    const StringTable &strings() const { return stringTable_; }
    const std::vector<TraceEvent> &events() const { return events_; }
    const std::vector<TraceSample> &samples() const
    {
        return samples_;
    }

    /** Events in the cut: the closed prefix mid-events, the whole
     * stream once the event section is complete. */
    std::size_t cutEvents() const;

    /** The metadata of the cut: meta() with endTime clamped to the
     * time the decoded records cover while the trace is incomplete. */
    TraceMeta cutMeta() const;
    /** @} */

    /** True once the meta record is decoded (meta() is valid). */
    bool hasMeta() const { return stage_ >= Stage::Threads; }

    /** Session metadata as written at the head of the file. Valid
     * once hasMeta(); cheap (no snapshot assembly). */
    const TraceMeta &meta() const { return meta_; }

    /** Total file bytes consumed by the decoder so far. */
    std::uint64_t cursor() const { return consumed_; }

    /** File size observed by the last poll(). */
    std::uint64_t knownSize() const { return knownSize_; }

    /** Bytes the file holds that the decoder has not consumed. */
    std::uint64_t
    backlogBytes() const
    {
        return knownSize_ > consumed_ ? knownSize_ - consumed_ : 0;
    }

    /** Records decoded: threads + strings + events + samples. */
    std::uint64_t recordsDecoded() const;

    /** Times the tailer detected truncation/rewrite and reset. */
    std::uint64_t restarts() const { return restarts_; }

  private:
    enum class Stage : std::uint8_t
    {
        FileHeader = 0,
        SectionHeader = 1,
        Meta = 2,
        Threads = 3,
        Strings = 4,
        Events = 5,
        Samples = 6,
        Complete = 7,
    };

    void reset();
    bool readAppended();
    bool drive();
    bool step(ByteReader &r);
    void noteEvent(const TraceEvent &event);
    /** Verify the completed trace; @p unconsumed is the carry
     * left after the last declared record. */
    void finalize(std::size_t unconsumed);

    std::string path_;

    Stage stage_ = Stage::FileHeader;
    std::uint64_t consumed_ = 0;  ///< file bytes decoded
    std::uint64_t totalRead_ = 0; ///< file bytes read (>= consumed_)
    std::uint64_t knownSize_ = 0;
    std::string buffer_; ///< read-but-unconsumed carry (partial tail)
    std::string fingerprint_;

    Fnv1aHasher hasher_; ///< FNV-1a over consumed payload bytes
    std::uint64_t declaredChecksum_ = 0;
    wire::SectionHeader counts_;

    TraceMeta meta_;
    std::vector<TraceThread> threads_;
    std::vector<std::string> stringList_;
    StringTable stringTable_; ///< built when the string section ends
    std::vector<TraceEvent> events_;
    std::vector<TraceSample> samples_;

    std::uint64_t threadsDecoded_ = 0;
    std::uint64_t stringsDecoded_ = 0;
    std::uint64_t eventsDecoded_ = 0;
    std::uint64_t samplesDecoded_ = 0;
    std::uint64_t sampleThreadTotal_ = 0;
    std::uint64_t frameTotal_ = 0;

    std::int64_t openIntervals_ = 0; ///< begins minus ends so far
    std::uint64_t closedEvents_ = 0; ///< closed-prefix length
    TimeNs closedEndTime_ = 0;       ///< time at the closed boundary
    TimeNs lastSampleTime_ = 0;

    std::uint64_t restarts_ = 0;
};

} // namespace lag::trace

#endif // LAG_TRACE_TAILER_HH
