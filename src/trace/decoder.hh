/**
 * @file
 * The one trace record decoder, behind both the batch reader
 * (deserializeTrace, io.hh) and the tail reader (TraceTailer,
 * tailer.hh).
 *
 * TraceDecoder is fed a trace file's bytes in order, in pieces of
 * any size. Each feed() advances a sectioned state machine (file
 * header → counts → meta → threads → strings → events → samples)
 * over every record the bytes complete and returns the bytes it
 * consumed. A record cut short at the end of the bytes is left for
 * the next feed, which starts with it: the Truncated/Corrupt split
 * on TraceError (trace.hh) is what tells "not written yet" apart
 * from damage. Corrupt errors throw.
 *
 * A feed flagged `whole` holds everything the file has left. Only
 * then can a declared count be judged against the bytes behind it,
 * so only then do the plausibility checks run
 * (wire::checkSectionCount, SampleBounds::completeBuffer) and the
 * sections reserve exactly their declared counts; otherwise the
 * counts come from a file that may be mid-write (or hostile), and
 * pre-sizing trusts them only up to kReserveCap records.
 *
 * Samples decode straight into the flat SampleColumns (trace.hh):
 * three appends per sampled thread and one copy of its frames, with
 * no allocation per sample. A whole feed sizes the sample, entry and
 * frame columns once from the section header's sampleCount,
 * sampleThreadTotal and frameTotal.
 *
 * When the last declared sample is decoded the decoder checks the
 * sample totals against the section header, rejects trailing bytes
 * and verifies the payload CRC32C (folded once per feed over the
 * bytes it consumed). Then complete() holds and the parts are
 * exactly the bytes of the Trace serializeTrace was given. The
 * decoder checks each record's wire form (enum ranges, counts) but
 * not its meaning (time order, thread roster, symbol range): that is
 * TraceValidator's one pass per record, which the session builder
 * runs (and deserializeTrace, for a caller that wants a Trace).
 *
 * Cut semantics: the decoder's *cut* is a view that core's session
 * builder accepts at any point mid-stream. Because the builder
 * rejects unterminated intervals, the cut trims the event stream to
 * its longest *closed prefix* — the longest run after which every
 * begin (dispatch, interval, GC) has its matching end — and clamps
 * meta.endTime to the last closed boundary while the trace is
 * incomplete. Once the trace is complete the cut is the whole
 * decoded Trace, with the declared metadata untouched. That is the
 * ingest pipeline's batch-equivalence contract.
 *
 * The cut is handed out by index into the columns the decoder
 * already holds (events()[0, cutEvents()), samples()), so a follower
 * feeds its session builder only the records past its own cursor and
 * nothing is copied on the way. snapshot() assembles the same cut as a Trace (a
 * full copy), the reference the tests compare against.
 */

#ifndef LAG_TRACE_DECODER_HH
#define LAG_TRACE_DECODER_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hh"
#include "util/hash.hh"
#include "wire.hh"

namespace lag::trace
{

/** Decodes one trace file fed in order; see the file comment. */
class TraceDecoder
{
  public:
    /**
     * Decode every record @p bytes complete and return the bytes
     * consumed; the next feed starts with the rest. @p whole: the
     * bytes are everything the file has left. Throws TraceError
     * (kind Corrupt) when the file can never become valid: bad
     * magic, unknown enum values, implausible counts, checksum
     * mismatch, trailing garbage.
     */
    std::size_t feed(std::string_view bytes, bool whole);

    /** True once the whole trace is decoded and its checksum
     * verified. */
    bool complete() const { return stage_ == Stage::Complete; }

    /** True once the meta record is decoded (meta() is valid). */
    bool hasMeta() const { return stage_ >= Stage::Threads; }

    /**
     * True once threads and the string table are fully decoded —
     * from then on the cut is an analyzable trace (possibly with an
     * empty closed event prefix).
     */
    bool analyzable() const { return stage_ >= Stage::Events; }

    /** File bytes consumed so far. */
    std::uint64_t consumed() const { return consumed_; }

    /** Records decoded: threads + strings + events + samples. */
    std::uint64_t recordsDecoded() const;

    /** Session metadata as written at the head of the file. */
    const TraceMeta &meta() const { return meta_; }

    /** @name The cut by reference (see file comment); valid once
     * analyzable(), until the next feed(). @{ */
    const std::vector<TraceThread> &threads() const { return threads_; }
    const StringTable &strings() const { return stringTable_; }
    const std::vector<TraceEvent> &events() const { return events_; }
    const SampleColumns &samples() const { return samples_; }

    /** Events in the cut: the closed prefix mid-events, the whole
     * stream once the event section is complete. */
    std::size_t cutEvents() const;

    /** The metadata of the cut: meta() with endTime clamped to the
     * time the decoded records cover while the trace is incomplete. */
    TraceMeta cutMeta() const;
    /** @} */

    /**
     * Assemble the current cut as a Trace (see file comment).
     * Requires analyzable(); throws TraceError otherwise.
     */
    Trace snapshot() const;

    /** Move the decoded trace out, its records not yet validated
     * (see the file comment). Requires complete(). */
    Trace takeTrace();

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

    void readFileHeader(ByteReader &r);
    void checkCounts(std::size_t remaining) const;
    // Each section decodes its records in one loop; @p used tracks
    // the end of the last whole record.
    void decodeThreads(ByteReader &r, std::size_t &used);
    void decodeStrings(ByteReader &r, std::size_t &used);
    void decodeEvents(ByteReader &r, std::size_t &used);
    /** Pre-size the sample columns; @p remaining bytes follow the
     * events. */
    void reserveSamples(std::size_t remaining, bool whole);
    void decodeSamples(ByteReader &r, bool whole, std::size_t &used);
    /** Advance the closed prefix over the events from @p from on. */
    void noteEvents(std::size_t from);
    /** @p e raised in the @p index-th @p kind record, which starts
     * at feed offset @p at; Corrupt errors gain the record context. */
    TraceError inRecord(const char *kind, std::uint64_t index,
                        std::size_t at, const TraceError &e) const;
    /** Verify the decoded trace; @p trailing bytes follow it. */
    void finish(std::size_t trailing);

    Stage stage_ = Stage::FileHeader;
    std::uint64_t consumed_ = 0;

    Crc32cHasher hasher_; ///< CRC32C over consumed payload bytes
    std::uint64_t declaredChecksum_ = 0;
    wire::SectionHeader counts_;

    TraceMeta meta_;
    std::vector<TraceThread> threads_;
    std::vector<std::string> stringList_; ///< until the section ends
    StringTable stringTable_;
    std::vector<TraceEvent> events_;
    SampleColumns samples_;

    std::int64_t openIntervals_ = 0; ///< begins minus ends so far
    std::uint64_t closedEvents_ = 0; ///< closed-prefix length
    TimeNs closedEndTime_ = 0;       ///< time at the closed boundary
};

} // namespace lag::trace

#endif // LAG_TRACE_DECODER_HH
