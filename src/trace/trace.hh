/**
 * @file
 * In-memory representation of a LiLa-style latency trace.
 *
 * A trace records one interactive session with one application: the
 * thread roster, a time-ordered stream of boundary events (episode
 * dispatch begin/end, interval begin/end, GC begin/end), a
 * time-ordered stream of call-stack samples, and session metadata
 * including the count of episodes the profiler filtered out for
 * being shorter than its threshold (paper §IV.A, column "< 3ms").
 *
 * All symbols (class and method names) are interned in a per-trace
 * string table; records carry SymbolIds.
 *
 * The samples are held as flat columns (SampleColumns), not as one
 * object per sample: the decoder appends to them straight from the
 * wire, the session takes them over without a copy, and every reader
 * walks them by index.
 *
 * A Trace is what the profiler writes and what the tests compare
 * against. Its records are checked once per load by TraceValidator:
 * in the session builder, or by Trace::validate() for a caller that
 * reads a Trace without building a session.
 */

#ifndef LAG_TRACE_TRACE_HH
#define LAG_TRACE_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/types.hh"

namespace lag::trace
{

/**
 * How a TraceError should be interpreted by a reader that may be
 * looking at a file another process is still appending to.
 *
 * The distinction exists for the tail-reading path (tailer.hh): a
 * half-flushed final record raises exactly the same "need more
 * bytes" shape as genuine truncation damage, and only the producer
 * knows which it is. Truncated therefore means "retry once more
 * bytes exist"; Corrupt means "no amount of further appending can
 * repair this file" (bad magic, unknown enum value, checksum or
 * structural mismatch) and the reader must abort.
 */
enum class TraceErrorKind : std::uint8_t
{
    Corrupt = 0,   ///< definitely malformed; retrying cannot help
    Truncated = 1, ///< ran out of bytes; possibly still being written
};

/** Error raised by trace validation and file parsing. */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &msg,
                        TraceErrorKind kind = TraceErrorKind::Corrupt)
        : std::runtime_error(msg), kind_(kind)
    {}

    /** Retry-vs-abort classification (see TraceErrorKind). */
    TraceErrorKind kind() const { return kind_; }

  private:
    TraceErrorKind kind_ = TraceErrorKind::Corrupt;
};

/** Interned strings; SymbolId 0 is always the empty string. */
class StringTable
{
  public:
    StringTable();

    /** Intern @p s, returning its stable id. */
    SymbolId intern(std::string_view s);

    /** Resolve an id. Throws TraceError for out-of-range ids. */
    const std::string &lookup(SymbolId id) const;

    /** Number of interned strings (including the empty string). */
    std::size_t size() const { return strings_.size(); }

    /** All strings in id order (serialization support). */
    const std::vector<std::string> &all() const { return strings_; }

    /** Rebuild from a deserialized list. */
    static StringTable fromList(std::vector<std::string> strings);

  private:
    /** Hashes std::string and std::string_view alike, so intern()
     * looks a key up without building a string. */
    struct KeyHash
    {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const noexcept
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::vector<std::string> strings_;
    /** String -> first id holding it. Built by the first intern(),
     * so a decoded table that is only looked up never pays for it
     * (nor do its copies). */
    std::unordered_map<std::string, SymbolId, KeyHash, std::equal_to<>>
        index_;
};

/** Trace-level interval kinds (Table I, minus Dispatch and GC which
 * have dedicated record types). */
enum class IntervalKind : std::uint8_t
{
    Listener = 0,
    Paint = 1,
    Native = 2,
    Async = 3,
};

/** Human-readable name of an interval kind. */
const char *intervalKindName(IntervalKind kind);

/** GC kind as recorded in traces. */
enum class TraceGcKind : std::uint8_t
{
    Minor = 0,
    Major = 1,
};

/** Types of boundary records in the event stream. */
enum class EventType : std::uint8_t
{
    DispatchBegin = 0,
    DispatchEnd = 1,
    IntervalBegin = 2,
    IntervalEnd = 3,
    GcBegin = 4,
    GcEnd = 5,
};

/** Human-readable name of an event type. */
const char *eventTypeName(EventType type);

/** One thread known to the trace. */
struct TraceThread
{
    ThreadId id = 0;
    std::string name;
    bool isGui = false;
};

/** One boundary record. Fields beyond (type, thread, time) are only
 * meaningful for the types that use them. */
struct TraceEvent
{
    EventType type = EventType::DispatchBegin;
    ThreadId thread = 0;
    TimeNs time = 0;
    IntervalKind kind = IntervalKind::Listener; ///< Interval* only
    SymbolId classSym = 0;                      ///< IntervalBegin only
    SymbolId methodSym = 0;                     ///< IntervalBegin only
    TraceGcKind gcKind = TraceGcKind::Minor;    ///< GcBegin only
};

/** Sampled thread state (mirrors jvm::SampleState numerically). */
enum class TraceThreadState : std::uint8_t
{
    Runnable = 0,
    Blocked = 1,
    Waiting = 2,
    Sleeping = 3,
};

/** Human-readable name of a sampled thread state. */
const char *traceThreadStateName(TraceThreadState state);

/** One frame of a sampled stack. */
struct SampleFrame
{
    SymbolId classSym = 0;
    SymbolId methodSym = 0;

    bool operator==(const SampleFrame &) const = default;
};

/**
 * The time-ordered call-stack samples of a trace, held as flat
 * columns: per sample its time and the offset of its first entry;
 * per entry (one sampled thread of one sample) its thread, state and
 * the offset of its first frame; and one frame array for every
 * entry's stack.  A record's range ends where the next record's
 * begins (or at the end of its column), so a sample or entry is
 * written once when it is added and appending never rewrites an
 * earlier one.  However many samples a trace holds, they live in six
 * arrays.
 */
class SampleColumns
{
  public:
    /** No such entry (findEntry). */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** @name Samples. @{ */
    std::size_t size() const { return times_.size(); }
    bool empty() const { return times_.empty(); }
    TimeNs time(std::size_t s) const { return times_[s]; }
    /** Every sample's time, in sample order. */
    const std::vector<TimeNs> &times() const { return times_; }
    /** @} */

    /** @name Entries: sample @p s owns [entryBegin(s), entryEnd(s)).
     * @{ */
    std::size_t entryCount() const { return threads_.size(); }
    std::size_t entryBegin(std::size_t s) const { return firstEntry_[s]; }
    std::size_t
    entryEnd(std::size_t s) const
    {
        return s + 1 < size() ? firstEntry_[s + 1] : threads_.size();
    }
    ThreadId thread(std::size_t e) const { return threads_[e]; }
    TraceThreadState state(std::size_t e) const { return states_[e]; }
    /** Entry @p e's stack, innermost frame last. */
    std::span<const SampleFrame>
    stack(std::size_t e) const
    {
        return std::span(frames_).subspan(
            firstFrame_[e], frameOffset(e + 1) - firstFrame_[e]);
    }
    /** The first entry of sample @p s for @p thread, or npos. */
    std::size_t
    findEntry(std::size_t s, ThreadId thread) const
    {
        for (std::size_t e = entryBegin(s), end = entryEnd(s); e < end;
             ++e) {
            if (threads_[e] == thread)
                return e;
        }
        return npos;
    }
    /** @} */

    /** Every entry's frames, in entry order. */
    const std::vector<SampleFrame> &frames() const { return frames_; }

    /** @name Appending. @{ */
    /** Pre-size for this many more samples, entries and frames. */
    void reserve(std::size_t samples, std::size_t entries,
                 std::size_t frames);
    /** Start a sample; the entries added next belong to it. */
    void
    addSample(TimeNs time)
    {
        times_.push_back(time);
        firstEntry_.push_back(threads_.size());
    }
    /** Add an entry to the last sample; the frames added next are its
     * stack, outermost first. */
    void
    addEntry(ThreadId thread, TraceThreadState state)
    {
        threads_.push_back(thread);
        states_.push_back(state);
        firstFrame_.push_back(frames_.size());
    }
    void addFrame(SampleFrame frame) { frames_.push_back(frame); }
    /** Grow the last entry's stack by @p n frames and return them,
     * for the caller to fill. */
    SampleFrame *
    addFrames(std::size_t n)
    {
        frames_.resize(frames_.size() + n);
        return frames_.data() + frames_.size() - n;
    }
    /** Append samples [@p begin, @p end) of @p other. */
    void append(const SampleColumns &other, std::size_t begin,
                std::size_t end);
    /** Drop every sample from @p n on, with its entries and frames
     * (also those of a sample still being added). */
    void truncate(std::size_t n);
    /** @} */

    bool operator==(const SampleColumns &) const = default;

  private:
    /** Offset of entry @p e's first frame; the frame count for the
     * entry past the last. */
    std::size_t
    frameOffset(std::size_t e) const
    {
        return e < threads_.size() ? firstFrame_[e] : frames_.size();
    }

    std::vector<TimeNs> times_;
    std::vector<std::size_t> firstEntry_;
    std::vector<ThreadId> threads_;
    std::vector<TraceThreadState> states_;
    std::vector<std::size_t> firstFrame_;
    std::vector<SampleFrame> frames_;
};

/** Session metadata. */
struct TraceMeta
{
    std::string appName;
    std::uint32_t sessionIndex = 0;
    std::uint64_t seed = 0;
    TimeNs startTime = 0;
    TimeNs endTime = 0;
    DurationNs samplePeriod = 0;
    DurationNs filterThreshold = 0; ///< the profiler's 3 ms filter
    std::uint64_t filteredShortEpisodes = 0;

    /**
     * Total time spent handling requests, summed over all episodes
     * including the filtered short ones (which the profiler timed
     * before dropping). Feeds Table III's "In-Eps" column.
     */
    DurationNs totalInEpisodeTime = 0;
};

/** A complete session trace. */
struct Trace
{
    TraceMeta meta;
    std::vector<TraceThread> threads;
    std::vector<TraceEvent> events;   ///< time-ordered
    SampleColumns samples;            ///< time-ordered
    StringTable strings;

    /**
     * Structural sanity checks: monotone event and sample times,
     * symbol ids within range, thread ids known, sample states in
     * range. Throws TraceError on the first violation. (Interval
     * nesting is validated by the core tree builder, which has the
     * per-thread context to do it.) One TraceValidator pass: the
     * same checks, in the same order, as a session build makes.
     */
    void validate() const;
};

/**
 * Trace::validate() one record at a time, for a trace whose events
 * and samples arrive in pieces.  Each check throws the TraceError
 * validate() would raise for that record; events and samples keep
 * separate time cursors, since validate() checks all events before
 * any sample.
 */
class TraceValidator
{
  public:
    /** Throws TraceError on a duplicate thread id. */
    TraceValidator(TimeNs startTime,
                   const std::vector<TraceThread> &threads,
                   std::size_t stringCount);

    /** The meta check validate() makes first. */
    static void checkMeta(const TraceMeta &meta);

    // The per-record checks run once per event and sample of every
    // session build, so they are inline and their throws out of line.
    void
    checkEvent(const TraceEvent &event)
    {
        if (event.time < lastEvent_)
            fail("event stream not time-ordered");
        lastEvent_ = event.time;
        const bool is_gc = event.type == EventType::GcBegin ||
                           event.type == EventType::GcEnd;
        if (!is_gc && (!hasChecked_ || checked_ != event.thread)) {
            if (!known(event.thread))
                failThread("event", event.thread);
            checked_ = event.thread;
            hasChecked_ = true;
        }
        if (event.type == EventType::IntervalBegin) {
            checkSymbol(event.classSym);
            checkSymbol(event.methodSym);
        }
    }

    /** Check sample @p s of @p samples. */
    void
    checkSample(const SampleColumns &samples, std::size_t s)
    {
        const TimeNs time = samples.time(s);
        if (time < lastSample_)
            fail("sample stream not time-ordered");
        lastSample_ = time;
        for (std::size_t e = samples.entryBegin(s),
                         end = samples.entryEnd(s);
             e < end; ++e) {
            if (!known(samples.thread(e)))
                failThread("sample", samples.thread(e));
            if (static_cast<std::uint8_t>(samples.state(e)) > 3)
                fail("sample state out of range");
            for (const SampleFrame &frame : samples.stack(e)) {
                checkSymbol(frame.classSym);
                checkSymbol(frame.methodSym);
            }
        }
    }

    /** Time of the last event checked (the start time before any). */
    TimeNs lastEventTime() const { return lastEvent_; }

  private:
    bool
    known(ThreadId thread) const
    {
        return std::binary_search(threads_.begin(), threads_.end(),
                                  thread);
    }

    void
    checkSymbol(SymbolId id) const
    {
        if (id >= stringCount_)
            failSymbol(id);
    }

    [[noreturn]] static void fail(const char *what);
    [[noreturn]] static void failThread(const char *record,
                                        ThreadId thread);
    [[noreturn]] static void failSymbol(SymbolId id);

    std::vector<ThreadId> threads_; ///< sorted roster ids
    std::size_t stringCount_ = 0;
    TimeNs lastEvent_ = 0;
    TimeNs lastSample_ = 0;
    /** Thread of the last non-GC event checked; consecutive events
     * mostly share a thread, so each run is looked up once. */
    ThreadId checked_ = 0;
    bool hasChecked_ = false;
};

} // namespace lag::trace

#endif // LAG_TRACE_TRACE_HH
