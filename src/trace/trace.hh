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
 */

#ifndef LAG_TRACE_TRACE_HH
#define LAG_TRACE_TRACE_HH

#include <algorithm>
#include <cstdint>
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
    std::vector<std::string> strings_;
    std::unordered_map<std::string, SymbolId> index_;
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
};

/** One thread's part of a sample. */
struct SampleThread
{
    ThreadId thread = 0;
    TraceThreadState state = TraceThreadState::Runnable;
    std::vector<SampleFrame> frames; ///< innermost last
};

/** One periodic call-stack sample of all live threads. */
struct TraceSample
{
    TimeNs time = 0;
    std::vector<SampleThread> threads;
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
    std::vector<TraceSample> samples; ///< time-ordered
    StringTable strings;

    /**
     * Structural sanity checks: monotone event and sample times,
     * symbol ids within range, thread ids known, sample states in
     * range. Throws TraceError on the first violation. (Interval
     * nesting is validated by the core tree builder, which has the
     * per-thread context to do it.)
     */
    void validate() const;
};

/** Trace::validate() over the parts of a trace held apart (the
 * decoder's, before they move into a Trace). */
void validateTrace(const TraceMeta &meta,
                   const std::vector<TraceThread> &threads,
                   std::size_t stringCount,
                   const std::vector<TraceEvent> &events,
                   const std::vector<TraceSample> &samples);

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

    void
    checkSample(const TraceSample &sample)
    {
        if (sample.time < lastSample_)
            fail("sample stream not time-ordered");
        lastSample_ = sample.time;
        for (const auto &entry : sample.threads) {
            if (!known(entry.thread))
                failThread("sample", entry.thread);
            if (static_cast<std::uint8_t>(entry.state) > 3)
                fail("sample state out of range");
            for (const auto &frame : entry.frames) {
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
