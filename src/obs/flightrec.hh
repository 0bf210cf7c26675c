/**
 * @file
 * Black-box flight recorder: bounded rings of recent telemetry that
 * survive to a crash dump.
 *
 * Spans and metrics answer "what is the process doing over time";
 * the flight recorder answers "what was it doing *just now*" — the
 * question that matters when lagd aborts mid-request. It shows three
 * kinds of record, the last two in fixed-size rings of its own,
 * sized once at configure() and never reallocated:
 *
 *  - **spans**: each thread's newest kSpansPerThread spans, read
 *    straight from the per-thread span rings (span.hh) — the
 *    recorder keeps no copy of its own.
 *  - **events**: structured one-shot markers (`recordEvent`) — a
 *    lock-rank violation, a watchdog stall, a slow request — built
 *    from static-lifetime strings only.
 *  - **requests**: the last-N served request summaries (method,
 *    target, status, latency, trace id), recorded by the serve
 *    layer when a response goes out.
 *
 * Concurrency model, chosen for the two readers it has to serve:
 *
 *  - Event slots are *all-atomic*: writers claim a slot with a
 *    fetch_add on the head counter and store each field
 *    independently. A concurrent reader may see a torn slot — a
 *    marker from one event, a time from another — which is
 *    acceptable for a diagnostic ring and, crucially, is not a data
 *    race, so TSan builds stay clean. The timestamp is relaxed;
 *    pointer fields are release/acquire, because an internedName()
 *    string may be minted on the recording thread an instant before
 *    the store and its *bytes* must be published along with the
 *    pointer. All pointer fields hold stable never-freed strings
 *    (literals or internedName()). Span slots are never torn: their
 *    stamps let a reader skip a slot being rewritten (span.hh).
 *  - Request slots are plain structs under a LockRank::Obs mutex:
 *    they contain variable-length text, and the live /debugz reader
 *    wants coherent rows.
 *  - The **crash dump** path (flightrec_dump.cc, `// lag-lint:
 *    signal-safe`) reads everything unsynchronized — including the
 *    request slots, mutex deliberately skipped since the crashing
 *    thread may hold it. Lengths are clamped at read time so a torn
 *    row can garble text but never overflow, and the dump uses only
 *    write(2)/open(2) with a stack buffer: no malloc, no stdio.
 *
 * configure() takes effect on the FIRST call only: rings are sized
 * and the recorder armed exactly once, so recording threads never
 * race a reallocation. armedFlightRecorder() is the fast-path gate —
 * a single acquire load returning nullptr until configured.
 */

#ifndef LAG_OBS_FLIGHTREC_HH
#define LAG_OBS_FLIGHTREC_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "span.hh"
#include "trace_context.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace lag::obs
{

/** Ring sizes and the fatal-dump destination. */
struct FlightRecorderOptions
{
    std::size_t eventCapacity = 1024;
    std::size_t requestCapacity = 64;
    /** Where fatal-signal dumps go; empty disables the file (the
     * live /debugz endpoints still work). */
    std::string dumpPath;
};

/** One served request, as the serve layer saw it. */
struct RequestSummary
{
    std::string method;
    std::string target;
    TraceContext trace;
    std::int64_t startNs = 0; ///< processElapsedNs() at accept
    std::int64_t durUs = 0;
    int status = 0;
    bool slow = false; ///< exceeded --slow-request-ms
};

class FlightRecorder
{
  public:
    /** Spans per thread that liveJson() and the crash dump show:
     * the newest of each thread's ring. */
    static constexpr std::size_t kSpansPerThread = 256;

    /** The process-wide recorder (leaked singleton, like the
     * metrics registry — atexit/signal paths must never race
     * static destruction). */
    static FlightRecorder &instance();

    /** Size the rings and arm recording. First call wins; later
     * calls are ignored (rings must never reallocate under
     * concurrent writers). */
    void configure(const FlightRecorderOptions &options);

    bool armed() const
    {
        return armed_.load(std::memory_order_acquire);
    }

    /** Fatal-dump path fixed at configure; "" when none. Returns a
     * pointer into fixed storage — safe to read from a signal
     * handler. */
    const char *dumpPath() const { return path_; }

    /** Record a structured marker. All three strings must have
     * static lifetime (literals or internedName()); a and b are
     * optional detail fields. */
    void recordEvent(const char *what, const char *a = nullptr,
                     const char *b = nullptr);

    /** Record a finished request (serve layer, response written). */
    void recordRequest(const RequestSummary &request);

    /** Most-recent-first copy of the request ring. */
    std::vector<RequestSummary> recentRequests() const;

    /**
     * The full recorder state as one JSON object — the same shape
     * the crash dump writes, so one validator (checkFlightrec)
     * covers both:
     *   {"flightrec":1, "signal":0, "fatal":null,
     *    "requests":[…], "events":[…], "spans":[…]}
     */
    std::string liveJson() const;

    /**
     * /debugz/requests payload: {"requests":[…]}. With @p filter,
     * only matching requests plus that request's span tree under
     * a "spans" key.
     */
    std::string requestsJson(const TraceContext *filter) const;

    /** Async-signal-safe dump of the rings to @p fd (see
     * flightrec_dump.cc). @p sig is recorded in the payload; pass 0
     * for non-signal dumps. */
    void dumpTo(int fd, int sig) const;

    /** dumpTo() into dumpPath(); false when no path configured or
     * open failed. Async-signal-safe. */
    bool dumpToPath(int sig) const;

  private:
    FlightRecorder() = default;

    struct EventSlot
    {
        std::atomic<const char *> what{nullptr};
        std::atomic<const char *> a{nullptr};
        std::atomic<const char *> b{nullptr};
        std::atomic<std::int64_t> atNs{0};
    };

    /** Fixed-capacity request row; text truncated to fit. The
     * crash-dump reader clamps the lengths again so a torn row
     * can never index out of bounds. */
    struct RequestSlot
    {
        char method[8] = {};
        char target[160] = {};
        std::uint8_t methodLen = 0;
        std::uint8_t targetLen = 0;
        std::uint64_t traceHi = 0;
        std::uint64_t traceLo = 0;
        std::int64_t startNs = 0;
        std::int64_t durUs = 0;
        int status = 0;
        bool slow = false;
        bool used = false;
    };

    friend void flightrecDumpImpl(const FlightRecorder &rec, int fd,
                                  int sig);

    std::atomic<bool> armed_{false};
    char path_[256] = {};

    std::vector<EventSlot> eventRing_;
    std::atomic<std::uint64_t> eventHead_{0};

    // The crash-dump reader (flightrecDumpImpl, opted out of the
    // analysis) deliberately skips this mutex — see file comment.
    mutable Mutex requestMutex_{LockRank::Obs,
                                "obs-flightrec-requests"};
    std::vector<RequestSlot> requestRing_
        LAG_GUARDED_BY(requestMutex_);
    std::uint64_t requestHead_ LAG_GUARDED_BY(requestMutex_) = 0;
};

namespace detail
{
/** Set (once) by configure; the recording fast path and the signal
 * handler both read it — no static-init guard, no flag + separate
 * instance lookup. */
extern std::atomic<FlightRecorder *> g_armedFlightRecorder;
} // namespace detail

/** The armed recorder, or nullptr before configure(). One acquire
 * load — cheap enough for the per-request path. */
inline FlightRecorder *
armedFlightRecorder()
{
    return detail::g_armedFlightRecorder.load(
        std::memory_order_acquire);
}

/**
 * The span tree of one request: every recorded span stamped with
 * @p ctx, across all threads, nested by containment (a span is a
 * child of the innermost same-thread span enclosing it in time).
 */
std::string spanTreeJson(const TraceContext &ctx);

/** Human-readable indented rendering (slow-request log). */
std::string spanTreeText(const TraceContext &ctx);

/** Fatal-signal hook for util/shutdown's installFatalSignalDumper:
 * dumps the armed recorder (if any) to its configured path.
 * Async-signal-safe. */
void flightrecFatalDump(int sig);

} // namespace lag::obs

#endif // LAG_OBS_FLIGHTREC_HH
