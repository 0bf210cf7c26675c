/**
 * @file
 * Lock-free per-thread span recorder — the engine observing itself.
 *
 * A span is one timed region of real (wall-clock) work: a task run,
 * a steal victim scan, a trace-decode section, a session build.
 * The `LAG_SPAN("name")` RAII macro opens a span at construction and
 * records {name, thread, start, duration, optional numeric arg} at
 * destruction. Recording is designed to disappear when disabled and
 * to never contend when enabled:
 *
 *  - **Disabled** (the default): the constructor does one relaxed
 *    atomic load and a branch; nothing else happens. No allocation,
 *    no clock read, no store. This is the always-compiled,
 *    near-zero-cost mode every production run pays.
 *
 *  - **Enabled** (`--self-trace`, obs::setSpansEnabled): each thread
 *    appends to its own fixed-capacity buffer with a release store
 *    of the published count — no lock, no CAS, no sharing. Drainers
 *    (the Chrome-trace exporter, tests) read the count with acquire
 *    and the entries below it; the release/acquire pair makes the
 *    entries visible without ever pausing the recording thread.
 *    A full buffer drops further spans and counts the drops — the
 *    recorder never blocks and never reallocates.
 *
 * Buffers register themselves (under LockRank::Obs) on a thread's
 * first span and are kept alive by shared ownership past thread
 * exit, so an at-exit export still sees every worker's spans.
 *
 * Span names must be pointers of static lifetime: string literals,
 * or dynamic names pinned once via internedName(). Timestamps come
 * from lag::processElapsedNs(), the same epoch the log prefix uses.
 */

#ifndef LAG_OBS_SPAN_HH
#define LAG_OBS_SPAN_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace_context.hh"
#include "util/thread_name.hh"

namespace lag::obs
{

/** One recorded span (or instant, when durNs == 0 is meaningful). */
struct SpanEvent
{
    const char *name = nullptr;   ///< static-lifetime span name
    const char *argKey = nullptr; ///< optional arg name (static)
    std::uint64_t argValue = 0;   ///< arg payload (bytes, index, …)
    std::int64_t startNs = 0;     ///< processElapsedNs() at open
    std::int64_t durNs = 0;       ///< close - open

    /** Originating request (currentTraceContext() at close); both
     * zero when the span ran outside any request context. */
    std::uint64_t traceHi = 0;
    std::uint64_t traceLo = 0;
};

/**
 * One thread's span storage: a fixed slot array written only by the
 * owning thread, published entry-by-entry through an atomic count.
 */
class SpanBuffer
{
  public:
    SpanBuffer(std::uint32_t tid, std::string threadName,
               std::size_t capacity);

    SpanBuffer(const SpanBuffer &) = delete;
    SpanBuffer &operator=(const SpanBuffer &) = delete;

    /** Owner thread only: publish @p event (or count a drop). */
    void append(const SpanEvent &event);

    /** Any thread: entries published so far (acquire). Entries with
     * index < published() are safe to read concurrently. */
    std::size_t published() const
    {
        return size_.load(std::memory_order_acquire);
    }

    const SpanEvent &at(std::size_t i) const { return slots_[i]; }

    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    std::uint32_t tid() const { return tid_; }
    const std::string &threadName() const { return threadName_; }

  private:
    std::vector<SpanEvent> slots_;
    std::atomic<std::size_t> size_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::uint32_t tid_;
    std::string threadName_;
};

namespace detail
{

extern std::atomic<bool> g_spansEnabled;

/** The calling thread's buffer, created and registered on first
 * use (name/tid snapshotted from util/thread_name). */
SpanBuffer &threadBuffer();

} // namespace detail

/** Flip span recording; metrics counters are unaffected (always
 * on). Enabled by obs::install when --self-trace was given. */
void setSpansEnabled(bool enabled);

/** True when LAG_SPAN currently records. */
inline bool
spansEnabled()
{
    return detail::g_spansEnabled.load(std::memory_order_relaxed);
}

/**
 * Pin a dynamic span name (a study stage name, say) to a
 * static-lifetime C string. Interning takes the obs lock — do it at
 * setup time, not per span.
 */
const char *internedName(std::string_view name);

/**
 * Stable snapshot handles of every registered buffer. Buffers are
 * append-only; a drainer walks [0, published()) of each.
 */
std::vector<std::shared_ptr<SpanBuffer>> spanBuffers();

/** Total spans published across all buffers (tests, export log). */
std::size_t publishedSpanCount();

/** Total spans dropped to full buffers across all threads. */
std::uint64_t droppedSpanCount();

/** RAII region timer behind LAG_SPAN; see the file comment. */
class Span
{
  public:
    explicit Span(const char *name)
    {
        if (spansEnabled()) {
            name_ = name;
            startNs_ = processElapsedNs();
        }
    }

    /** Span with one numeric argument shown in the trace viewer. */
    Span(const char *name, const char *arg_key,
         std::uint64_t arg_value)
        : Span(name)
    {
        argKey_ = arg_key;
        argValue_ = arg_value;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Update the argument while the span is open (e.g. a byte
     * count known only at the end of the region). */
    void setArg(const char *arg_key, std::uint64_t arg_value)
    {
        argKey_ = arg_key;
        argValue_ = arg_value;
    }

    ~Span()
    {
        if (name_ == nullptr)
            return;
        SpanEvent event;
        event.name = name_;
        event.argKey = argKey_;
        event.argValue = argValue_;
        event.startNs = startNs_;
        event.durNs = processElapsedNs() - startNs_;
        const TraceContext ctx = currentTraceContext();
        event.traceHi = ctx.hi;
        event.traceLo = ctx.lo;
        detail::threadBuffer().append(event);
    }

  private:
    const char *name_ = nullptr;
    const char *argKey_ = nullptr;
    std::uint64_t argValue_ = 0;
    std::int64_t startNs_ = 0;
};

#define LAG_OBS_CONCAT2(a, b) a##b
#define LAG_OBS_CONCAT(a, b) LAG_OBS_CONCAT2(a, b)

/** Time the enclosing scope as span @p name (string literal). */
#define LAG_SPAN(name)                                                    \
    ::lag::obs::Span LAG_OBS_CONCAT(lag_span_, __LINE__)(name)

/** LAG_SPAN plus one numeric argument (key must be a literal). */
#define LAG_SPAN_ARG(name, key, value)                                    \
    ::lag::obs::Span LAG_OBS_CONCAT(lag_span_, __LINE__)(                 \
        name, key, static_cast<std::uint64_t>(value))

} // namespace lag::obs

#endif // LAG_OBS_SPAN_HH
