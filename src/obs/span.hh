/**
 * @file
 * Lock-free per-thread span recorder — the engine observing itself.
 *
 * A span is one timed region of real (wall-clock) work: a task run,
 * a worker's idle wait, a trace-decode section, a session build.
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
 *    writes its own ring of kSpanCapacity one-cache-line slots,
 *    overwriting the oldest span once the ring is full — no lock, no
 *    CAS, no sharing, never a block or a reallocation. A thread's
 *    ring is the only place its spans are stored: the Chrome-trace
 *    export, the per-request span trees and the flight recorder's
 *    live view and crash dump all read it through forEachSpan().
 *
 * Every slot field is read and written atomically, and each slot
 * carries a sequence stamp (a seqlock): the owner marks the slot
 * odd, stores the fields with release, then stamps it with its write
 * index. A reader loads the stamp (acquire), the fields (acquire)
 * and the stamp again, and skips the slot unless both stamps name
 * the index it expected — so a slot its owner is rewriting is
 * skipped, never read torn, and the walk is race-free under TSan
 * while the owner keeps recording.
 *
 * Buffers sit on a push-only list that is never freed: a thread's
 * first span maps its ring and links it in with a CAS, and the ring
 * outlives the thread, so an at-exit export still sees every
 * worker's spans. Walking the list and the slots takes no lock and
 * allocates nothing, so a fatal-signal handler can do it.
 *
 * Span names must be pointers of static lifetime: string literals,
 * or dynamic names pinned once via internedName(). Timestamps come
 * from lag::processElapsedNs(), the same epoch the log prefix uses.
 */

#ifndef LAG_OBS_SPAN_HH
#define LAG_OBS_SPAN_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "trace_context.hh"
#include "util/thread_name.hh"

namespace lag::obs
{

/** Spans one thread's ring holds (up to 4 MiB of slots, committed
 * as the ring fills); the oldest span is overwritten by each span
 * past this. */
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;

class SpanBuffer;

namespace detail
{

extern std::atomic<bool> g_spansEnabled;

/** The calling thread's buffer, created and linked into the buffer
 * list on first use (name/tid snapshotted from util/thread_name). */
SpanBuffer &threadBuffer();

} // namespace detail

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
 * One thread's span ring: written only by the owning thread, read by
 * any thread (or signal handler) through forEach().
 */
class SpanBuffer
{
  public:
    SpanBuffer(std::uint32_t tid, std::string threadName);

    SpanBuffer(const SpanBuffer &) = delete;
    SpanBuffer &operator=(const SpanBuffer &) = delete;

    /** Owner thread only: store @p event over the oldest slot. */
    void append(const SpanEvent &event);

    /**
     * Any thread: call @p fn(const SpanEvent &) for each of the
     * newest @p newest spans still in the ring, oldest first. A slot
     * being rewritten meanwhile is skipped. Allocation-free and
     * lock-free, so safe in a signal handler.
     */
    template <typename Fn>
    void forEach(Fn &&fn, std::size_t newest = kSpanCapacity) const
    {
        const std::uint64_t end = recorded();
        const std::uint64_t count =
            std::min<std::uint64_t>({end, newest, kSpanCapacity});
        SpanEvent event;
        for (std::uint64_t i = end - count; i < end; ++i) {
            if (read(i, event))
                fn(event);
        }
    }

    /** Spans this thread has recorded in its lifetime. */
    std::uint64_t recorded() const
    {
        return head_.load(std::memory_order_acquire);
    }

    /** Spans lost to wrap-around (recorded minus capacity). */
    std::uint64_t overwritten() const
    {
        const std::uint64_t n = recorded();
        return n > kSpanCapacity ? n - kSpanCapacity : 0;
    }

    std::uint32_t tid() const { return tid_; }
    const std::string &threadName() const { return threadName_; }

    /** The buffer registered before this one; nullptr at the end
     * of the list firstSpanBuffer() starts. */
    const SpanBuffer *next() const { return next_; }

  private:
    /** One cache line; see the file comment for the stamp protocol.
     * A slot written as index i is stamped 2i+1 while its fields
     * change and 2i+2 once they are whole. The fields are plain so
     * a ring can be fresh zero pages that no constructor touches;
     * every access goes through std::atomic_ref. */
    struct alignas(64) Slot
    {
        std::uint64_t stamp;
        const char *name;
        const char *argKey;
        std::uint64_t argValue;
        std::int64_t startNs;
        std::int64_t durNs;
        std::uint64_t traceHi;
        std::uint64_t traceLo;
    };
    static_assert(sizeof(Slot) == 64, "one slot, one cache line");
    static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free &&
                      std::atomic_ref<const char *>::is_always_lock_free,
                  "signal handlers read the slots");

    /** Copy write @p index into @p out; false when that slot has
     * been (or is being) overwritten by a later write. */
    bool read(std::uint64_t index, SpanEvent &out) const;

    friend SpanBuffer &detail::threadBuffer();

    Slot *slots_; ///< kSpanCapacity slots, mapped once, never freed
    std::atomic<std::uint64_t> head_{0};
    std::uint32_t tid_;
    std::string threadName_;
    const SpanBuffer *next_ = nullptr;
};

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

/** The most recently linked buffer; follow SpanBuffer::next() for
 * the rest. Lock-free and signal-safe. */
const SpanBuffer *firstSpanBuffer();

/**
 * The one span walk: call @p fn(const SpanBuffer &, const SpanEvent &)
 * for each thread's newest @p newest spans (SpanBuffer::forEach).
 * Allocation-free and lock-free, so a signal handler may call it.
 */
template <typename Fn>
void
forEachSpan(Fn &&fn, std::size_t newest = kSpanCapacity)
{
    for (const SpanBuffer *buffer = firstSpanBuffer();
         buffer != nullptr; buffer = buffer->next()) {
        buffer->forEach(
            [&](const SpanEvent &event) { fn(*buffer, event); },
            newest);
    }
}

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
