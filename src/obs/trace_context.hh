/**
 * @file
 * Request-scoped trace identity, propagated across threads.
 *
 * A TraceContext is a 128-bit id minted once per external request
 * (lagd mints one per accepted connection). It lives in a
 * thread-local slot: `currentTraceContext()` reads the calling
 * thread's context, `TraceContextScope` installs one for a lexical
 * region and restores the previous on exit. The engine's
 * ThreadPool::submit captures the submitting thread's context and
 * re-installs it inside the worker running the task, so a context
 * set at the serve layer flows through every pool hop — parallelFor
 * tasks, and tasks submitted from inside context-scoped worker
 * tasks, inherit it transitively.
 *
 * Every span recorded while a context is active is stamped with it
 * (see SpanEvent::traceHi/traceLo), which is what lets the
 * Chrome-trace export and the flight recorder attribute engine work
 * (shard mine, cache load, merges) to the request that caused it.
 *
 * Ids are minted from a process-local counter mixed through
 * splitmix64 — unique within the process, stable across runs of the
 * same request sequence, and cheap (no OS entropy on the accept
 * path). The zero id means "no context" and is never minted.
 */

#ifndef LAG_OBS_TRACE_CONTEXT_HH
#define LAG_OBS_TRACE_CONTEXT_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace lag::obs
{

/** A 128-bit request identity; {0,0} means "no context". */
struct TraceContext
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool active() const { return (hi | lo) != 0; }

    bool operator==(const TraceContext &other) const
    {
        return hi == other.hi && lo == other.lo;
    }
    bool operator!=(const TraceContext &other) const
    {
        return !(*this == other);
    }
};

/** The calling thread's context; inactive when none installed. */
TraceContext currentTraceContext();

/** Mint a fresh, never-zero id (counter + epoch, splitmix64). */
TraceContext mintTraceContext();

/** 32 lowercase hex chars (hi then lo, zero-padded). */
std::string traceIdHex(const TraceContext &ctx);

/** Parse traceIdHex output; false on anything else. */
bool parseTraceIdHex(std::string_view hex, TraceContext &out);

/** Install @p ctx for this scope; restores the previous on exit. */
class TraceContextScope
{
  public:
    explicit TraceContextScope(const TraceContext &ctx);
    ~TraceContextScope();

    TraceContextScope(const TraceContextScope &) = delete;
    TraceContextScope &operator=(const TraceContextScope &) = delete;

  private:
    TraceContext previous_;
};

} // namespace lag::obs

#endif // LAG_OBS_TRACE_CONTEXT_HH
