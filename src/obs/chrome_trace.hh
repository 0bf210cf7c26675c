/**
 * @file
 * Chrome trace-event export of recorded spans.
 *
 * Serializes every span in the per-thread rings into the trace-event JSON
 * format understood by Perfetto (ui.perfetto.dev) and legacy
 * chrome://tracing: an object with a "traceEvents" array of complete
 * events (ph "X", microsecond ts/dur) plus thread-name metadata
 * events (ph "M") so the timeline shows "main", "pool-worker-0", …
 * instead of bare tids.
 *
 * Export is a drain, not a stop: it walks every thread's span ring
 * (forEachSpan) and can run while threads still record; a slot
 * rewritten mid-walk is skipped. The at-exit flush in obs/scope.cc
 * is the normal call site.
 */

#ifndef LAG_OBS_CHROME_TRACE_HH
#define LAG_OBS_CHROME_TRACE_HH

#include <string>

namespace lag::obs
{

/** Render every span still in the rings as Chrome trace-event JSON. */
std::string chromeTraceJson();

/**
 * Write chromeTraceJson() to @p path. Returns false (after a warn)
 * when the file cannot be written; never throws.
 */
bool writeChromeTrace(const std::string &path);

} // namespace lag::obs

#endif // LAG_OBS_CHROME_TRACE_HH
