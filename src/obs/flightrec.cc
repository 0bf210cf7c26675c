#include "flightrec.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/json.hh"
#include "util/shutdown.hh"

namespace lag::obs
{

namespace
{

void
appendRequestObject(std::string &out, const RequestSummary &req)
{
    out += "{\"method\": ";
    appendJsonString(out, req.method);
    out += ", \"target\": ";
    appendJsonString(out, req.target);
    out += ", \"status\": ";
    out += std::to_string(req.status);
    out += ", \"dur_us\": ";
    out += std::to_string(req.durUs);
    out += ", \"start_ns\": ";
    out += std::to_string(req.startNs);
    out += ", \"slow\": ";
    out += req.slow ? "true" : "false";
    out += ", \"trace\": \"";
    out += traceIdHex(req.trace);
    out += "\"}";
}

/** A span of one trace with its containment depth (see below). */
struct TreeSpan
{
    const char *name;
    std::uint32_t tid;
    std::int64_t startNs;
    std::int64_t durNs;
    int depth;
};

/**
 * Collect every span stamped with @p ctx and assign nesting depths:
 * spans are sorted (tid, start, -dur) and a span is a child of the
 * innermost same-thread span still open at its start. Cross-thread
 * causality (pool hops) shows as sibling depth-0 runs per thread.
 */
std::vector<TreeSpan>
collectTree(const TraceContext &ctx)
{
    std::vector<TreeSpan> spans;
    forEachSpan([&](const SpanBuffer &buffer, const SpanEvent &ev) {
        if (ev.traceHi == ctx.hi && ev.traceLo == ctx.lo)
            spans.push_back({ev.name, buffer.tid(), ev.startNs,
                             ev.durNs, 0});
    });
    std::sort(spans.begin(), spans.end(),
              [](const TreeSpan &a, const TreeSpan &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  return a.durNs > b.durNs;
              });
    std::vector<std::int64_t> open; // end times of enclosing spans
    std::uint32_t tid = 0;
    for (TreeSpan &span : spans) {
        if (span.tid != tid) {
            open.clear();
            tid = span.tid;
        }
        while (!open.empty() && open.back() <= span.startNs)
            open.pop_back();
        span.depth = static_cast<int>(open.size());
        open.push_back(span.startNs + span.durNs);
    }
    return spans;
}

} // namespace

FlightRecorder &
FlightRecorder::instance()
{
    static auto *recorder = new FlightRecorder();
    return *recorder;
}

void
FlightRecorder::configure(const FlightRecorderOptions &options)
{
    MutexLock lock(requestMutex_);
    if (armed_.load(std::memory_order_relaxed))
        return; // first call wins; rings must never reallocate
    eventRing_ = std::vector<EventSlot>(
        std::max<std::size_t>(options.eventCapacity, 1));
    requestRing_ = std::vector<RequestSlot>(
        std::max<std::size_t>(options.requestCapacity, 1));
    const std::size_t n =
        std::min(options.dumpPath.size(), sizeof(path_) - 1);
    std::memcpy(path_, options.dumpPath.data(), n);
    path_[n] = '\0';
    armed_.store(true, std::memory_order_release);
    detail::g_armedFlightRecorder.store(this,
                                        std::memory_order_release);
}

void
FlightRecorder::recordEvent(const char *what, const char *a,
                            const char *b)
{
    if (!armed())
        return;
    const std::uint64_t i =
        eventHead_.fetch_add(1, std::memory_order_relaxed);
    EventSlot &slot = eventRing_[i % eventRing_.size()];
    // Release (each pointer): detail strings may be internedName()
    // allocations made on this thread moments ago; publish their
    // bytes along with the pointer (readers load with acquire).
    slot.what.store(what, std::memory_order_release);
    slot.a.store(a, std::memory_order_release);
    slot.b.store(b, std::memory_order_release);
    slot.atNs.store(processElapsedNs(), std::memory_order_relaxed);
}

void
FlightRecorder::recordRequest(const RequestSummary &request)
{
    if (!armed())
        return;
    MutexLock lock(requestMutex_);
    RequestSlot &slot =
        requestRing_[requestHead_ % requestRing_.size()];
    ++requestHead_;
    const std::size_t mlen = std::min(request.method.size(),
                                      sizeof(slot.method) - 1);
    std::memcpy(slot.method, request.method.data(), mlen);
    slot.method[mlen] = '\0';
    slot.methodLen = static_cast<std::uint8_t>(mlen);
    const std::size_t tlen = std::min(request.target.size(),
                                      sizeof(slot.target) - 1);
    std::memcpy(slot.target, request.target.data(), tlen);
    slot.target[tlen] = '\0';
    slot.targetLen = static_cast<std::uint8_t>(tlen);
    slot.traceHi = request.trace.hi;
    slot.traceLo = request.trace.lo;
    slot.startNs = request.startNs;
    slot.durUs = request.durUs;
    slot.status = request.status;
    slot.slow = request.slow;
    slot.used = true;
}

std::vector<RequestSummary>
FlightRecorder::recentRequests() const
{
    std::vector<RequestSummary> out;
    if (!armed())
        return out;
    MutexLock lock(requestMutex_);
    const std::size_t cap = requestRing_.size();
    const std::uint64_t newest = requestHead_;
    const std::uint64_t oldest =
        newest > cap ? newest - cap : 0;
    out.reserve(static_cast<std::size_t>(newest - oldest));
    for (std::uint64_t i = newest; i-- > oldest;) {
        const RequestSlot &slot = requestRing_[i % cap];
        if (!slot.used)
            continue;
        RequestSummary req;
        req.method.assign(slot.method, slot.methodLen);
        req.target.assign(slot.target, slot.targetLen);
        req.trace = TraceContext{slot.traceHi, slot.traceLo};
        req.startNs = slot.startNs;
        req.durUs = slot.durUs;
        req.status = slot.status;
        req.slow = slot.slow;
        out.push_back(std::move(req));
    }
    return out;
}

std::string
FlightRecorder::liveJson() const
{
    std::string out = "{\"flightrec\": 1, \"signal\": 0, ";
    const FatalNote note = fatalNote();
    if (note.what == nullptr) {
        out += "\"fatal\": null";
    } else {
        out += "\"fatal\": {\"what\": ";
        appendJsonString(out, note.what);
        out += ", \"a\": ";
        appendJsonString(out, note.detailA ? note.detailA : "");
        out += ", \"b\": ";
        appendJsonString(out, note.detailB ? note.detailB : "");
        out += '}';
    }

    out += ", \"requests\": [";
    bool first = true;
    for (const RequestSummary &req : recentRequests()) {
        if (!first)
            out += ", ";
        first = false;
        appendRequestObject(out, req);
    }
    out += ']';

    out += ", \"events\": [";
    first = true;
    if (armed()) {
        const std::size_t cap = eventRing_.size();
        const std::uint64_t newest =
            eventHead_.load(std::memory_order_relaxed);
        const std::uint64_t oldest =
            newest > cap ? newest - cap : 0;
        for (std::uint64_t i = oldest; i < newest; ++i) {
            const EventSlot &slot = eventRing_[i % cap];
            // Acquire pairs with recordEvent's release stores: it
            // makes the pointed-to string bytes visible, not just
            // the pointers.
            const char *what =
                slot.what.load(std::memory_order_acquire);
            if (what == nullptr)
                continue; // claimed but not yet written
            const char *a = slot.a.load(std::memory_order_acquire);
            const char *b = slot.b.load(std::memory_order_acquire);
            if (!first)
                out += ", ";
            first = false;
            out += "{\"what\": ";
            appendJsonString(out, what);
            out += ", \"a\": ";
            appendJsonString(out, a ? a : "");
            out += ", \"b\": ";
            appendJsonString(out, b ? b : "");
            out += ", \"at_ns\": ";
            out += std::to_string(
                slot.atNs.load(std::memory_order_relaxed));
            out += '}';
        }
    }
    out += ']';

    out += ", \"spans\": [";
    first = true;
    forEachSpan(
        [&](const SpanBuffer &buffer, const SpanEvent &span) {
            if (!first)
                out += ", ";
            first = false;
            out += "{\"name\": ";
            appendJsonString(out, span.name);
            out += ", \"trace\": \"";
            out += traceIdHex(TraceContext{span.traceHi, span.traceLo});
            out += "\", \"tid\": ";
            out += std::to_string(buffer.tid());
            out += ", \"start_ns\": ";
            out += std::to_string(span.startNs);
            out += ", \"dur_ns\": ";
            out += std::to_string(span.durNs);
            out += '}';
        },
        kSpansPerThread);
    out += "]}\n";
    return out;
}

std::string
FlightRecorder::requestsJson(const TraceContext *filter) const
{
    std::string out = "{\"requests\": [";
    bool first = true;
    for (const RequestSummary &req : recentRequests()) {
        if (filter != nullptr && req.trace != *filter)
            continue;
        if (!first)
            out += ", ";
        first = false;
        appendRequestObject(out, req);
    }
    out += ']';
    if (filter != nullptr) {
        out += ", \"spans\": ";
        out += spanTreeJson(*filter);
    }
    out += "}\n";
    return out;
}

std::string
spanTreeJson(const TraceContext &ctx)
{
    const std::vector<TreeSpan> spans = collectTree(ctx);
    std::string out = "{\"trace\": \"";
    out += traceIdHex(ctx);
    out += "\", \"spans\": [";
    bool first = true;
    for (const TreeSpan &span : spans) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"name\": ";
        appendJsonString(out, span.name);
        out += ", \"tid\": ";
        out += std::to_string(span.tid);
        out += ", \"depth\": ";
        out += std::to_string(span.depth);
        out += ", \"start_ns\": ";
        out += std::to_string(span.startNs);
        out += ", \"dur_ns\": ";
        out += std::to_string(span.durNs);
        out += '}';
    }
    out += "]}";
    return out;
}

std::string
spanTreeText(const TraceContext &ctx)
{
    const std::vector<TreeSpan> spans = collectTree(ctx);
    std::ostringstream os;
    os << "trace " << traceIdHex(ctx) << " (" << spans.size()
       << " spans)\n";
    std::uint32_t tid = spans.empty() ? 0 : spans.front().tid + 1;
    for (const TreeSpan &span : spans) {
        if (span.tid != tid) {
            tid = span.tid;
            os << " thread " << tid << ":\n";
        }
        os << "  ";
        for (int i = 0; i < span.depth; ++i)
            os << "  ";
        os << span.name << ' ' << span.durNs / 1000 << "us\n";
    }
    return os.str();
}

namespace detail
{
std::atomic<FlightRecorder *> g_armedFlightRecorder{nullptr};
} // namespace detail

} // namespace lag::obs
