/**
 * @file
 * Test helper: fluent construction of traces and sessions.
 *
 * Analysis tests need precisely shaped sessions (an episode with a
 * GC inside a native call, a pattern with exactly one perceptible
 * episode, ...). Building them through the binary trace model keeps
 * the tests exercising the same code paths production uses.
 */

#ifndef LAG_TESTS_TRACE_BUILDER_HH
#define LAG_TESTS_TRACE_BUILDER_HH

#include <string>
#include <vector>

#include "core/session.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace lag::test
{

/** One sampled thread of a hand-made sample. */
struct SampleEntry
{
    ThreadId thread = 0;
    trace::TraceThreadState state = trace::TraceThreadState::Runnable;
    std::vector<trace::SampleFrame> frames; ///< innermost last
};

/** Builds a single-GUI-thread trace record by record. */
class TraceBuilder
{
  public:
    TraceBuilder()
    {
        trace_.meta.appName = "TestApp";
        trace_.meta.samplePeriod = msToNs(10);
        trace_.meta.filterThreshold = msToNs(3);
        trace_.threads.push_back(
            trace::TraceThread{0, "AWT-EventQueue-0", true});
    }

    /** Add a non-GUI thread; returns its id. */
    ThreadId
    addThread(const std::string &name)
    {
        const ThreadId id =
            static_cast<ThreadId>(trace_.threads.size());
        trace_.threads.push_back(trace::TraceThread{id, name, false});
        return id;
    }

    TraceBuilder &
    dispatchBegin(TimeNs t, ThreadId thread = 0)
    {
        trace::TraceEvent e;
        e.type = trace::EventType::DispatchBegin;
        e.thread = thread;
        e.time = t;
        trace_.events.push_back(e);
        return *this;
    }

    TraceBuilder &
    dispatchEnd(TimeNs t, ThreadId thread = 0)
    {
        trace::TraceEvent e;
        e.type = trace::EventType::DispatchEnd;
        e.thread = thread;
        e.time = t;
        trace_.events.push_back(e);
        return *this;
    }

    TraceBuilder &
    intervalBegin(TimeNs t, trace::IntervalKind kind,
                  const std::string &cls, const std::string &method,
                  ThreadId thread = 0)
    {
        trace::TraceEvent e;
        e.type = trace::EventType::IntervalBegin;
        e.thread = thread;
        e.time = t;
        e.kind = kind;
        e.classSym = trace_.strings.intern(cls);
        e.methodSym = trace_.strings.intern(method);
        trace_.events.push_back(e);
        return *this;
    }

    TraceBuilder &
    intervalEnd(TimeNs t, trace::IntervalKind kind, ThreadId thread = 0)
    {
        trace::TraceEvent e;
        e.type = trace::EventType::IntervalEnd;
        e.thread = thread;
        e.time = t;
        e.kind = kind;
        trace_.events.push_back(e);
        return *this;
    }

    TraceBuilder &
    gc(TimeNs begin, TimeNs end,
       trace::TraceGcKind kind = trace::TraceGcKind::Minor)
    {
        trace::TraceEvent b;
        b.type = trace::EventType::GcBegin;
        b.time = begin;
        b.gcKind = kind;
        trace_.events.push_back(b);
        trace::TraceEvent e;
        e.type = trace::EventType::GcEnd;
        e.time = end;
        trace_.events.push_back(e);
        return *this;
    }

    /** Convenience: a full episode with one listener child. */
    TraceBuilder &
    listenerEpisode(TimeNs begin, TimeNs end, const std::string &cls,
                    const std::string &method = "actionPerformed")
    {
        dispatchBegin(begin);
        intervalBegin(begin + 1000, trace::IntervalKind::Listener, cls,
                      method);
        intervalEnd(end - 1000, trace::IntervalKind::Listener);
        dispatchEnd(end);
        return *this;
    }

    /** Add a sample with a single GUI-thread entry. */
    TraceBuilder &
    sample(TimeNs t, trace::TraceThreadState state,
           const std::string &top_class = "java.awt.EventQueue",
           const std::string &top_method = "dispatchEvent")
    {
        const trace::SampleFrame run{trace_.strings.intern("java.lang.Thread"),
                                     trace_.strings.intern("run")};
        const trace::SampleFrame top{trace_.strings.intern(top_class),
                                     trace_.strings.intern(top_method)};
        return rawSample(t, {SampleEntry{0, state, {run, top}}});
    }

    /** Append a raw, fully specified sample. */
    TraceBuilder &
    rawSample(TimeNs t, const std::vector<SampleEntry> &entries)
    {
        trace_.samples.addSample(t);
        for (const SampleEntry &entry : entries) {
            trace_.samples.addEntry(entry.thread, entry.state);
            for (const trace::SampleFrame &frame : entry.frames)
                trace_.samples.addFrame(frame);
        }
        return *this;
    }

    trace::StringTable &strings() { return trace_.strings; }

    trace::Trace &raw() { return trace_; }

    /** Finalize and return the trace. */
    trace::Trace
    build(TimeNs end_time)
    {
        trace_.meta.endTime = end_time;
        return std::move(trace_);
    }

    /** Finalize and parse into a Session. */
    core::Session
    buildSession(TimeNs end_time)
    {
        return core::Session::fromTrace(build(end_time));
    }

  private:
    trace::Trace trace_;
};

} // namespace lag::test

#endif // LAG_TESTS_TRACE_BUILDER_HH
