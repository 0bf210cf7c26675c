#include "agent.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace lag::lila
{

trace::IntervalKind
toIntervalKind(jvm::ActivityKind kind)
{
    switch (kind) {
      case jvm::ActivityKind::Listener:
        return trace::IntervalKind::Listener;
      case jvm::ActivityKind::Paint:
        return trace::IntervalKind::Paint;
      case jvm::ActivityKind::Native:
        return trace::IntervalKind::Native;
      case jvm::ActivityKind::Async:
        return trace::IntervalKind::Async;
      case jvm::ActivityKind::Plain:
        break;
    }
    lag_panic("plain activity kind has no interval kind");
}

trace::TraceGcKind
toTraceGcKind(jvm::GcKind kind)
{
    return kind == jvm::GcKind::Major ? trace::TraceGcKind::Major
                                      : trace::TraceGcKind::Minor;
}

trace::TraceThreadState
toTraceThreadState(jvm::SampleState state)
{
    switch (state) {
      case jvm::SampleState::Runnable:
        return trace::TraceThreadState::Runnable;
      case jvm::SampleState::Blocked:
        return trace::TraceThreadState::Blocked;
      case jvm::SampleState::Waiting:
        return trace::TraceThreadState::Waiting;
      case jvm::SampleState::Sleeping:
        return trace::TraceThreadState::Sleeping;
    }
    lag_panic("unknown sample state");
}

LilaAgent::LilaAgent(const LilaConfig &config) : config_(config)
{
    lag_assert(config_.filterThreshold >= 0,
               "negative filter threshold");
}

void
LilaAgent::beginSession(const std::string &app_name,
                        std::uint32_t session_index, std::uint64_t seed,
                        DurationNs sample_period, TimeNs start_time)
{
    lag_assert(!session_open_, "beginSession with a session open");
    session_open_ = true;
    // Fill a named Trace and move it in: assigning a temporary
    // `trace::Trace{}` trips GCC 12's -Wmaybe-uninitialized at -O3.
    trace::Trace fresh;
    fresh.meta.appName = app_name;
    fresh.meta.sessionIndex = session_index;
    fresh.meta.seed = seed;
    fresh.meta.samplePeriod = sample_period;
    fresh.meta.startTime = start_time;
    fresh.meta.filterThreshold = config_.filterThreshold;
    trace_ = std::move(fresh);
    episodes_seen_ = 0;
    pending_.clear();
    gc_open_outside_ = false;
}

trace::Trace
LilaAgent::finishSession(TimeNs end_time)
{
    lag_assert(session_open_, "finishSession without a session");
    session_open_ = false;

    // Episodes still in flight are incomplete; LagAlyzer is an
    // offline tool and only sees completed requests.
    std::size_t discarded = 0;
    // Safe: pure count, independent of iteration order.
    for (auto &[tid, episode] : pending_) { // lag-lint: allow(unordered-iter)
        if (episode.open)
            ++discarded;
    }
    if (discarded > 0)
        inform("lila: discarded ", discarded, " in-flight episode(s)");
    pending_.clear();

    if (gc_open_outside_) {
        // Close a GC that straddles the session end so records stay
        // balanced.
        trace::TraceEvent end;
        end.type = trace::EventType::GcEnd;
        end.time = end_time;
        trace_.events.push_back(end);
        gc_open_outside_ = false;
    }

    trace_.meta.endTime = end_time;
    std::stable_sort(trace_.events.begin(), trace_.events.end(),
                     [](const trace::TraceEvent &a,
                        const trace::TraceEvent &b) {
                         return a.time < b.time;
                     });
    return std::move(trace_);
}

void
LilaAgent::onThreadStarted(const jvm::VThread &thread)
{
    trace::TraceThread entry;
    entry.id = thread.id();
    entry.name = thread.name();
    entry.isGui = thread.isGui();
    trace_.threads.push_back(std::move(entry));
}

void
LilaAgent::onDispatchBegin(ThreadId thread, TimeNs time)
{
    PendingEpisode &episode = pending_[thread];
    lag_assert(!episode.open, "nested dispatch on thread ", thread);
    episode = PendingEpisode{};
    episode.open = true;
    episode.thread = thread;
    episode.begin = time;
    ++episodes_seen_;
}

void
LilaAgent::onDispatchEnd(ThreadId thread, TimeNs time)
{
    const auto it = pending_.find(thread);
    lag_assert(it != pending_.end() && it->second.open,
               "dispatch end without begin on thread ", thread);
    PendingEpisode &episode = it->second;
    lag_assert(episode.stack.empty(),
               "dispatch ended with open intervals on thread ", thread);
    episode.open = false;

    const DurationNs duration = time - episode.begin;
    trace_.meta.totalInEpisodeTime += duration;
    if (duration < config_.filterThreshold) {
        ++trace_.meta.filteredShortEpisodes;
        // A dropped episode still surfaces any GC that happened
        // inside it: collections are global facts, not part of the
        // episode's structure.
        for (const std::size_t root : episode.roots)
            emitGcOnly(episode, root);
        return;
    }

    trace::TraceEvent begin;
    begin.type = trace::EventType::DispatchBegin;
    begin.thread = thread;
    begin.time = episode.begin;
    trace_.events.push_back(begin);

    for (const std::size_t root : episode.roots)
        emitNode(episode, root);

    trace::TraceEvent end;
    end.type = trace::EventType::DispatchEnd;
    end.thread = thread;
    end.time = time;
    trace_.events.push_back(end);
}

void
LilaAgent::pushNode(ThreadId thread, PendingNode node)
{
    PendingEpisode &episode = pending_[thread];
    lag_assert(episode.open, "interval outside an episode on thread ",
               thread);
    const std::size_t index = episode.arena.size();
    episode.arena.push_back(std::move(node));
    if (episode.stack.empty())
        episode.roots.push_back(index);
    else
        episode.arena[episode.stack.back()].children.push_back(index);
    episode.stack.push_back(index);
}

void
LilaAgent::closeNode(ThreadId thread, TimeNs time)
{
    const auto it = pending_.find(thread);
    lag_assert(it != pending_.end() && it->second.open &&
                   !it->second.stack.empty(),
               "interval end without begin on thread ", thread);
    PendingEpisode &episode = it->second;
    episode.arena[episode.stack.back()].end = time;
    episode.stack.pop_back();
}

void
LilaAgent::onIntervalBegin(ThreadId thread, jvm::ActivityKind kind,
                           const jvm::Frame &frame, TimeNs time)
{
    const auto it = pending_.find(thread);
    if (it == pending_.end() || !it->second.open) {
        // Interval on a thread with no episode in flight (e.g. a
        // native call on a background thread). LiLa instruments the
        // dispatch threads; other threads are covered by sampling
        // only, so this is dropped — matching the paper's trace
        // content.
        return;
    }
    PendingNode node;
    node.kind = toIntervalKind(kind);
    node.classSym = trace_.strings.intern(frame.className);
    node.methodSym = trace_.strings.intern(frame.methodName);
    node.begin = time;
    pushNode(thread, std::move(node));
}

void
LilaAgent::onIntervalEnd(ThreadId thread, jvm::ActivityKind, TimeNs time)
{
    const auto it = pending_.find(thread);
    if (it == pending_.end() || !it->second.open)
        return;
    closeNode(thread, time);
}

void
LilaAgent::onGcBegin(TimeNs time, jvm::GcKind kind)
{
    // Attach the collection to an open episode when one exists so
    // that episode filtering sees it; otherwise record it directly.
    // Safe: the simulated VM stops the world for a collection, so
    // at most one episode can be open when a GC begins — whichever
    // entry the loop visits first is the only open one.
    for (auto &[tid, episode] : pending_) { // lag-lint: allow(unordered-iter)
        if (!episode.open)
            continue;
        PendingNode node;
        node.isGc = true;
        node.gcKind = toTraceGcKind(kind);
        node.begin = time;
        pushNode(tid, std::move(node));
        return;
    }
    lag_assert(!gc_open_outside_, "overlapping collections");
    gc_open_outside_ = true;
    gc_kind_outside_ = toTraceGcKind(kind);
    gc_begin_outside_ = time;
}

void
LilaAgent::onGcEnd(TimeNs time)
{
    if (gc_open_outside_) {
        gc_open_outside_ = false;
        trace::TraceEvent begin;
        begin.type = trace::EventType::GcBegin;
        begin.time = gc_begin_outside_;
        begin.gcKind = gc_kind_outside_;
        trace_.events.push_back(begin);
        trace::TraceEvent end;
        end.type = trace::EventType::GcEnd;
        end.time = time;
        trace_.events.push_back(end);
        return;
    }
    // Safe: mirrors onGcBegin — at most one open episode exists.
    for (auto &[tid, episode] : pending_) { // lag-lint: allow(unordered-iter)
        if (!episode.open)
            continue;
        lag_assert(!episode.stack.empty() &&
                       episode.arena[episode.stack.back()].isGc,
                   "GC end does not match an open GC node");
        closeNode(tid, time);
        return;
    }
    lag_panic("GC end without a matching begin");
}

void
LilaAgent::onSample(TimeNs time,
                    const std::vector<jvm::ThreadSnapshot> &snapshots)
{
    if (config_.samplesOnlyInEpisodes && !anyEpisodeOpen())
        return;
    trace::SampleColumns &samples = trace_.samples;
    samples.addSample(time);
    for (const auto &snap : snapshots) {
        samples.addEntry(snap.thread, toTraceThreadState(snap.state));
        for (const auto &frame : snap.stack) {
            samples.addFrame(trace::SampleFrame{
                trace_.strings.intern(frame.className),
                trace_.strings.intern(frame.methodName)});
        }
    }
}

bool
LilaAgent::anyEpisodeOpen() const
{
    // Safe: existence check, independent of iteration order.
    for (const auto &[tid, episode] : pending_) { // lag-lint: allow(unordered-iter)
        if (episode.open)
            return true;
    }
    return false;
}

void
LilaAgent::emitNode(const PendingEpisode &episode, std::size_t index)
{
    const PendingNode &node = episode.arena[index];
    lag_assert(node.end != kNoTime, "emitting an open interval");

    if (!node.isGc && node.end - node.begin < config_.filterThreshold) {
        // Too short to record; keep any collections underneath it.
        emitGcOnly(episode, index);
        return;
    }

    trace::TraceEvent begin;
    begin.time = node.begin;
    if (node.isGc) {
        begin.type = trace::EventType::GcBegin;
        begin.gcKind = node.gcKind;
    } else {
        begin.type = trace::EventType::IntervalBegin;
        begin.thread = episode.thread;
        begin.kind = node.kind;
        begin.classSym = node.classSym;
        begin.methodSym = node.methodSym;
    }
    trace_.events.push_back(begin);

    for (const std::size_t child : node.children)
        emitNode(episode, child);

    trace::TraceEvent end;
    end.time = node.end;
    if (node.isGc) {
        end.type = trace::EventType::GcEnd;
    } else {
        end.type = trace::EventType::IntervalEnd;
        end.thread = episode.thread;
        end.kind = node.kind;
    }
    trace_.events.push_back(end);
}

void
LilaAgent::emitGcOnly(const PendingEpisode &episode, std::size_t index)
{
    const PendingNode &node = episode.arena[index];
    if (node.isGc) {
        trace::TraceEvent begin;
        begin.type = trace::EventType::GcBegin;
        begin.time = node.begin;
        begin.gcKind = node.gcKind;
        trace_.events.push_back(begin);
        trace::TraceEvent end;
        end.type = trace::EventType::GcEnd;
        end.time = node.end;
        trace_.events.push_back(end);
        return;
    }
    for (const std::size_t child : node.children)
        emitGcOnly(episode, child);
}

} // namespace lag::lila
