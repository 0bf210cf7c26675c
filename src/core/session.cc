#include "session.hh"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "trace/io.hh"
#include "trace/mapped_file.hh"
#include "util/logging.hh"

namespace lag::core
{

namespace
{

using trace::EventType;
using trace::TraceError;

/** No node: an empty sibling list or a missing link. */
constexpr std::uint32_t kNone = UINT32_MAX;

/** subtreeEnd of a node whose end event is still to come; a closed
 * node's subtreeEnd is at least its own index + 1. */
constexpr std::uint32_t kOpen = 0;

[[noreturn]] void
throwTooDeep()
{
    throw TraceError("trace nests intervals deeper than the supported "
                     "maximum (" +
                     std::to_string(kMaxIntervalDepth) + ")");
}

bool
isBegin(EventType type)
{
    return type == EventType::DispatchBegin ||
           type == EventType::IntervalBegin;
}

bool
isEnd(EventType type)
{
    return type == EventType::DispatchEnd ||
           type == EventType::IntervalEnd;
}

} // namespace

/**
 * One thread's flat tree under construction.  Begin events append
 * nodes in preorder and end events close them, so the arrays grow
 * only at their tail.  Each collection's copy is placed once no
 * later event of this thread can change where it belongs, that is
 * before the thread's first event after the collection ends (or at
 * the end of the stream).  Placement follows the tree rule: the copy
 * goes into the deepest non-GC interval that contains it, bounds
 * inclusive, choosing the first such sibling in time order, and may
 * not cross the boundary of any other interval.  Only coincident
 * timestamps (an interval that began at exactly the collection's
 * end) can put a copy before nodes already appended; those few tail
 * nodes shift up by one.
 *
 * A cut places the pending copies provisionally (as the end of the
 * stream would) and rollback() takes them back.  Begin times never
 * decrease in preorder, so such a placement rewrites only nodes
 * from the first one that begins at or after the earliest pending
 * collection, plus the subtree ends and last-child links of that
 * placement's ancestors: the checkpoint saves the former and
 * journals the latter.
 */
class SessionBuilder::TreeBuilder
{
  public:
    explicit TreeBuilder(FlatTree &tree) : tree_(tree) {}

    /** A begin event: append an open node below the innermost one. */
    void
    open(IntervalType type, TimeNs time, SymbolId cls, SymbolId method)
    {
        if (stack_.size() + 1 >= kMaxIntervalDepth)
            throwTooDeep();
        const auto i = static_cast<std::uint32_t>(tree_.size());
        std::uint32_t &last = lastOf(parent());
        const std::uint32_t prev = last;
        last = i;
        append(type, time, 0, kOpen, cls, method, 0, prev);
        stack_.push_back(i);
    }

    /** An end event: close the innermost open node. */
    void
    close(TimeNs time, bool expect_dispatch, ThreadId thread)
    {
        if (stack_.empty()) {
            throw TraceError("interval end without begin on thread " +
                             std::to_string(thread));
        }
        const std::uint32_t i = stack_.back();
        stack_.pop_back();
        const bool is_dispatch =
            tree_.typeOf(i) == IntervalType::Dispatch;
        if (is_dispatch != expect_dispatch) {
            throw TraceError("mismatched begin/end types on thread " +
                             std::to_string(thread));
        }
        if (time < tree_.begin[i])
            throw TraceError("interval ends before it begins");
        tree_.end[i] = time;
        tree_.subtreeEnd[i] = static_cast<std::uint32_t>(tree_.size());
        touch(i);
    }

    /** Place the pending collections that end before @p time. */
    void
    placeBefore(TimeNs time, const std::vector<Collection> &collections)
    {
        while (pending_ < collections.size() &&
               collections[pending_].end < time) {
            if (gcError_ == nullptr)
                place(collections[pending_]);
            ++pending_;
        }
    }

    /**
     * Place every pending collection as the end of the stream does,
     * keeping what rollback() needs to take the placements back.
     */
    void
    placeProvisionally(const std::vector<Collection> &collections)
    {
        if (pending_ == collections.size())
            return;
        provisional_ = true;
        savedPending_ = pending_;
        savedLastRoot_ = lastRoot_;
        savedGcError_ = gcError_;
        savedFrom_ = static_cast<std::uint32_t>(
            std::lower_bound(tree_.begin.begin(), tree_.begin.end(),
                             collections[pending_].begin) -
            tree_.begin.begin());
        eachArray([this](auto &v, auto &saved) {
            saved.assign(v.begin() + savedFrom_, v.end());
        });
        journal_.clear();
        for (; pending_ < collections.size(); ++pending_) {
            if (gcError_ == nullptr)
                place(collections[pending_]);
        }
    }

    /** Undo placeProvisionally(), if the last cut placed anything. */
    void
    rollback()
    {
        if (!provisional_)
            return;
        provisional_ = false;
        for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
            tree_.subtreeEnd[it->node] = it->subtreeEnd;
            lastChild_[it->node] = it->lastChild;
        }
        eachArray([this](auto &v, const auto &saved) {
            v.resize(savedFrom_);
            v.insert(v.end(), saved.begin(), saved.end());
        });
        pending_ = savedPending_;
        lastRoot_ = savedLastRoot_;
        gcError_ = savedGcError_;
        touch(savedFrom_);
    }

    bool hasOpen() const { return !stack_.empty(); }
    std::size_t openCount() const { return stack_.size(); }

    /** The first placement that failed, or null. */
    const char *gcError() const { return gcError_; }

    /** Bring the root list and GC prefix sums up to date: only what
     * lies past the first node touched since the last call changes
     * (and the root holding it, whose subtree may have grown). */
    void
    finish()
    {
        const auto n = static_cast<std::uint32_t>(tree_.size());
        std::vector<std::uint32_t> &roots = tree_.roots;
        while (!roots.empty() && roots.back() >= dirtyFrom_)
            roots.pop_back();
        std::uint32_t i = 0;
        if (!roots.empty()) {
            i = roots.back();
            roots.pop_back();
        }
        for (; i < n; i = tree_.subtreeEnd[i])
            roots.push_back(i); // lag-lint: allow(reserve-loop)
        tree_.gcCountBefore.resize(n + 1);
        tree_.gcTimeBefore.resize(n + 1);
        for (std::uint32_t j = dirtyFrom_; j < n; ++j) {
            const bool is_gc = tree_.typeOf(j) == IntervalType::Gc;
            tree_.gcCountBefore[j + 1] =
                tree_.gcCountBefore[j] + (is_gc ? 1U : 0U);
            tree_.gcTimeBefore[j + 1] =
                tree_.gcTimeBefore[j] + (is_gc ? tree_.duration(j) : 0);
        }
        dirtyFrom_ = n;
    }

  private:
    /** A subtree end and last-child link a provisional placement
     * overwrote below the saved tail. */
    struct JournalEntry
    {
        std::uint32_t node = 0;
        std::uint32_t subtreeEnd = 0;
        std::uint32_t lastChild = 0;
    };

    /** Apply @p f to each per-node array and its checkpoint copy. */
    template <typename F>
    void
    eachArray(F &&f)
    {
        f(tree_.begin, saved_.begin);
        f(tree_.end, saved_.end);
        f(tree_.subtreeEnd, saved_.subtreeEnd);
        f(tree_.classSym, saved_.classSym);
        f(tree_.methodSym, saved_.methodSym);
        f(tree_.type, saved_.type);
        f(tree_.gcKind, saved_.gcKind);
        f(prevSibling_, savedPrevSibling_);
        f(lastChild_, savedLastChild_);
    }

    /** Node @p i changed: roots and prefix sums from it are stale. */
    void
    touch(std::uint32_t i)
    {
        dirtyFrom_ = std::min(dirtyFrom_, i);
    }

    std::uint32_t
    parent() const
    {
        return stack_.empty() ? kNone : stack_.back();
    }

    /** Last node of the sibling list below @p parent (kNone: the
     * roots). */
    std::uint32_t &
    lastOf(std::uint32_t parent)
    {
        return parent == kNone ? lastRoot_ : lastChild_[parent];
    }

    bool
    isOpen(std::uint32_t i) const
    {
        return tree_.subtreeEnd[i] == kOpen;
    }

    void
    append(IntervalType type, TimeNs begin, TimeNs end,
           std::uint32_t subtree_end, SymbolId cls, SymbolId method,
           std::uint8_t gc_kind, std::uint32_t prev)
    {
        touch(static_cast<std::uint32_t>(tree_.size()));
        tree_.begin.push_back(begin);
        tree_.end.push_back(end);
        tree_.subtreeEnd.push_back(subtree_end);
        tree_.classSym.push_back(cls);
        tree_.methodSym.push_back(method);
        tree_.type.push_back(static_cast<std::uint8_t>(type));
        tree_.gcKind.push_back(gc_kind);
        prevSibling_.push_back(prev);
        lastChild_.push_back(kNone);
    }

    /** Move the last node to preorder index @p pos: every node from
     * @p pos on moves up one, and so does every link to one.  Only
     * the nodes after @p pos, the ancestors of @p pos (all on
     * path_) and the open stack can refer past @p pos. */
    void
    moveLastTo(std::uint32_t pos)
    {
        eachArray([pos](auto &v, auto &) {
            std::rotate(v.begin() + pos, v.end() - 1, v.end());
        });
        const auto bump = [pos](std::uint32_t &link) {
            if (link != kNone && link >= pos)
                ++link;
        };
        for (std::size_t j = pos + 1; j < tree_.size(); ++j) {
            if (!isOpen(static_cast<std::uint32_t>(j)))
                ++tree_.subtreeEnd[j];
            bump(prevSibling_[j]);
            bump(lastChild_[j]);
        }
        for (const std::uint32_t a : path_)
            bump(lastChild_[a]);
        bump(lastRoot_);
        for (std::uint32_t &open_node : stack_)
            bump(open_node);
    }

    void
    place(const Collection &gc)
    {
        // Descend into the first sibling (in time order) that
        // contains the collection.  Siblings' begins and ends never
        // decrease, so only the trailing run of siblings that end at
        // or after it can; an open node ends later than it.
        path_.clear();
        std::uint32_t parent = kNone;
        while (true) {
            std::uint32_t container = kNone;
            for (std::uint32_t s = lastOf(parent);
                 s != kNone && (isOpen(s) || tree_.end[s] >= gc.end);
                 s = prevSibling_[s]) {
                if (tree_.typeOf(s) != IntervalType::Gc &&
                    tree_.begin[s] <= gc.begin)
                    container = s;
            }
            if (container == kNone)
                break;
            // Ancestors are few; the path is reused across calls.
            path_.push_back(container); // lag-lint: allow(reserve-loop)
            parent = container;
        }

        // Insert before the first sibling that begins at or after
        // the collection; neither neighbour may cross it.
        std::uint32_t next = kNone;
        std::uint32_t prev = lastOf(parent);
        while (prev != kNone && tree_.begin[prev] >= gc.begin) {
            next = prev;
            prev = prevSibling_[prev];
        }
        if (prev != kNone && (isOpen(prev) || tree_.end[prev] > gc.begin)) {
            gcError_ = "GC interval crosses an interval boundary (begin)";
            return;
        }
        if (next != kNone && tree_.begin[next] < gc.end) {
            gcError_ = "GC interval crosses an interval boundary (end)";
            return;
        }

        if (provisional_) {
            for (const std::uint32_t a : path_) {
                if (a < savedFrom_) {
                    // Ancestors are few.
                    journal_.push_back( // lag-lint: allow(reserve-loop)
                        {a, tree_.subtreeEnd[a], lastChild_[a]});
                }
            }
        }
        std::uint32_t pos = parent == kNone ? 0 : parent + 1;
        if (next != kNone)
            pos = next;
        else if (prev != kNone)
            pos = tree_.subtreeEnd[prev];
        const auto last = static_cast<std::uint32_t>(tree_.size());
        append(IntervalType::Gc, gc.begin, gc.end, pos + 1, 0, 0,
               static_cast<std::uint8_t>(gc.kind), prev);
        if (pos != last)
            moveLastTo(pos);
        touch(pos);
        if (next != kNone)
            prevSibling_[next + 1] = pos;
        else
            lastOf(parent) = pos;
        for (const std::uint32_t a : path_) {
            if (!isOpen(a))
                ++tree_.subtreeEnd[a];
        }
    }

    FlatTree &tree_;
    /** Per node: previous sibling, and last child so far. */
    std::vector<std::uint32_t> prevSibling_;
    std::vector<std::uint32_t> lastChild_;
    std::vector<std::uint32_t> stack_; ///< open nodes, innermost last
    std::vector<std::uint32_t> path_;  ///< containers of a placement
    std::uint32_t lastRoot_ = kNone;
    std::size_t pending_ = 0; ///< first collection not yet placed
    const char *gcError_ = nullptr;
    /** Roots and prefix sums are current below this node. */
    std::uint32_t dirtyFrom_ = 0;

    /** @name Checkpoint of the last provisional placement. @{ */
    bool provisional_ = false;
    std::uint32_t savedFrom_ = 0; ///< nodes from here on are saved
    FlatTree saved_;              ///< their per-node arrays
    std::vector<std::uint32_t> savedPrevSibling_;
    std::vector<std::uint32_t> savedLastChild_;
    std::vector<JournalEntry> journal_; ///< ancestors below savedFrom_
    std::size_t savedPending_ = 0;
    std::uint32_t savedLastRoot_ = kNone;
    const char *savedGcError_ = nullptr;
    /** @} */
};

SessionBuilder::SessionBuilder(TimeNs startTime,
                               const std::vector<trace::TraceThread> &threads,
                               trace::StringTable strings)
{
    session_.strings_ = std::move(strings);
    try {
        validator_.emplace(startTime, threads, session_.strings_.size());
    } catch (const TraceError &e) {
        fail(Failure::Head, e);
    }
    std::vector<FlatTree> &trees = session_.flat_.trees_;
    trees.resize(threads.size());
    builders_.reserve(threads.size());
    for (std::size_t k = 0; k < threads.size(); ++k) {
        trees[k].id = threads[k].id;
        trees[k].name = threads[k].name;
        trees[k].isGui = threads[k].isGui;
        index_.emplace(threads[k].id, k);
        builders_.emplace_back(trees[k]);
        if (threads[k].isGui && session_.guiTree_ == Session::kNoGui)
            session_.guiTree_ = k;
    }
    rescanRoot_.assign(threads.size(), 0);
}

void
SessionBuilder::fail(Failure failure, const TraceError &e)
{
    if (failure < failure_) {
        failure_ = failure;
        error_ = e.what();
    }
}

void
SessionBuilder::rollback()
{
    for (TreeBuilder &builder : builders_)
        builder.rollback();
}

void
SessionBuilder::appendEvents(std::span<const trace::TraceEvent> events)
{
    // Nothing after the first invalid event matters: its error
    // outranks every later one.
    if (failure_ <= Failure::Events)
        return;
    LAG_SPAN("session.build.replay");
    rollback();
    for (const trace::TraceEvent &event : events) {
        try {
            validator_->checkEvent(event);
        } catch (const TraceError &e) {
            fail(Failure::Events, e);
            return;
        }
        if (failure_ == Failure::Nesting) {
            countDepth(event);
            continue;
        }
        if (failure_ != Failure::None)
            continue; // a sample error outranks the replay's
        try {
            replay(event);
        } catch (const TraceError &e) {
            // The depth bound outranks every other nesting error, so
            // keep counting depth over the rest of the stream: from
            // here on as if every end closed the innermost open
            // interval.  Up to this event that is exactly the
            // builders' stacks (a failed end has already popped; a
            // failed begin is the depth bound).
            fail(Failure::Nesting, e);
            depth_.resize(builders_.size());
            for (std::size_t k = 0; k < builders_.size(); ++k)
                depth_[k] = builders_[k].openCount();
            if (isBegin(event.type))
                countDepth(event);
        }
    }
}

void
SessionBuilder::countDepth(const trace::TraceEvent &event)
{
    if (isBegin(event.type)) {
        if (++depth_[index_.at(event.thread)] >= kMaxIntervalDepth)
            tooDeep_ = true;
    } else if (isEnd(event.type)) {
        std::size_t &d = depth_[index_.at(event.thread)];
        if (d > 0)
            --d;
    }
}

void
SessionBuilder::replay(const trace::TraceEvent &event)
{
    switch (event.type) {
      case EventType::GcBegin:
        if (gcOpen_)
            throw TraceError("overlapping GC intervals");
        gcOpen_ = true;
        gc_ = Collection{event.time, 0, event.gcKind};
        return;
      case EventType::GcEnd:
        if (!gcOpen_)
            throw TraceError("GC end without begin");
        gcOpen_ = false;
        gc_.end = event.time;
        if (gc_.end < gc_.begin)
            throw TraceError("GC ends before it begins");
        // Collections arrive one at a time; their count is only
        // known at the end of the stream.
        collections_.push_back(gc_); // lag-lint: allow(reserve-loop)
        return;
      default:
        break;
    }
    if (builder_ == nullptr || event.thread != builderThread_) {
        builder_ = &builders_[index_.at(event.thread)];
        builderThread_ = event.thread;
    }
    builder_->placeBefore(event.time, collections_);
    switch (event.type) {
      case EventType::DispatchBegin:
        builder_->open(IntervalType::Dispatch, event.time, 0, 0);
        break;
      case EventType::DispatchEnd:
        builder_->close(event.time, /*expect_dispatch=*/true,
                        event.thread);
        break;
      case EventType::IntervalBegin:
        builder_->open(fromTraceKind(event.kind), event.time,
                       event.classSym, event.methodSym);
        break;
      case EventType::IntervalEnd:
        builder_->close(event.time, /*expect_dispatch=*/false,
                        event.thread);
        break;
      case EventType::GcBegin:
      case EventType::GcEnd:
        break;
    }
}

void
SessionBuilder::acceptSamples(std::size_t from)
{
    trace::SampleColumns &samples = session_.samples_;
    for (std::size_t s = from; s < samples.size(); ++s) {
        if (failure_ > Failure::Samples) {
            try {
                validator_->checkSample(samples, s);
                continue;
            } catch (const TraceError &e) {
                fail(Failure::Samples, e);
            }
        }
        // Nothing after the first invalid sample matters.
        samples.truncate(s);
        return;
    }
}

const Session &
SessionBuilder::cut(const trace::TraceMeta &meta)
{
    static obs::Counter &build_count =
        obs::metrics().counter("session.build.count");
    build_count.add();

    trace::TraceValidator::checkMeta(meta);
    if (failure_ == Failure::Nesting && tooDeep_)
        throwTooDeep();
    if (failure_ != Failure::None)
        throw TraceError(error_);

    rollback();
    if (gcOpen_)
        throw TraceError("unterminated GC interval");
    // "Because a GC stops all threads, for a given garbage
    // collection we add a separate copy of the GC interval to the
    // interval trees of each thread" (paper §II.A).  Threads report
    // in roster order, each an open interval before a bad copy.
    for (std::size_t k = 0; k < builders_.size(); ++k) {
        TreeBuilder &b = builders_[k];
        if (b.hasOpen()) {
            throw TraceError("unterminated interval on thread " +
                             std::to_string(session_.flat_.trees_[k].id));
        }
        b.placeProvisionally(collections_);
        if (b.gcError() != nullptr)
            throw TraceError(b.gcError());
    }
    for (TreeBuilder &b : builders_)
        b.finish();

    session_.meta_ = meta;
    const std::size_t kept = settled_;
    const bool new_samples = session_.samples_.size() != cutSamples_;
    collectEpisodes(kept);
    assignSamples(new_samples ? sampled_ : kept);
    settle();
    return session_;
}

void
SessionBuilder::collectEpisodes(std::size_t kept)
{
    // Episodes past the settled prefix are collected again from
    // their trees' dispatch roots, in time order with ties broken
    // by roster order and then root order.
    LAG_SPAN("session.build.episodes");
    std::vector<Episode> &episodes = session_.episodes_;
    FlatSession &flat = session_.flat_;
    episodes.resize(kept);
    flat.episodeTree_.resize(kept);
    flat.episodeNode_.resize(kept);
    const std::vector<FlatTree> &trees = flat.trees_;
    for (std::size_t t = 0; t < trees.size(); ++t) {
        const FlatTree &tree = trees[t];
        if (!tree.isGui)
            continue;
        for (std::size_t r = rescanRoot_[t]; r < tree.roots.size(); ++r) {
            const std::uint32_t root = tree.roots[r];
            if (tree.typeOf(root) != IntervalType::Dispatch)
                continue;
            Episode episode;
            episode.thread = tree.id;
            episode.treeIndex = t;
            episode.rootIndex = r;
            episode.begin = tree.begin[root];
            episode.end = tree.end[root];
            // The count per cut is unknown until the roots are seen.
            episodes.push_back(episode); // lag-lint: allow(reserve-loop)
        }
    }
    std::sort(episodes.begin() + static_cast<std::ptrdiff_t>(kept),
              episodes.end(), [](const Episode &a, const Episode &b) {
                  if (a.begin != b.begin)
                      return a.begin < b.begin;
                  if (a.treeIndex != b.treeIndex)
                      return a.treeIndex < b.treeIndex;
                  return a.rootIndex < b.rootIndex;
              });
    flat.episodeTree_.reserve(episodes.size());
    flat.episodeNode_.reserve(episodes.size());
    for (std::size_t e = kept; e < episodes.size(); ++e) {
        flat.episodeTree_.push_back(
            static_cast<std::uint32_t>(episodes[e].treeIndex));
        flat.episodeNode_.push_back(session_.episodeRoot(episodes[e]));
    }
}

void
SessionBuilder::assignSamples(std::size_t from)
{
    // Each episode's in-flight samples are [first sample at or after
    // its begin, first sample after its end).  Episodes are sorted
    // by begin, so the first sample of each only moves forward.
    std::vector<Episode> &episodes = session_.episodes_;
    const std::vector<TimeNs> &times = session_.samples_.times();
    cutSamples_ = times.size();
    if (!times.empty())
        lastSampleTime_ = times.back();
    if (from == episodes.size())
        return;
    auto lo = std::partition_point(
        times.begin(), times.end(),
        [&](TimeNs t) { return t < episodes[from].begin; });
    for (std::size_t e = from; e < episodes.size(); ++e) {
        Episode &episode = episodes[e];
        while (lo != times.end() && *lo < episode.begin)
            ++lo;
        auto hi = lo;
        while (hi != times.end() && *hi <= episode.end)
            ++hi;
        episode.firstSample =
            static_cast<std::size_t>(lo - times.begin());
        episode.lastSample =
            static_cast<std::size_t>(hi - times.begin());
    }
}

void
SessionBuilder::settle()
{
    // Later events, later collections and every copy a later event
    // can still place differently (its thread's next event would
    // have to come at the collection's end) all lie at or after the
    // last event appended.  A copy lands only in intervals that
    // reach its end, so an episode that ends before that time can no
    // longer change, and no later episode can sort before it.
    const TimeNs horizon = validator_->lastEventTime();
    const std::vector<Episode> &episodes = session_.episodes_;
    while (settled_ < episodes.size() && episodes[settled_].end < horizon) {
        rescanRoot_[episodes[settled_].treeIndex] =
            episodes[settled_].rootIndex + 1;
        ++settled_;
    }
    // No later sample can land in an episode that ends before the
    // last sample so far.
    while (sampled_ < settled_ && cutSamples_ > 0 &&
           episodes[sampled_].end < lastSampleTime_)
        ++sampled_;
}

SessionBuilder::~SessionBuilder() = default;

void
SessionBuilder::append(std::span<const trace::TraceEvent> events,
                       const trace::SampleColumns &samples,
                       std::size_t from, std::size_t to)
{
    appendEvents(events);
    trace::SampleColumns &stored = session_.samples_;
    const std::size_t first = stored.size();
    stored.append(samples, from, to);
    acceptSamples(first);
}

Session
Session::fromTrace(trace::Trace trace)
{
    LAG_SPAN_ARG("session.build", "events", trace.events.size());
    SessionBuilder builder(trace.meta.startTime, trace.threads,
                           std::move(trace.strings));
    builder.appendEvents(trace.events);
    builder.session_.samples_ = std::move(trace.samples);
    builder.acceptSamples(0);
    builder.cut(trace.meta);
    return std::move(builder.session_);
}

Session
Session::fromFile(const std::string &path)
{
    const trace::MappedFile file(path);
    return fromTrace(trace::decodeTrace(file.view()));
}

void
Session::throwNoGui()
{
    throw trace::TraceError("trace has no GUI thread");
}

std::size_t
Session::perceptibleCount(DurationNs threshold) const
{
    std::size_t count = 0;
    for (const auto &episode : episodes_) {
        if (episode.duration() >= threshold)
            ++count;
    }
    return count;
}

} // namespace lag::core
