#include "session.hh"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hh"
#include "obs/span.hh"
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

/** One collection; every thread's tree gets a copy of it. */
struct Collection
{
    TimeNs begin = 0;
    TimeNs end = 0;
    trace::TraceGcKind kind = trace::TraceGcKind::Minor;
};

[[noreturn]] void
throwTooDeep()
{
    throw TraceError("trace nests intervals deeper than the supported "
                     "maximum (" +
                     std::to_string(kMaxIntervalDepth) + ")");
}

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
 */
class TreeBuilder
{
  public:
    explicit TreeBuilder(const trace::TraceThread &thread)
    {
        tree_.id = thread.id;
        tree_.name = thread.name;
        tree_.isGui = thread.isGui;
    }

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

    /** Place every pending collection (end of the stream). */
    void
    placeAll(const std::vector<Collection> &collections)
    {
        for (; pending_ < collections.size(); ++pending_) {
            if (gcError_ == nullptr)
                place(collections[pending_]);
        }
    }

    bool hasOpen() const { return !stack_.empty(); }

    /** The first placement that failed, or null. */
    const char *gcError() const { return gcError_; }

    /** Fill the root list and GC prefix sums; the tree is done. */
    FlatTree
    finish()
    {
        const auto n = static_cast<std::uint32_t>(tree_.size());
        for (std::uint32_t i = 0; i < n; i = tree_.subtreeEnd[i])
            tree_.roots.push_back(i); // lag-lint: allow(reserve-loop)
        tree_.gcCountBefore.resize(n + 1);
        tree_.gcTimeBefore.resize(n + 1);
        tree_.gcCountBefore[0] = 0;
        tree_.gcTimeBefore[0] = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            const bool is_gc = tree_.typeOf(i) == IntervalType::Gc;
            tree_.gcCountBefore[i + 1] =
                tree_.gcCountBefore[i] + (is_gc ? 1U : 0U);
            tree_.gcTimeBefore[i + 1] =
                tree_.gcTimeBefore[i] + (is_gc ? tree_.duration(i) : 0);
        }
        return std::move(tree_);
    }

  private:
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
        const auto rotate = [pos](auto &v) {
            std::rotate(v.begin() + pos, v.end() - 1, v.end());
        };
        rotate(tree_.begin);
        rotate(tree_.end);
        rotate(tree_.subtreeEnd);
        rotate(tree_.classSym);
        rotate(tree_.methodSym);
        rotate(tree_.type);
        rotate(tree_.gcKind);
        rotate(prevSibling_);
        rotate(lastChild_);
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
        if (next != kNone)
            prevSibling_[next + 1] = pos;
        else
            lastOf(parent) = pos;
        for (const std::uint32_t a : path_) {
            if (!isOpen(a))
                ++tree_.subtreeEnd[a];
        }
    }

    FlatTree tree_;
    /** Per node: previous sibling, and last child so far. */
    std::vector<std::uint32_t> prevSibling_;
    std::vector<std::uint32_t> lastChild_;
    std::vector<std::uint32_t> stack_; ///< open nodes, innermost last
    std::vector<std::uint32_t> path_;  ///< containers of a placement
    std::uint32_t lastRoot_ = kNone;
    std::size_t pending_ = 0; ///< first collection not yet placed
    const char *gcError_ = nullptr;
};

/**
 * True when some thread's begin events nest kMaxIntervalDepth deep
 * anywhere in the stream, counted as if every end event closed the
 * innermost open interval (and ends with nothing open were
 * ignored).  The depth bound outranks every other nesting error, so
 * a failed build asks this before reporting its own error.
 */
bool
nestsTooDeep(const trace::Trace &trace)
{
    std::unordered_map<ThreadId, std::size_t> depth;
    for (const auto &event : trace.events) {
        switch (event.type) {
          case EventType::DispatchBegin:
          case EventType::IntervalBegin:
            if (++depth[event.thread] >= kMaxIntervalDepth)
                return true;
            break;
          case EventType::DispatchEnd:
          case EventType::IntervalEnd: {
            std::size_t &d = depth[event.thread];
            if (d > 0)
                --d;
            break;
          }
          case EventType::GcBegin:
          case EventType::GcEnd:
            break;
        }
    }
    return false;
}

/** Replay the event stream into one tree per thread. */
std::vector<FlatTree>
buildTrees(const trace::Trace &trace)
{
    std::vector<TreeBuilder> builders;
    builders.reserve(trace.threads.size());
    std::unordered_map<ThreadId, std::size_t> index;
    for (const auto &thread : trace.threads) {
        index.emplace(thread.id, builders.size());
        builders.emplace_back(thread);
    }

    std::vector<Collection> collections;
    bool gc_open = false;
    Collection gc;
    TreeBuilder *builder = nullptr;
    ThreadId builder_thread = 0;
    for (const auto &event : trace.events) {
        switch (event.type) {
          case EventType::GcBegin:
            if (gc_open)
                throw TraceError("overlapping GC intervals");
            gc_open = true;
            gc = Collection{event.time, 0, event.gcKind};
            continue;
          case EventType::GcEnd:
            if (!gc_open)
                throw TraceError("GC end without begin");
            gc_open = false;
            gc.end = event.time;
            if (gc.end < gc.begin)
                throw TraceError("GC ends before it begins");
            // Collections arrive one at a time; their count is only
            // known at the end of the stream.
            collections.push_back(gc); // lag-lint: allow(reserve-loop)
            continue;
          default:
            break;
        }
        if (builder == nullptr || event.thread != builder_thread) {
            builder = &builders[index.at(event.thread)];
            builder_thread = event.thread;
        }
        builder->placeBefore(event.time, collections);
        switch (event.type) {
          case EventType::DispatchBegin:
            builder->open(IntervalType::Dispatch, event.time, 0, 0);
            break;
          case EventType::DispatchEnd:
            builder->close(event.time, /*expect_dispatch=*/true,
                           event.thread);
            break;
          case EventType::IntervalBegin:
            builder->open(fromTraceKind(event.kind), event.time,
                          event.classSym, event.methodSym);
            break;
          case EventType::IntervalEnd:
            builder->close(event.time, /*expect_dispatch=*/false,
                           event.thread);
            break;
          case EventType::GcBegin:
          case EventType::GcEnd:
            break;
        }
    }
    if (gc_open)
        throw TraceError("unterminated GC interval");

    // "Because a GC stops all threads, for a given garbage
    // collection we add a separate copy of the GC interval to the
    // interval trees of each thread" (paper §II.A).  Threads report
    // in roster order, each an open interval before a bad copy.
    std::vector<FlatTree> trees;
    trees.reserve(builders.size());
    for (std::size_t k = 0; k < builders.size(); ++k) {
        TreeBuilder &b = builders[k];
        if (b.hasOpen()) {
            throw TraceError("unterminated interval on thread " +
                             std::to_string(trace.threads[k].id));
        }
        b.placeAll(collections);
        if (b.gcError() != nullptr)
            throw TraceError(b.gcError());
        trees.push_back(b.finish());
    }
    return trees;
}

} // namespace

Session
Session::fromTrace(trace::Trace trace)
{
    LAG_SPAN_ARG("session.build", "events", trace.events.size());
    static obs::Counter &build_count =
        obs::metrics().counter("session.build.count");
    build_count.add();

    trace.validate();

    Session session;
    {
        LAG_SPAN("session.build.replay");
        try {
            session.flat_.trees_ = buildTrees(trace);
        } catch (const TraceError &) {
            if (nestsTooDeep(trace))
                throwTooDeep();
            throw;
        }
    }
    session.meta_ = std::move(trace.meta);
    session.samples_ = std::move(trace.samples);
    session.strings_ = std::move(trace.strings);

    // Collect episodes from dispatch threads, in time order.
    LAG_SPAN("session.build.episodes");
    const std::vector<FlatTree> &trees = session.flat_.trees_;
    std::size_t episodeCount = 0;
    for (const FlatTree &tree : trees) {
        if (!tree.isGui)
            continue;
        for (const std::uint32_t root : tree.roots) {
            if (tree.typeOf(root) == IntervalType::Dispatch)
                ++episodeCount;
        }
    }
    session.episodes_.reserve(episodeCount);
    for (std::size_t t = 0; t < trees.size(); ++t) {
        const FlatTree &tree = trees[t];
        if (!tree.isGui)
            continue;
        for (std::size_t r = 0; r < tree.roots.size(); ++r) {
            const std::uint32_t root = tree.roots[r];
            if (tree.typeOf(root) != IntervalType::Dispatch)
                continue;
            Episode episode;
            episode.thread = tree.id;
            episode.treeIndex = t;
            episode.rootIndex = r;
            episode.begin = tree.begin[root];
            episode.end = tree.end[root];
            session.episodes_.push_back(episode);
        }
    }
    std::sort(session.episodes_.begin(), session.episodes_.end(),
              [](const Episode &a, const Episode &b) {
                  return a.begin < b.begin;
              });

    // Assign each episode its in-flight sample range, and index its
    // flat root.  Episodes are sorted by begin, so the first sample
    // of each only moves forward.
    const auto &samples = session.samples_;
    session.flat_.episodeTree_.reserve(episodeCount);
    session.flat_.episodeNode_.reserve(episodeCount);
    auto lo = samples.begin();
    for (auto &episode : session.episodes_) {
        while (lo != samples.end() && lo->time < episode.begin)
            ++lo;
        auto hi = lo;
        while (hi != samples.end() && hi->time <= episode.end)
            ++hi;
        episode.firstSample =
            static_cast<std::size_t>(lo - samples.begin());
        episode.lastSample =
            static_cast<std::size_t>(hi - samples.begin());
        session.flat_.episodeTree_.push_back(
            static_cast<std::uint32_t>(episode.treeIndex));
        session.flat_.episodeNode_.push_back(
            session.episodeRoot(episode));
    }

    return session;
}

const FlatTree &
Session::threadTree(ThreadId id) const
{
    for (const auto &tree : flat_.trees()) {
        if (tree.id == id)
            return tree;
    }
    throw trace::TraceError("unknown thread id " + std::to_string(id));
}

ThreadId
Session::guiThread() const
{
    for (const auto &tree : flat_.trees()) {
        if (tree.isGui)
            return tree.id;
    }
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
