/**
 * @file
 * The Session: LagAlyzer's in-memory model of one trace.
 *
 * "The core of LagAlyzer consists of an in-memory representation of
 * the latency traces [...]. This core provides the basis for the
 * visualizations and analyses" (paper §II.A). A Session owns the
 * per-thread interval trees, the list of episodes on the dispatch
 * thread(s), the stack samples, and the interned symbols.  The trees
 * have one representation, the flat preorder layout of flat_tree.hh,
 * which every analysis and renderer reads.
 *
 * One build path makes every session: a SessionBuilder replays the
 * events in a single stack pass (with nesting validation and with a
 * copy of every GC interval in every thread's tree) and can resume
 * it, so a trace that is still being written is appended piece by
 * piece and cut into a session at any point.  Session::fromTrace is
 * one append of the whole trace and one cut, and Session::fromFile
 * is one whole decode of a trace file and then fromTrace.
 *
 * The builder's TraceValidator is the one place a record's meaning
 * (time order, thread roster, symbol range) is checked, once per
 * record; the decoder checks only the wire form.  The stack samples
 * stay in the flat trace::SampleColumns they were decoded into: a
 * batch build moves the decoder's columns in, and a follow epoch
 * appends the new range of the tailer's columns in bulk.
 */

#ifndef LAG_CORE_SESSION_HH
#define LAG_CORE_SESSION_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "flat_tree.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace lag::core
{

/**
 * One episode: a Dispatch interval on a dispatch thread, plus the
 * range of stack samples that fall inside it.
 */
struct Episode
{
    ThreadId thread = 0;
    std::size_t treeIndex = 0;   ///< index into Session::threads()
    std::size_t rootIndex = 0;   ///< index into that tree's roots
    TimeNs begin = 0;
    TimeNs end = 0;
    std::size_t firstSample = 0; ///< [firstSample, lastSample)
    std::size_t lastSample = 0;

    DurationNs duration() const { return end - begin; }
};

/** A parsed, validated session ready for analysis. */
class Session
{
  public:
    /**
     * Build a session from a trace. Validates interval nesting and
     * GC containment; throws trace::TraceError on malformed input.
     * Episodes are ordered by begin time, ties by thread roster
     * order, then by time within the thread.
     */
    static Session fromTrace(trace::Trace trace);

    /** fromTrace of the trace file at @p path, decoded zero-copy
     * from its mapping (trace::decodeTrace). Throws TraceError. */
    static Session fromFile(const std::string &path);

    const trace::TraceMeta &meta() const { return meta_; }

    /** The interval trees, one per trace thread in roster order,
     * with the episode index. */
    const FlatSession &flat() const { return flat_; }

    /** Shorthand for flat().trees(). */
    const std::vector<FlatTree> &threads() const
    {
        return flat_.trees();
    }

    const std::vector<Episode> &episodes() const { return episodes_; }

    /** The stack samples, in time order; an episode's are
     * [firstSample, lastSample). */
    const trace::SampleColumns &samples() const { return samples_; }
    const trace::StringTable &strings() const { return strings_; }

    /** Resolve a symbol id. */
    const std::string &symbol(SymbolId id) const
    {
        return strings_.lookup(id);
    }

    /** The tree holding @p episode's dispatch interval. */
    const FlatTree &
    episodeTree(const Episode &episode) const
    {
        return flat_.trees()[episode.treeIndex];
    }

    /** Flat index of @p episode's dispatch interval in its tree. */
    std::uint32_t
    episodeRoot(const Episode &episode) const
    {
        return episodeTree(episode).roots[episode.rootIndex];
    }

    /** Id of the (first) GUI thread; throws if there is none. */
    ThreadId
    guiThread() const
    {
        if (guiTree_ == kNoGui)
            throwNoGui();
        return flat_.trees()[guiTree_].id;
    }

    /** Session wall time (end - start). */
    DurationNs wallTime() const
    {
        return meta_.endTime - meta_.startTime;
    }

    /** Count of episodes at or above @p threshold. */
    std::size_t perceptibleCount(DurationNs threshold) const;

  private:
    friend class SessionBuilder;

    static constexpr std::size_t kNoGui = static_cast<std::size_t>(-1);

    Session() = default;

    [[noreturn]] static void throwNoGui();

    trace::TraceMeta meta_;
    FlatSession flat_;
    std::vector<Episode> episodes_;
    trace::SampleColumns samples_;
    trace::StringTable strings_;
    /** Index of the first GUI thread's tree, or kNoGui. */
    std::size_t guiTree_ = kNoGui;
};

/**
 * Builds a Session from a trace that arrives in pieces: the events
 * and samples are appended as they come, and cut() finishes the
 * session over everything appended so far.  A cut is exactly the
 * session Session::fromTrace would build from a trace holding those
 * records (same arrays, roots, GC prefix sums, episodes and sample
 * ranges), or it throws the same TraceError with the same
 * precedence: validation first, then the depth bound, then nesting
 * errors in event order, then per thread in roster order an
 * unterminated interval before a bad GC copy.  Appending never
 * throws for bad input; the error waits for the cut.
 *
 * A cut redoes little beyond what was appended since the last one.
 * Each collection's copy is placed in a thread's tree
 * once no later event of that thread can change where it belongs;
 * a cut places the still-pending copies as the end of the stream
 * would and takes those placements back on the next append or cut.
 * Roots, GC prefix sums and episodes are re-derived only past the
 * first node the appended records touched, and episode sample
 * ranges only where a new sample can land.
 */
class SessionBuilder
{
  public:
    /** Start a session of @p threads whose symbols are @p strings.
     * Event and sample times are checked against @p startTime (the
     * meta start time, which no cut may change). */
    SessionBuilder(TimeNs startTime,
                   const std::vector<trace::TraceThread> &threads,
                   trace::StringTable strings);
    ~SessionBuilder();

    SessionBuilder(const SessionBuilder &) = delete;
    SessionBuilder &operator=(const SessionBuilder &) = delete;

    /** Feed the next events of the stream, and its next samples:
     * [@p from, @p to) of @p samples, appended to the session's
     * columns in bulk. */
    void append(std::span<const trace::TraceEvent> events,
                const trace::SampleColumns &samples, std::size_t from,
                std::size_t to);

    /** The session over everything appended so far, under @p meta;
     * valid until the next append() or cut(). */
    const Session &cut(const trace::TraceMeta &meta);

    /**
     * Leading episodes of the last cut that nothing appended later
     * can change: each ends before the last event appended, so no
     * later event, GC copy or tied begin can alter its subtree, its
     * tree and root index or its place in the order.
     */
    std::size_t settledEpisodes() const { return settled_; }

    /** Leading settled episodes whose sample range is final too: a
     * sample later than their end has already arrived. */
    std::size_t sampledEpisodes() const { return sampled_; }

  private:
    friend class Session;
    class TreeBuilder; ///< one thread's tree (session.cc)

    /** One collection; every thread's tree gets a copy of it. */
    struct Collection
    {
        TimeNs begin = 0;
        TimeNs end = 0;
        trace::TraceGcKind kind = trace::TraceGcKind::Minor;
    };

    /** Precedence classes of a build's errors, highest first. */
    enum class Failure : std::uint8_t
    {
        Head,    ///< duplicate thread id
        Events,  ///< event validation
        Samples, ///< sample validation
        Nesting, ///< the replay, in event order
        None,
    };

    void appendEvents(std::span<const trace::TraceEvent> events);
    void replay(const trace::TraceEvent &event);
    void countDepth(const trace::TraceEvent &event);
    /** Check and take in the session's samples from @p from on: the
     * first bad one and all after it are dropped. */
    void acceptSamples(std::size_t from);
    void fail(Failure failure, const trace::TraceError &e);
    /** Take back the last cut's provisional GC placements. */
    void rollback();
    void collectEpisodes(std::size_t kept);
    void assignSamples(std::size_t from);
    void settle();

    Session session_;
    std::vector<TreeBuilder> builders_; ///< one per roster thread
    std::unordered_map<ThreadId, std::size_t> index_;
    TreeBuilder *builder_ = nullptr; ///< builder of builderThread_
    ThreadId builderThread_ = 0;

    std::vector<Collection> collections_;
    bool gcOpen_ = false;
    Collection gc_; ///< the open collection

    std::optional<trace::TraceValidator> validator_;
    /** The first error of the highest class so far, for the cut. */
    Failure failure_ = Failure::None;
    std::string error_;
    /** After a nesting error: per-thread depth, counted as if every
     * end closed the innermost open interval (an end with nothing
     * open is ignored), and whether it reached kMaxIntervalDepth. */
    std::vector<std::size_t> depth_;
    bool tooDeep_ = false;

    std::size_t settled_ = 0;
    std::size_t sampled_ = 0;
    /** Per tree: first root position past the settled episodes. */
    std::vector<std::size_t> rescanRoot_;
    /** Samples in the last cut; the last one's time. */
    std::size_t cutSamples_ = 0;
    TimeNs lastSampleTime_ = 0;
};

} // namespace lag::core

#endif // LAG_CORE_SESSION_HH
