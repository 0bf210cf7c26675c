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
 * which Session::fromTrace builds in a single pass over the events
 * (with nesting validation and with a copy of every GC interval in
 * every thread's tree) and which every analysis and renderer reads.
 */

#ifndef LAG_CORE_SESSION_HH
#define LAG_CORE_SESSION_HH

#include <cstddef>
#include <cstdint>
#include <string>
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
     */
    static Session fromTrace(trace::Trace trace);

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
    const std::vector<trace::TraceSample> &samples() const
    {
        return samples_;
    }
    const trace::StringTable &strings() const { return strings_; }

    /** Resolve a symbol id. */
    const std::string &symbol(SymbolId id) const
    {
        return strings_.lookup(id);
    }

    /** The tree of the thread with @p id; throws if unknown. */
    const FlatTree &threadTree(ThreadId id) const;

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
    ThreadId guiThread() const;

    /** Session wall time (end - start). */
    DurationNs wallTime() const
    {
        return meta_.endTime - meta_.startTime;
    }

    /** Count of episodes at or above @p threshold. */
    std::size_t perceptibleCount(DurationNs threshold) const;

  private:
    Session() = default;

    trace::TraceMeta meta_;
    FlatSession flat_;
    std::vector<Episode> episodes_;
    std::vector<trace::TraceSample> samples_;
    trace::StringTable strings_;
};

} // namespace lag::core

#endif // LAG_CORE_SESSION_HH
