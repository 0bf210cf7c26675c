/**
 * @file
 * Trigger analysis: input, output, or asynchronous events (§IV.C).
 *
 * The trigger of an episode is determined by a preorder traversal of
 * its interval tree: the first Listener interval means the episode
 * handled user input; the first Paint interval means it produced
 * output; the first Async interval means it handled a notification
 * from a background thread. Episodes with none of these (no children
 * at all, or none that survived the profiler's 3 ms filter) are
 * unspecified.
 *
 * Swing's repaint manager enqueues repaints in a way that makes some
 * output episodes look asynchronous; following the paper's footnote,
 * an Async trigger whose first nested interval is a Paint is
 * reclassified as output.
 */

#ifndef LAG_CORE_TRIGGERS_HH
#define LAG_CORE_TRIGGERS_HH

#include <array>
#include <cstdint>

#include "flat_tree.hh"
#include "session.hh"

namespace lag::core
{

/** Episode trigger category. */
enum class TriggerKind : std::uint8_t
{
    Input = 0,
    Output = 1,
    Async = 2,
    Unspecified = 3,
};

/** Human-readable name of a trigger kind. */
const char *triggerKindName(TriggerKind kind);

/**
 * Classify the episode rooted at flat node @p root.  The preorder
 * marker search is a byte scan of the type array over the root's
 * slice (findFirstMarker, flat_tree.hh).
 */
TriggerKind flatEpisodeTrigger(const FlatTree &tree,
                               std::uint32_t root);

/** Trigger shares over a set of episodes (fractions sum to 1). */
struct TriggerShares
{
    double input = 0.0;
    double output = 0.0;
    double async = 0.0;
    double unspecified = 0.0;
    std::size_t episodeCount = 0;
};

/** Result over all episodes and over perceptible episodes only,
 * matching the two graphs of Figure 5. */
struct TriggerAnalysisResult
{
    TriggerShares all;
    TriggerShares perceptible;
};

/**
 * Integer partial of the trigger analysis over an episode range.
 * Partials over disjoint ranges merge by addition, so any contiguous
 * sharding finishes to the exact bytes of the serial analysis.
 */
struct TriggerCounts
{
    std::array<std::size_t, 4> all{};         ///< by TriggerKind
    std::array<std::size_t, 4> perceptible{}; ///< by TriggerKind

    void
    merge(const TriggerCounts &other)
    {
        for (std::size_t i = 0; i < all.size(); ++i) {
            all[i] += other.all[i];
            perceptible[i] += other.perceptible[i];
        }
    }
};

/** Tally triggers over episodes [begin, end). */
TriggerCounts countTriggers(const Session &session, std::size_t begin,
                            std::size_t end,
                            DurationNs perceptible_threshold);

/** Turn merged counts into shares. */
TriggerAnalysisResult finishTriggers(const TriggerCounts &counts);

/** Run the trigger analysis on a session. */
TriggerAnalysisResult analyzeTriggers(const Session &session,
                                      DurationNs perceptible_threshold);

} // namespace lag::core

#endif // LAG_CORE_TRIGGERS_HH
