/**
 * @file
 * The per-session analysis as integer partials over the episode axis.
 *
 * Every per-session analysis is a fold over the session's episodes
 * in order — pattern mining (one growing PatternShard: first-seen
 * order and member lists follow the episode axis), triggers, location,
 * concurrency and GUI states (integer sums) — followed by a finish
 * step that turns the integers into the doubles of a
 * SessionAnalysis.  AnalysisPartial holds those partials over a
 * prefix of the episode axis and grows in place, so a live session
 * folds each episode once, when it can no longer change, and a
 * publish only finishes.  Because every partial is pure integer
 * arithmetic and the fold order is fixed by the episode axis, the
 * result is byte-identical to analyzeSession at any cut sequence.
 *
 * The partials come in two kinds with separate cursors: the tree
 * part of an episode (its pattern, trigger and location interval
 * times) is final once its subtree is, the sample part (location
 * samples, concurrency, GUI states) once its sample range is — and
 * a trace's samples arrive after all its events.
 */

#ifndef LAG_ENGINE_ANALYSIS_PARTIAL_HH
#define LAG_ENGINE_ANALYSIS_PARTIAL_HH

#include <cstddef>

#include "core/concurrency.hh"
#include "core/location.hh"
#include "core/pattern.hh"
#include "core/session.hh"
#include "core/triggers.hh"
#include "result_cache.hh"
#include "util/types.hh"

namespace lag::engine
{

/** The analyses' integer partials over a prefix of one session's
 * episodes; see the file comment. */
class AnalysisPartial
{
  public:
    explicit AnalysisPartial(DurationNs perceptible_threshold);

    /** Episodes whose tree part is folded: [0, treeEnd()). */
    std::size_t treeEnd() const { return patterns_.endEpisode; }

    /** Episodes whose sample part is folded: [0, sampleEnd()). */
    std::size_t sampleEnd() const { return sampleEnd_; }

    /**
     * Fold the tree part of episodes [treeEnd(), tree_to) and the
     * sample part of episodes [sampleEnd(), sample_to) of
     * @p session; neither cursor moves back.  The episodes already
     * folded must be unchanged in @p session.
     */
    void fold(const core::Session &session, std::size_t tree_to,
              std::size_t sample_to);

    /** Fold every remaining episode of @p session and finish. */
    SessionAnalysis finish(const core::Session &session) &&;

  private:
    DurationNs threshold_;
    core::PatternShard patterns_;
    core::TriggerCounts triggers_;
    core::LocationCounts location_;
    core::ConcurrencyCounts concurrency_;
    core::GuiStateCounts states_;
    std::size_t sampleEnd_ = 0;
};

} // namespace lag::engine

#endif // LAG_ENGINE_ANALYSIS_PARTIAL_HH
