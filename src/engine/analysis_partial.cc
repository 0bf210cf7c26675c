#include "analysis_partial.hh"

#include "core/overview.hh"
#include "core/pattern_stats.hh"
#include "util/logging.hh"

namespace lag::engine
{

AnalysisPartial::AnalysisPartial(DurationNs perceptible_threshold)
    : threshold_(perceptible_threshold)
{
}

void
AnalysisPartial::fold(const core::Session &session, std::size_t tree_to,
                      std::size_t sample_to)
{
    const std::size_t tree_from = treeEnd();
    lag_assert(tree_from <= tree_to && sampleEnd_ <= sample_to,
               "an analysis partial only grows");
    core::PatternMiner(threshold_).mineInto(patterns_, session, tree_to);
    triggers_.merge(
        core::countTriggers(session, tree_from, tree_to, threshold_));
    location_.merge(core::countLocationTrees(session, tree_from, tree_to,
                                             threshold_));

    location_.merge(core::countLocationSamples(session, sampleEnd_,
                                               sample_to, threshold_));
    concurrency_.merge(core::countConcurrency(session, sampleEnd_,
                                              sample_to, threshold_));
    states_.merge(
        core::countGuiStates(session, sampleEnd_, sample_to, threshold_));
    sampleEnd_ = sample_to;
}

SessionAnalysis
AnalysisPartial::finish(const core::Session &session) &&
{
    const std::size_t n = session.episodes().size();
    fold(session, n, n);

    const core::PatternSet patterns =
        core::PatternMiner(threshold_).finish(std::move(patterns_));

    SessionAnalysis out;
    out.overview =
        core::computeOverview(session, patterns, threshold_);
    out.triggers = core::finishTriggers(triggers_);
    out.location = core::finishLocation(location_);
    out.concurrency = core::finishConcurrency(concurrency_);
    out.states = core::finishGuiStates(states_);
    out.occurrence = core::occurrenceShares(patterns);
    out.cdf = core::patternCdf(patterns);
    out.patternKeys.reserve(patterns.patterns.size());
    for (const core::Pattern &pattern : patterns.patterns)
        out.patternKeys.push_back(pattern.key);
    out.episodeDurations.reserve(n);
    for (const core::Episode &episode : session.episodes())
        out.episodeDurations.push_back(episode.duration());
    out.patternSummary = core::summarizePatterns(patterns);
    return out;
}

} // namespace lag::engine
