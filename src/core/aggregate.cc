#include "aggregate.hh"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "util/logging.hh"

namespace lag::core
{

std::size_t
MergedPatternSet::recurringCount() const
{
    std::size_t count = 0;
    for (const auto &pattern : patterns) {
        if (pattern.recurring(sessionCount))
            ++count;
    }
    return count;
}

std::size_t
MergedPatternSet::recurringAlwaysCount() const
{
    std::size_t count = 0;
    for (const auto &pattern : patterns) {
        if (pattern.recurring(sessionCount) &&
            pattern.occurrence == OccurrenceClass::Always) {
            ++count;
        }
    }
    return count;
}

MergedPatternSet
mergeAnalyses(const std::vector<PatternSetSummary> &sets)
{
    std::vector<const PatternSetSummary *> borrowed;
    borrowed.reserve(sets.size());
    for (const PatternSetSummary &set : sets)
        borrowed.push_back(&set);
    return mergeAnalyses(borrowed);
}

MergedPatternSet
mergeAnalyses(const std::vector<const PatternSetSummary *> &sets)
{
    MergedPatternSet result;
    if (sets.empty())
        return result;
    result.sessionCount = sets.size();
    result.perceptibleThreshold = sets.front()->perceptibleThreshold;
    for (const PatternSetSummary *set : sets) {
        lag_assert(set->perceptibleThreshold ==
                       result.perceptibleThreshold,
                   "pattern sets mined with different thresholds");
    }

    std::size_t totalPatterns = 0;
    for (const PatternSetSummary *set : sets)
        totalPatterns += set->patterns.size();

    // Keys borrow the input signatures, which outlive the merge.
    std::unordered_map<std::string_view, std::size_t> index;
    index.reserve(totalPatterns);
    result.patterns.reserve(totalPatterns);
    for (std::size_t s = 0; s < sets.size(); ++s) {
        for (const PatternSummary &pattern : sets[s]->patterns) {
            const auto [it, inserted] = index.emplace(
                pattern.signature, result.patterns.size());
            if (inserted) {
                MergedPattern merged;
                merged.signature = pattern.signature;
                merged.key = pattern.key;
                merged.descendants = pattern.descendants;
                merged.depth = pattern.depth;
                merged.minLag = pattern.minLag;
                merged.maxLag = pattern.maxLag;
                // Each pattern can occur in at most one set per
                // session, so sets.size() bounds both lists.
                merged.sessions.reserve(sets.size());
                merged.episodeCounts.reserve(sets.size());
                result.patterns.push_back(std::move(merged));
            }
            MergedPattern &merged = result.patterns[it->second];
            merged.sessions.push_back(s);
            merged.episodeCounts.push_back(pattern.episodeCount);
            merged.totalEpisodes += pattern.episodeCount;
            merged.totalPerceptible += pattern.perceptibleCount;
            merged.totalLag += pattern.totalLag;
            merged.minLag = std::min(merged.minLag, pattern.minLag);
            merged.maxLag = std::max(merged.maxLag, pattern.maxLag);
        }
    }

    for (auto &merged : result.patterns) {
        if (merged.totalPerceptible == 0)
            merged.occurrence = OccurrenceClass::Never;
        else if (merged.totalPerceptible == merged.totalEpisodes)
            merged.occurrence = OccurrenceClass::Always;
        else if (merged.totalPerceptible == 1)
            merged.occurrence = OccurrenceClass::Once;
        else
            merged.occurrence = OccurrenceClass::Sometimes;
    }

    std::stable_sort(result.patterns.begin(), result.patterns.end(),
                     [](const MergedPattern &a,
                        const MergedPattern &b) {
                         return a.totalEpisodes > b.totalEpisodes;
                     });
    return result;
}

MergedPatternSet
mergePatternSets(const std::vector<PatternSet> &sets)
{
    // One merge algorithm for both inputs: project each set onto its
    // summary and run the summary merge. summarizePatterns preserves
    // the in-set order and every field the merge reads, so this is
    // byte-identical to merging the full sets directly — the
    // equivalence the incremental cache path relies on.
    std::vector<PatternSetSummary> summaries;
    summaries.reserve(sets.size());
    for (const PatternSet &set : sets)
        summaries.push_back(summarizePatterns(set));
    return mergeAnalyses(summaries);
}

MergedPatternSet
minePatternsAcrossSessions(const std::vector<Session> &sessions,
                           DurationNs perceptible_threshold)
{
    const PatternMiner miner(perceptible_threshold);
    std::vector<PatternSet> sets;
    sets.reserve(sessions.size());
    for (const Session &session : sessions)
        sets.push_back(miner.mine(session));
    return mergePatternSets(sets);
}

} // namespace lag::core
