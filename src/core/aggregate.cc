#include "aggregate.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/logging.hh"

namespace lag::core
{

namespace
{

/** An unused slot of mergeAnalyses' key index. */
constexpr std::uint32_t kEmptySlot = UINT32_MAX;

/** 2^64 over the golden ratio, the Fibonacci-hashing multiplier. */
constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ULL;

} // namespace

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

    // Open addressing over the pattern keys (the signatures' FNV-1a),
    // so no signature is hashed again: a slot holds an index into
    // result.patterns, and a key hit counts only when the signature
    // text matches too, so two texts that share a key stay two
    // patterns. At most half full, linear probing.
    lag_assert(totalPatterns < kEmptySlot, "too many patterns to merge");
    const std::size_t capacity =
        std::bit_ceil(2 * std::max<std::size_t>(totalPatterns, 8));
    const int shift = 64 - std::countr_zero(capacity);
    const std::size_t mask = capacity - 1;
    std::vector<std::uint32_t> slots(capacity, kEmptySlot);
    result.patterns.reserve(totalPatterns);
    for (std::size_t s = 0; s < sets.size(); ++s) {
        for (const PatternSummary &pattern : sets[s]->patterns) {
            // Fibonacci hashing spreads the key's high bits over the
            // table; FNV-1a's low bits alone mix poorly.
            std::size_t slot =
                static_cast<std::size_t>((pattern.key * kFibonacci) >>
                                         shift);
            while (slots[slot] != kEmptySlot) {
                const MergedPattern &seen = result.patterns[slots[slot]];
                if (seen.key == pattern.key &&
                    seen.signature == pattern.signature)
                    break;
                slot = (slot + 1) & mask;
            }
            if (slots[slot] == kEmptySlot) {
                slots[slot] =
                    static_cast<std::uint32_t>(result.patterns.size());
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
            MergedPattern &merged = result.patterns[slots[slot]];
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
