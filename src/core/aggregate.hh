/**
 * @file
 * Cross-session pattern aggregation.
 *
 * "LagAlyzer groups episodes into equivalence classes, and it
 * integrates multiple traces in its analysis, and thus helps to
 * uncover repeating patterns of bad performance" (paper §VI).
 * Signatures are symbolic (class/method names), so patterns merge
 * across the sessions of one application: a pattern that is slow in
 * every session is a far stronger optimization target than one that
 * was slow once in one session.
 */

#ifndef LAG_CORE_AGGREGATE_HH
#define LAG_CORE_AGGREGATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pattern.hh"
#include "pattern_stats.hh"
#include "session.hh"

namespace lag::core
{

/** One pattern merged across sessions. */
struct MergedPattern
{
    std::string signature;
    std::uint64_t key = 0;

    /** Sessions in which the pattern occurred (indices into the
     * aggregation input). */
    std::vector<std::size_t> sessions;

    /** Episode count per contributing session (parallel to
     * `sessions`). */
    std::vector<std::size_t> episodeCounts;

    std::size_t totalEpisodes = 0;
    std::size_t totalPerceptible = 0;
    DurationNs minLag = 0;
    DurationNs maxLag = 0;
    DurationNs totalLag = 0;
    OccurrenceClass occurrence = OccurrenceClass::Never;

    /** Non-GC tree size/depth (identical across sessions by
     * construction of the signature). */
    std::size_t descendants = 0;
    std::size_t depth = 0;

    DurationNs
    avgLag() const
    {
        return totalEpisodes == 0
                   ? 0
                   : totalLag /
                         static_cast<DurationNs>(totalEpisodes);
    }

    /** True when the pattern showed up in every session — a
     * reproducible behaviour, not a one-session artifact. */
    bool
    recurring(std::size_t session_count) const
    {
        return sessions.size() == session_count;
    }
};

/** Result of merging several sessions' pattern sets. */
struct MergedPatternSet
{
    /** Merged patterns, most episodes first. */
    std::vector<MergedPattern> patterns;

    /** Number of sessions aggregated. */
    std::size_t sessionCount = 0;

    DurationNs perceptibleThreshold = 0;

    /** Patterns present in every session. */
    std::size_t recurringCount() const;

    /** Recurring patterns that are perceptible in every session —
     * the prime optimization targets. */
    std::size_t recurringAlwaysCount() const;
};

/**
 * Merge per-session pattern sets by signature. All sets must have
 * been mined with the same perceptibility threshold. Zero sets
 * merge to an empty result (sessionCount 0) — an application with
 * no sessions is a degenerate study input, not a crash.
 */
MergedPatternSet
mergePatternSets(const std::vector<PatternSet> &sets);

/**
 * Merge per-session pattern *summaries* (pattern_stats.hh) by
 * signature — the incremental-aggregation twin of
 * mergePatternSets(). Given summarizePatterns() of the same sets, in
 * the same order, the result is byte-identical to
 * mergePatternSets(); cached summaries (engine::SessionAnalysis)
 * therefore rebuild a MergedPatternSet without touching any trace.
 * Zero summaries merge to an empty result, like mergePatternSets().
 */
MergedPatternSet
mergeAnalyses(const std::vector<PatternSetSummary> &sets);

/**
 * Borrowing form of mergeAnalyses(): @p sets points at summaries
 * owned elsewhere (each pointer non-null), so callers that already
 * hold the analyses merge them without copying. Same result, byte
 * for byte, as merging the pointed-to summaries by value.
 */
MergedPatternSet
mergeAnalyses(const std::vector<const PatternSetSummary *> &sets);

/** Convenience: mine each session and merge. */
MergedPatternSet
minePatternsAcrossSessions(const std::vector<Session> &sessions,
                           DurationNs perceptible_threshold);

} // namespace lag::core

#endif // LAG_CORE_AGGREGATE_HH
