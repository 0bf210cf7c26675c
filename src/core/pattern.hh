/**
 * @file
 * Episode patterns: equivalence classes over interval-tree structure.
 *
 * Two episodes belong to the same pattern when their interval trees
 * have the same structure — interval types plus symbolic information
 * (class and method names) — ignoring all timing and excluding GC
 * nodes (paper §II.D). Ignoring GC lets a developer see whether a
 * class of episodes always or rarely suffers collections; ignoring
 * timing groups fast and slow instances of the same behaviour, which
 * is what makes the always/sometimes/once/never characterization of
 * §IV.B possible.
 *
 * Episodes whose dispatch interval has no children ("no internal
 * structure") are excluded from pattern coverage, matching the
 * paper's #Eps accounting in Table III.
 */

#ifndef LAG_CORE_PATTERN_HH
#define LAG_CORE_PATTERN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "flat_tree.hh"
#include "session.hh"
#include "util/types.hh"

namespace lag::core
{

/** How a pattern's episodes relate to the perceptibility threshold
 * (paper §IV.B). Singleton patterns whose only episode is
 * perceptible classify as Always. */
enum class OccurrenceClass : std::uint8_t
{
    Always,    ///< every episode is perceptible
    Sometimes, ///< more than one, but not all
    Once,      ///< exactly one of several
    Never,     ///< none
};

/** Human-readable name of an occurrence class. */
const char *occurrenceClassName(OccurrenceClass cls);

/** One mined pattern with its statistics. */
struct Pattern
{
    /** Canonical structural signature (GC-free, timing-free). */
    std::string signature;

    /** Stable 64-bit key of the signature. */
    std::uint64_t key = 0;

    /** Member episodes as indices into Session::episodes(). */
    std::vector<std::size_t> episodes;

    /** Lag statistics over member episodes (Pattern Browser cols). */
    DurationNs minLag = 0;
    DurationNs maxLag = 0;
    DurationNs totalLag = 0;

    /** Member episodes at or above the perceptibility threshold. */
    std::size_t perceptibleCount = 0;

    /** True when the first (earliest) member is perceptible; one-
     * shot initialization effects show up as Once + firstPerceptible
     * (paper §II.D). */
    bool firstPerceptible = false;

    /** Non-GC descendants of the dispatch interval (Table III
     * "Descs"). */
    std::size_t descendants = 0;

    /** Depth of the (non-GC) interval tree (Table III "Depth"). */
    std::size_t depth = 0;

    OccurrenceClass occurrence = OccurrenceClass::Never;

    DurationNs
    avgLag() const
    {
        return episodes.empty()
                   ? 0
                   : totalLag / static_cast<DurationNs>(episodes.size());
    }
};

/** Result of mining one session. */
struct PatternSet
{
    /** Patterns, most populous first (ties: first-seen order). */
    std::vector<Pattern> patterns;

    /** Episodes covered by some pattern (Table III "#Eps"). */
    std::size_t coveredEpisodes = 0;

    /** Episodes excluded for having no internal structure. */
    std::size_t structurelessEpisodes = 0;

    /** The perceptibility threshold used for classification. */
    DurationNs perceptibleThreshold = 0;

    /** Number of singleton patterns (Table III "One-Ep"). */
    std::size_t singletonCount() const;

    /** Patterns with at least one perceptible episode. */
    std::size_t perceptiblePatternCount() const;
};

/**
 * Partial mining result over a contiguous episode range
 * [beginEpisode, endEpisode).  Patterns appear in first-seen order
 * with statistics covering only the range; PatternMiner::mineInto
 * grows a shard in place and PatternMiner::merge reduces adjacent
 * shards into a PatternSet that is byte-identical to a serial mine
 * over the union — the basis of folding a live session's episodes
 * as they close.
 */
struct PatternShard
{
    std::size_t beginEpisode = 0;
    std::size_t endEpisode = 0;

    /** Patterns in first-seen (episode) order within the range. */
    std::vector<Pattern> patterns;

    std::size_t coveredEpisodes = 0;
    std::size_t structurelessEpisodes = 0;
};

/**
 * The canonical structural signature of episode @p episode of
 * @p session: per node a type letter (D, L, P, N, A), then
 * "[class.method]" when the node has symbols, then its non-GC
 * children in parentheses.  GC nodes are skipped entirely; timing is
 * not part of the result.  Exposed for tests and for cross-session
 * pattern matching.
 */
std::string patternSignature(const Session &session,
                             std::size_t episode);

/** Mines patterns from a session. */
class PatternMiner
{
  public:
    /** @param perceptible_threshold lag bound for classification
     *        (paper default: 100 ms). */
    explicit PatternMiner(DurationNs perceptible_threshold = msToNs(100));

    /**
     * Group the session's episodes into patterns.  Each episode's
     * signature is hashed in one pass over its flat slice — no
     * intermediate string, no recursion — and repeat episodes are
     * compared against their pattern at the symbol-id level.  A
     * signature string is materialized only for first-seen patterns.
     */
    PatternSet mine(const Session &session) const;

    /** Mine only episodes [begin, end) into an ordered partial. */
    PatternShard mineRange(const Session &session, std::size_t begin,
                           std::size_t end) const;

    /**
     * Extend @p shard in place to end at episode @p end: episodes
     * [shard.endEpisode, end) join its patterns or open new ones
     * after them, exactly as one mineRange over the whole range
     * would.  Costs O(new episodes + the shard's patterns); the
     * shard's episodes must still be those of @p session.
     */
    void mineInto(PatternShard &shard, const Session &session,
                  std::size_t end) const;

    /**
     * Reduce shards over adjacent, ascending episode ranges into a
     * full PatternSet.  The result is independent of how the
     * episode axis was cut: mine() is merge({mineRange(all)}) by
     * definition, and any other contiguous partition merges to the
     * same bytes.
     */
    PatternSet merge(std::vector<PatternShard> shards) const;

  private:
    DurationNs threshold_;
};

} // namespace lag::core

#endif // LAG_CORE_PATTERN_HH
