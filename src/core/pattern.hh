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

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
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
 * Mining state over the episode prefix [0, endEpisode): patterns in
 * first-seen order with statistics over that prefix, plus the lookup
 * indices over them.  PatternMiner::mineInto grows it in place, so a
 * live session folds each episode once as it closes, and
 * PatternMiner::finish turns it into a PatternSet.
 */
struct PatternShard
{
    std::size_t endEpisode = 0;

    /** Patterns in first-seen (episode) order. */
    std::vector<Pattern> patterns;

    std::size_t coveredEpisodes = 0;
    std::size_t structurelessEpisodes = 0;

    /** flatStructureHash -> (pattern, an episode of that exact id
     * structure).  One entry per distinct id structure seen, so a
     * pattern whose text is spelled by several id structures has
     * several entries. */
    std::unordered_multimap<std::uint64_t,
                            std::pair<std::size_t, std::size_t>>
        byStructure;

    /** Pattern key (FNV-1a of the signature) -> pattern; consulted
     * only when byStructure misses. */
    std::unordered_multimap<std::uint64_t, std::size_t> byKey;
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
     * Group the session's episodes into patterns: one mineInto over
     * every episode, then finish.
     */
    PatternSet mine(const Session &session) const;

    /**
     * Extend @p shard in place to end at episode @p end: episodes
     * [shard.endEpisode, end) join its patterns or open new ones
     * after them.  An episode is first looked up by its nodes'
     * session-local ids (flatStructureHash, confirmed by
     * flatStructureEquals), which costs no string work.  Only on a
     * miss is its signature hashed and compared as text, because
     * the "[A.B]" text, not the id tuple, is canonical: ids that
     * differ can still print the same signature.  Costs O(new
     * episodes); the shard's episodes must still be those of
     * @p session.
     */
    void mineInto(PatternShard &shard, const Session &session,
                  std::size_t end) const;

    /**
     * Classify each pattern of @p shard and order them most
     * populous first (ties: first-seen order).
     */
    PatternSet finish(PatternShard shard) const;

  private:
    DurationNs threshold_;
};

} // namespace lag::core

#endif // LAG_CORE_PATTERN_HH
