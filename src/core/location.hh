/**
 * @file
 * Location analysis: application, library, GC, or native (§IV.D).
 *
 * Two complementary measurements per the paper:
 *
 *  - application vs runtime-library shares come from the call-stack
 *    samples of the GUI thread taken during episodes, classified by
 *    the class of the innermost frame;
 *  - GC and native shares come directly from the explicit GC and
 *    Native intervals in the episode trees, as fractions of total
 *    episode time. Collections that occur inside native calls count
 *    as GC, not native (Figure 1's episode shows why blaming the
 *    native call would be wrong).
 */

#ifndef LAG_CORE_LOCATION_HH
#define LAG_CORE_LOCATION_HH

#include "flat_tree.hh"
#include "session.hh"

namespace lag::core
{

/** Where episode time was spent, over one set of episodes. */
struct LocationShares
{
    /** Sample-based split; appFraction + libraryFraction == 1 when
     * any samples exist. */
    double appFraction = 0.0;
    double libraryFraction = 0.0;
    std::size_t sampleCount = 0;

    /** Interval-based split as fractions of total episode time. */
    double gcFraction = 0.0;
    double nativeFraction = 0.0;
    std::size_t episodeCount = 0;
};

/** Figure 6's two graphs: all episodes and perceptible only. */
struct LocationAnalysisResult
{
    LocationShares all;
    LocationShares perceptible;
};

/** Time spent in Native intervals below flat node @p root,
 * excluding any GC time nested inside them: one skip-scan over the
 * root's preorder slice, no recursion. */
DurationNs flatNativeTimeExcludingGc(const FlatTree &tree,
                                     std::uint32_t root);

/** Integer accumulator for one episode set. */
struct LocationTally
{
    std::size_t appSamples = 0;
    std::size_t librarySamples = 0;
    DurationNs gcTime = 0;
    DurationNs nativeTime = 0;
    DurationNs episodeTime = 0;
    std::size_t episodes = 0;

    void
    merge(const LocationTally &other)
    {
        appSamples += other.appSamples;
        librarySamples += other.librarySamples;
        gcTime += other.gcTime;
        nativeTime += other.nativeTime;
        episodeTime += other.episodeTime;
        episodes += other.episodes;
    }

    /** Turn the tally into fractional shares. */
    LocationShares finish() const;
};

/**
 * Integer partial of the location analysis over an episode range;
 * partials over disjoint ranges merge by addition.
 */
struct LocationCounts
{
    LocationTally all;
    LocationTally perceptible;

    void
    merge(const LocationCounts &other)
    {
        all.merge(other.all);
        perceptible.merge(other.perceptible);
    }
};

/** Tally the tree part of location data over episodes [begin, end):
 * episode counts and times, and the GC and native interval times
 * from flat scans of the episode trees. */
LocationCounts countLocationTrees(const Session &session,
                                  std::size_t begin, std::size_t end,
                                  DurationNs perceptible_threshold);

/** Tally the sample part over episodes [begin, end): the
 * app/library split of the episodes' samples. */
LocationCounts countLocationSamples(const Session &session,
                                    std::size_t begin, std::size_t end,
                                    DurationNs perceptible_threshold);

/** Turn merged counts into shares. */
LocationAnalysisResult finishLocation(const LocationCounts &counts);

/** Run the location analysis on a session. */
LocationAnalysisResult analyzeLocation(const Session &session,
                                       DurationNs perceptible_threshold);

} // namespace lag::core

#endif // LAG_CORE_LOCATION_HH
