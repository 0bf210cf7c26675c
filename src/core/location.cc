#include "location.hh"

#include "classify.hh"

namespace lag::core
{

LocationShares
LocationTally::finish() const
{
    LocationShares shares;
    shares.sampleCount = appSamples + librarySamples;
    if (shares.sampleCount > 0) {
        const auto total = static_cast<double>(shares.sampleCount);
        shares.appFraction = static_cast<double>(appSamples) / total;
        shares.libraryFraction =
            static_cast<double>(librarySamples) / total;
    }
    shares.episodeCount = episodes;
    if (episodeTime > 0) {
        const auto total = static_cast<double>(episodeTime);
        shares.gcFraction = static_cast<double>(gcTime) / total;
        shares.nativeFraction =
            static_cast<double>(nativeTime) / total;
    }
    return shares;
}

namespace
{

/** Sample-based app/library split for one episode: classify the
 * innermost GUI-thread frame of each sample (paper §IV.D). */
void
countGuiSamples(const Session &session, const Episode &episode,
                std::size_t &app, std::size_t &lib)
{
    const ThreadId gui = session.guiThread();
    const trace::SampleColumns &samples = session.samples();
    for (std::size_t s = episode.firstSample; s < episode.lastSample;
         ++s) {
        for (std::size_t e = samples.entryBegin(s);
             e < samples.entryEnd(s); ++e) {
            const auto stack = samples.stack(e);
            if (samples.thread(e) != gui || stack.empty())
                continue;
            const auto &cls = session.symbol(stack.back().classSym);
            if (isRuntimeLibraryClass(cls))
                ++lib;
            else
                ++app;
            break;
        }
    }
}

/** Fold one episode's tally into @p counts: into all, and into
 * perceptible when it is. */
template <typename Apply>
void
applyEpisode(LocationCounts &counts, bool perceptible, Apply &&apply)
{
    apply(counts.all);
    if (perceptible)
        apply(counts.perceptible);
}

} // namespace

DurationNs
flatNativeTimeExcludingGc(const FlatTree &tree, std::uint32_t root)
{
    DurationNs total = 0;
    const std::uint32_t sliceEnd = tree.subtreeEnd[root];
    std::uint32_t j = root + 1;
    while (j < sliceEnd) {
        const IntervalType t = tree.typeOf(j);
        if (t == IntervalType::Native) {
            // The whole native interval counts once; subtract any
            // collections that ran inside it, then skip its subtree.
            total += tree.duration(j) -
                     flatTypeTime(tree, j, IntervalType::Gc);
            j = tree.subtreeEnd[j];
        } else if (t == IntervalType::Gc) {
            j = tree.subtreeEnd[j];
        } else {
            ++j;
        }
    }
    return total;
}

LocationCounts
countLocationTrees(const Session &session, std::size_t begin,
                   std::size_t end, DurationNs perceptible_threshold)
{
    LocationCounts counts;
    const auto &episodes = session.episodes();
    const FlatSession &flat = session.flat();
    const auto &trees = flat.trees();

    for (std::size_t i = begin; i < end; ++i) {
        const Episode &episode = episodes[i];
        const FlatTree &tree = trees[flat.episodeTree(i)];
        const std::uint32_t node = flat.episodeNode(i);
        const DurationNs gc_time =
            flatTypeTime(tree, node, IntervalType::Gc);
        const DurationNs native_time =
            flatNativeTimeExcludingGc(tree, node);
        applyEpisode(counts,
                     episode.duration() >= perceptible_threshold,
                     [&](LocationTally &tally) {
                         tally.gcTime += gc_time;
                         tally.nativeTime += native_time;
                         tally.episodeTime += episode.duration();
                         ++tally.episodes;
                     });
    }
    return counts;
}

LocationCounts
countLocationSamples(const Session &session, std::size_t begin,
                     std::size_t end, DurationNs perceptible_threshold)
{
    LocationCounts counts;
    const auto &episodes = session.episodes();
    for (std::size_t i = begin; i < end; ++i) {
        const Episode &episode = episodes[i];
        std::size_t app = 0;
        std::size_t lib = 0;
        countGuiSamples(session, episode, app, lib);
        applyEpisode(counts,
                     episode.duration() >= perceptible_threshold,
                     [&](LocationTally &tally) {
                         tally.appSamples += app;
                         tally.librarySamples += lib;
                     });
    }
    return counts;
}

LocationAnalysisResult
finishLocation(const LocationCounts &counts)
{
    LocationAnalysisResult result;
    result.all = counts.all.finish();
    result.perceptible = counts.perceptible.finish();
    return result;
}

LocationAnalysisResult
analyzeLocation(const Session &session, DurationNs perceptible_threshold)
{
    const std::size_t n = session.episodes().size();
    LocationCounts counts =
        countLocationTrees(session, 0, n, perceptible_threshold);
    counts.merge(countLocationSamples(session, 0, n,
                                      perceptible_threshold));
    return finishLocation(counts);
}

} // namespace lag::core
