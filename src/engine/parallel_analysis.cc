#include "parallel_analysis.hh"

#include "core/concurrency.hh"
#include "core/location.hh"
#include "core/overview.hh"
#include "core/pattern_stats.hh"
#include "core/triggers.hh"
#include "obs/span.hh"
#include "study_driver.hh"
#include "util/logging.hh"

namespace lag::engine
{

namespace
{

/** Below this many episodes per shard, scheduling overhead wins. */
constexpr std::size_t kMinEpisodesPerShard = 64;

/** All integer partials of one episode shard. */
struct ShardPartial
{
    core::PatternShard patterns;
    core::TriggerCounts triggers;
    core::LocationCounts location;
    core::ConcurrencyCounts concurrency;
    core::GuiStateCounts states;
};

} // namespace

std::vector<std::pair<std::size_t, std::size_t>>
episodeShards(std::size_t episodeCount, std::size_t shardCount)
{
    if (shardCount == 0)
        shardCount = 1;
    if (shardCount > episodeCount)
        shardCount = episodeCount == 0 ? 1 : episodeCount;

    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    ranges.reserve(shardCount);
    const std::size_t base = episodeCount / shardCount;
    const std::size_t extra = episodeCount % shardCount;
    std::size_t begin = 0;
    for (std::size_t k = 0; k < shardCount; ++k) {
        const std::size_t size = base + (k < extra ? 1 : 0);
        ranges.emplace_back(begin, begin + size);
        begin += size;
    }
    lag_assert(begin == episodeCount, "shards must cover all episodes");
    return ranges;
}

std::size_t
shardCountFor(std::size_t workerCount, std::size_t episodeCount)
{
    if (workerCount <= 1 || episodeCount < 2 * kMinEpisodesPerShard)
        return 1;
    // Oversubscribe a little so uneven shards still balance, but
    // keep every shard meaty enough to amortize scheduling.
    const std::size_t byWorkers = workerCount * 4;
    const std::size_t byWork = episodeCount / kMinEpisodesPerShard;
    return std::min(byWorkers, byWork);
}

core::PatternSet
minePatternsParallel(const core::Session &session,
                     DurationNs perceptible_threshold, ThreadPool &pool)
{
    const core::PatternMiner miner(perceptible_threshold);
    const auto ranges =
        episodeShards(session.episodes().size(),
                      shardCountFor(pool.workerCount(),
                                    session.episodes().size()));

    std::vector<core::PatternShard> shards(ranges.size());
    parallelFor(pool, ranges.size(), [&](std::size_t k) {
        LAG_SPAN_ARG("mine.shard", "shard", k);
        shards[k] = miner.mineRange(session, ranges[k].first,
                                    ranges[k].second);
    });
    LAG_SPAN("mine.merge");
    return miner.merge(std::move(shards));
}

SessionAnalysis
analyzeSessionParallel(const core::Session &session,
                       DurationNs perceptible_threshold,
                       ThreadPool &pool)
{
    const core::PatternMiner miner(perceptible_threshold);
    const std::size_t episodeCount = session.episodes().size();
    const auto ranges = episodeShards(
        episodeCount, shardCountFor(pool.workerCount(), episodeCount));

    std::vector<ShardPartial> partials(ranges.size());
    parallelFor(pool, ranges.size(), [&](std::size_t k) {
        LAG_SPAN_ARG("analysis.shard", "shard", k);
        const auto [begin, end] = ranges[k];
        ShardPartial &partial = partials[k];
        partial.patterns = miner.mineRange(session, begin, end);
        partial.triggers = core::countTriggers(
            session, begin, end, perceptible_threshold);
        partial.location = core::countLocation(
            session, begin, end, perceptible_threshold);
        partial.concurrency = core::countConcurrency(
            session, begin, end, perceptible_threshold);
        partial.states = core::countGuiStates(
            session, begin, end, perceptible_threshold);
    });

    // Serial reduce in shard (= episode) order: completion order of
    // the tasks above can never leak into the result.
    LAG_SPAN_ARG("analysis.merge", "shards", partials.size());
    std::vector<core::PatternShard> shards;
    shards.reserve(partials.size());
    core::TriggerCounts triggers;
    core::LocationCounts location;
    core::ConcurrencyCounts concurrency;
    core::GuiStateCounts states;
    for (ShardPartial &partial : partials) {
        shards.push_back(std::move(partial.patterns));
        triggers.merge(partial.triggers);
        location.merge(partial.location);
        concurrency.merge(partial.concurrency);
        states.merge(partial.states);
    }
    const core::PatternSet patterns = miner.merge(std::move(shards));

    SessionAnalysis out;
    out.overview = core::computeOverview(session, patterns,
                                         perceptible_threshold);
    out.triggers = core::finishTriggers(triggers);
    out.location = core::finishLocation(location);
    out.concurrency = core::finishConcurrency(concurrency);
    out.states = core::finishGuiStates(states);
    out.occurrence = core::occurrenceShares(patterns);
    out.cdf = core::patternCdf(patterns);
    out.patternKeys.reserve(patterns.patterns.size());
    for (const core::Pattern &pattern : patterns.patterns)
        out.patternKeys.push_back(pattern.key);
    out.episodeDurations.reserve(session.episodes().size());
    for (const core::Episode &episode : session.episodes())
        out.episodeDurations.push_back(episode.duration());
    out.patternSummary = core::summarizePatterns(patterns);
    return out;
}

} // namespace lag::engine
