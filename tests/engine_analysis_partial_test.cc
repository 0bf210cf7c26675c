/**
 * @file
 * The analysis partials over the episode axis: sharding math, the
 * in-place pattern fold (a shard grown in pieces mines exactly what
 * the serial miner does), and decode-path independence (a trace
 * decoded via mmap or a stream analyzes to the same bytes).  The
 * folded-at-every-cut == serial contract on every app model lives
 * in tests/engine_golden_digest_test.cc.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "app/study.hh"
#include "core/pattern.hh"
#include "engine/analysis_partial.hh"
#include "engine/result_cache.hh"
#include "trace/io.hh"
#include "scratch_dir.hh"

namespace lag::engine
{
namespace
{

using test::ScratchDir;

/** One short quick-study session to analyze. */
core::Session
testSession(const std::string &cache_dir)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(5);
    config.apps.resize(1);
    config.cacheDir = cache_dir;
    config.jobs = 2;
    app::Study study(config);
    study.ensureTraces();
    return study.loadSession(0, 0);
}

TEST(EpisodeShards, CoverContiguouslyAndEvenly)
{
    const auto ranges = episodeShards(10, 3);
    ASSERT_EQ(ranges.size(), 3u);
    // Remainder episodes land in the first shards.
    EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 4}));
    EXPECT_EQ(ranges[1], (std::pair<std::size_t, std::size_t>{4, 7}));
    EXPECT_EQ(ranges[2],
              (std::pair<std::size_t, std::size_t>{7, 10}));
}

TEST(EpisodeShards, DegenerateInputs)
{
    // No episodes: one empty range, never zero ranges.
    auto ranges = episodeShards(0, 4);
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 0}));

    // More shards than episodes: one episode per shard.
    ranges = episodeShards(3, 16);
    ASSERT_EQ(ranges.size(), 3u);
    for (std::size_t k = 0; k < ranges.size(); ++k) {
        EXPECT_EQ(ranges[k].first, k);
        EXPECT_EQ(ranges[k].second, k + 1);
    }

    // Zero shard count coerces to one covering range.
    ranges = episodeShards(5, 0);
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 5}));
}

TEST(ParallelAnalysis, MinedPatternsMatchSerialMiner)
{
    const ScratchDir dir("lagalyzer-cache-test-par-mine");
    const core::Session session = testSession(dir.path);
    const DurationNs threshold = msToNs(100);

    const core::PatternMiner miner(threshold);
    const core::PatternSet serial = miner.mine(session);

    // Grow one shard in place over seeded random pieces of the
    // episode axis, as a live session folds its settled episodes.
    const std::size_t n = session.episodes().size();
    std::mt19937_64 rng(7);
    core::PatternShard shard;
    while (shard.endEpisode < n) {
        miner.mineInto(shard, session,
                       shard.endEpisode +
                           rng() % (n - shard.endEpisode + 1));
    }
    const core::PatternSet folded = miner.finish(std::move(shard));

    ASSERT_EQ(folded.patterns.size(), serial.patterns.size());
    for (std::size_t i = 0; i < serial.patterns.size(); ++i) {
        const core::Pattern &a = serial.patterns[i];
        const core::Pattern &b = folded.patterns[i];
        EXPECT_EQ(b.key, a.key) << "pattern " << i;
        EXPECT_EQ(b.signature, a.signature) << "pattern " << i;
        EXPECT_EQ(b.episodes, a.episodes) << "pattern " << i;
        EXPECT_EQ(b.occurrence, a.occurrence) << "pattern " << i;
        EXPECT_EQ(b.minLag, a.minLag) << "pattern " << i;
        EXPECT_EQ(b.maxLag, a.maxLag) << "pattern " << i;
        EXPECT_EQ(b.totalLag, a.totalLag) << "pattern " << i;
        EXPECT_EQ(b.perceptibleCount, a.perceptibleCount)
            << "pattern " << i;
        EXPECT_EQ(b.firstPerceptible, a.firstPerceptible)
            << "pattern " << i;
        EXPECT_EQ(b.descendants, a.descendants) << "pattern " << i;
        EXPECT_EQ(b.depth, a.depth) << "pattern " << i;
    }
    EXPECT_EQ(folded.coveredEpisodes, serial.coveredEpisodes);
    EXPECT_EQ(folded.structurelessEpisodes,
              serial.structurelessEpisodes);
}

TEST(ParallelAnalysis, MappedAndStreamDecodesAnalyzeIdentically)
{
    const ScratchDir dir("lagalyzer-cache-test-par-mmap");
    app::StudyConfig config = app::StudyConfig::quickStudy(5);
    config.apps.resize(1);
    config.cacheDir = dir.path;
    app::Study study(config);
    const auto paths = study.ensureTraces();
    const std::string &path = paths[0][0];

    const trace::Trace mapped =
        trace::readTraceFile(path, trace::TraceReadMode::Mapped);
    const trace::Trace streamed =
        trace::readTraceFile(path, trace::TraceReadMode::Stream);

    const DurationNs threshold = msToNs(100);
    const std::string a = serializeSessionAnalysis(analyzeSession(
        core::Session::fromTrace(mapped), threshold));
    const std::string b = serializeSessionAnalysis(analyzeSession(
        core::Session::fromTrace(streamed), threshold));
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace lag::engine
