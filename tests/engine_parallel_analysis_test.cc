/**
 * @file
 * Within-session parallel analysis: sharding math, and the
 * deterministic-merge contract — the sharded analysis serializes
 * byte-identically to the serial path at any worker count and
 * whether the trace was decoded via mmap or a stream.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "app/study.hh"
#include "core/pattern.hh"
#include "engine/parallel_analysis.hh"
#include "engine/pool.hh"
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

TEST(EpisodeShards, ShardCountScalesWithWorkersAndWork)
{
    // Serial pool or tiny sessions: never shard.
    EXPECT_EQ(shardCountFor(1, 100000), 1u);
    EXPECT_EQ(shardCountFor(8, 10), 1u);
    EXPECT_EQ(shardCountFor(8, 127), 1u);

    // Enough work: bounded by both worker fan-out and shard size.
    EXPECT_EQ(shardCountFor(2, 100000), 8u);
    EXPECT_EQ(shardCountFor(8, 256), 4u);
}

TEST(ParallelAnalysis, ByteIdenticalAcrossWorkerCounts)
{
    const ScratchDir dir("lagalyzer-cache-test-par-analysis");
    const core::Session session = testSession(dir.path);
    const DurationNs threshold = msToNs(100);

    const std::string serial = serializeSessionAnalysis(
        analyzeSession(session, threshold));

    for (const std::uint32_t jobs : {1u, 2u, 8u}) {
        ThreadPool pool(jobs);
        const std::string parallel = serializeSessionAnalysis(
            analyzeSessionParallel(session, threshold, pool));
        EXPECT_EQ(parallel, serial)
            << "analysis diverges at jobs=" << jobs;
    }
}

TEST(ParallelAnalysis, MinedPatternsMatchSerialMiner)
{
    const ScratchDir dir("lagalyzer-cache-test-par-mine");
    const core::Session session = testSession(dir.path);
    const DurationNs threshold = msToNs(100);

    const core::PatternMiner miner(threshold);
    const core::PatternSet serial = miner.mine(session);

    ThreadPool pool(8);
    const core::PatternSet parallel =
        minePatternsParallel(session, threshold, pool);

    ASSERT_EQ(parallel.patterns.size(), serial.patterns.size());
    for (std::size_t i = 0; i < serial.patterns.size(); ++i) {
        const core::Pattern &a = serial.patterns[i];
        const core::Pattern &b = parallel.patterns[i];
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
    EXPECT_EQ(parallel.coveredEpisodes, serial.coveredEpisodes);
    EXPECT_EQ(parallel.structurelessEpisodes,
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
