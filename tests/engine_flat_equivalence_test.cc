/**
 * @file
 * Differential suite for the flat analysis hot path: for every app
 * model in the catalog, the flat pipeline (analyzeSession and
 * analyzeSessionParallel, which mine/classify on FlatSession slices)
 * must serialize byte-identically to the node-tree reference
 * pipeline (analyzeSessionNode), at any worker count, and survive a
 * result-cache round trip unchanged.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

#include "app/study.hh"
#include "engine/parallel_analysis.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "scratch_dir.hh"

namespace lag::engine
{
namespace
{

using test::ScratchDir;

TEST(FlatEquivalence, EveryAppModelAnalyzesByteIdentically)
{
    const ScratchDir dir("lagalyzer-cache-test-flat-equiv");
    app::StudyConfig config = app::StudyConfig::quickStudy(3);
    config.sessionsPerApp = 1;
    config.cacheDir = dir.path;
    config.jobs = 4;
    app::Study study(config);
    study.ensureTraces();

    const DurationNs threshold = config.perceptibleThreshold;
    ASSERT_GE(config.apps.size(), 14u)
        << "catalog shrank; the suite must cover every app model";

    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        const core::Session session = study.loadSession(a, 0);
        const std::string node = serializeSessionAnalysis(
            analyzeSessionNode(session, threshold));
        const std::string flat = serializeSessionAnalysis(
            analyzeSession(session, threshold));
        EXPECT_EQ(flat, node)
            << "flat serial analysis diverges for app "
            << config.apps[a].name;

        for (const std::uint32_t jobs : {1u, 8u}) {
            ThreadPool pool(jobs);
            const std::string parallel = serializeSessionAnalysis(
                analyzeSessionParallel(session, threshold, pool));
            EXPECT_EQ(parallel, node)
                << "flat parallel analysis diverges for app "
                << config.apps[a].name << " at jobs=" << jobs;
        }
    }
}

TEST(FlatEquivalence, CacheRoundTripPreservesFlatResults)
{
    const ScratchDir dir("lagalyzer-cache-test-flat-cache");
    app::StudyConfig config = app::StudyConfig::quickStudy(3);
    config.apps.resize(1);
    config.sessionsPerApp = 1;
    config.cacheDir = dir.path;
    config.jobs = 2;
    app::Study study(config);
    study.ensureTraces();

    const core::Session session = study.loadSession(0, 0);
    const SessionAnalysis fresh =
        analyzeSession(session, config.perceptibleThreshold);

    const ResultCache cache(dir.path, config.fingerprint());
    cache.store(config.apps[0].name, 0, fresh);
    const std::optional<SessionAnalysis> loaded =
        cache.load(config.apps[0].name, 0);
    ASSERT_TRUE(loaded.has_value());

    // Cold (just computed, flat path) == warm (cache round trip) ==
    // node reference: the cache stays valid with the flat path live.
    const std::string freshBytes = serializeSessionAnalysis(fresh);
    EXPECT_EQ(serializeSessionAnalysis(*loaded), freshBytes);
    EXPECT_EQ(freshBytes,
              serializeSessionAnalysis(analyzeSessionNode(
                  session, config.perceptibleThreshold)));
}

} // namespace
} // namespace lag::engine
