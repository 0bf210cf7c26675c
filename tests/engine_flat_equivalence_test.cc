/**
 * @file
 * The analysis of a session's flat interval trees survives a
 * result-cache round trip byte for byte.  (Byte identity across
 * worker counts and against committed golden bytes is
 * engine_golden_digest_test.)
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <utility>

#include "app/study.hh"
#include "engine/result_cache.hh"
#include "scratch_dir.hh"

namespace lag::engine
{
namespace
{

using test::ScratchDir;

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

    // Cold (just computed) == warm (cache round trip).
    EXPECT_EQ(serializeSessionAnalysis(*loaded),
              serializeSessionAnalysis(fresh));
}

} // namespace
} // namespace lag::engine
