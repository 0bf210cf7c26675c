/**
 * @file
 * End-to-end integration tests: application model -> simulated JVM
 * -> LiLa trace -> binary file -> Session -> every analysis, plus
 * the Study's cache machinery.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "app/study.hh"
#include "core/concurrency.hh"
#include "core/location.hh"
#include "core/overview.hh"
#include "core/pattern.hh"
#include "core/pattern_stats.hh"
#include "core/triggers.hh"
#include "trace/io.hh"

namespace lag
{
namespace
{

namespace fs = std::filesystem;

core::Session
runShort(const char *name, int seconds, std::uint32_t index = 0)
{
    app::AppParams params = app::catalogApp(name);
    params.sessionLength = secToNs(seconds);
    auto result = app::runSession(params, index);
    // Through the real codec, like production.
    const std::string bytes = trace::serializeTrace(result.trace);
    return core::Session::fromTrace(trace::deserializeTrace(bytes));
}

TEST(IntegrationTest, FullPipelineConsistency)
{
    const core::Session session = runShort("GanttProject", 45);
    const core::PatternMiner miner(msToNs(100));
    const core::PatternSet patterns = miner.mine(session);

    // Coverage accounting adds up.
    EXPECT_EQ(patterns.coveredEpisodes + patterns.structurelessEpisodes,
              session.episodes().size());
    std::size_t member_total = 0;
    for (const auto &pattern : patterns.patterns)
        member_total += pattern.episodes.size();
    EXPECT_EQ(member_total, patterns.coveredEpisodes);

    // Shares sum to one wherever episodes/samples exist.
    const auto triggers = core::analyzeTriggers(session, msToNs(100));
    EXPECT_NEAR(triggers.all.input + triggers.all.output +
                    triggers.all.async + triggers.all.unspecified,
                1.0, 1e-9);
    const auto states = core::analyzeGuiStates(session, msToNs(100));
    if (states.all.sampleCount > 0) {
        EXPECT_NEAR(states.all.blocked + states.all.waiting +
                        states.all.sleeping + states.all.runnable,
                    1.0, 1e-9);
    }
    const auto location = core::analyzeLocation(session, msToNs(100));
    if (location.all.sampleCount > 0) {
        EXPECT_NEAR(location.all.appFraction +
                        location.all.libraryFraction,
                    1.0, 1e-9);
    }
    EXPECT_GE(location.all.gcFraction, 0.0);
    EXPECT_LE(location.all.gcFraction + location.all.nativeFraction,
              1.0);

    // The CDF ends at (1, 1).
    const auto cdf = core::patternCdf(patterns);
    EXPECT_DOUBLE_EQ(cdf.back().first, 1.0);
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);

    // Overview row agrees with the session.
    const auto row = core::computeOverview(session, patterns,
                                           msToNs(100));
    EXPECT_EQ(row.tracedCount, session.episodes().size());
    EXPECT_EQ(row.perceptibleCount,
              session.perceptibleCount(msToNs(100)));
    EXPECT_GT(row.inEpsPercent, 0.0);
    EXPECT_LE(row.inEpsPercent, 100.0);
}

TEST(IntegrationTest, EpisodeDurationsConsistentWithTreeSpans)
{
    const core::Session session = runShort("SwingSet", 30);
    for (const auto &episode : session.episodes()) {
        const core::FlatTree &tree = session.episodeTree(episode);
        const std::uint32_t root = session.episodeRoot(episode);
        EXPECT_EQ(tree.begin[root], episode.begin);
        EXPECT_EQ(tree.end[root], episode.end);
        // Descendants lie within the episode.
        for (std::uint32_t i = root + 1; i < tree.subtreeEnd[root]; ++i) {
            EXPECT_GE(tree.begin[i], episode.begin);
            EXPECT_LE(tree.end[i], episode.end);
        }
        // Samples assigned to the episode lie within it.
        for (std::size_t s = episode.firstSample;
             s < episode.lastSample; ++s) {
            EXPECT_GE(session.samples().time(s), episode.begin);
            EXPECT_LE(session.samples().time(s), episode.end);
        }
    }
}

TEST(IntegrationTest, EuclideSleepShowsUpInStates)
{
    const core::Session session = runShort("Euclide", 120);
    const auto states = core::analyzeGuiStates(session, msToNs(100));
    EXPECT_GT(states.perceptible.sleeping, 0.15)
        << "Euclide's combo-box blink must dominate perceptible lag";
    EXPECT_GT(states.perceptible.sleeping, states.all.sleeping)
        << "aggregate stats hide what perceptible episodes show "
           "(paper SIV.E)";
}

TEST(IntegrationTest, StudyCachesAndReloads)
{
    app::StudyConfig config;
    config.apps = {app::catalogApp("CrosswordSage")};
    config.apps[0].sessionLength = secToNs(8);
    config.sessionsPerApp = 2;
    config.cacheDir = "test-study-cache";
    fs::remove_all(config.cacheDir);

    app::Study study(config);
    const auto paths = study.ensureTraces();
    ASSERT_EQ(paths.size(), 1u);
    ASSERT_EQ(paths[0].size(), 2u);
    for (const auto &path : paths[0])
        EXPECT_TRUE(fs::exists(path));

    // Second call must not regenerate: record mtimes.
    const auto mtime = fs::last_write_time(paths[0][0]);
    study.ensureTraces();
    EXPECT_EQ(fs::last_write_time(paths[0][0]), mtime);

    // Loading yields analyzable sessions.
    const app::AppSessions loaded = study.loadApp(0);
    ASSERT_EQ(loaded.sessions.size(), 2u);
    EXPECT_GT(loaded.sessions[0].episodes().size(), 0u);

    // A config change invalidates the cache.
    app::StudyConfig changed = config;
    changed.apps[0].heavyClickProb += 0.1;
    app::Study study2(changed);
    study2.ensureTraces();
    EXPECT_NE(fs::last_write_time(paths[0][0]), mtime)
        << "fingerprint change must force regeneration";

    fs::remove_all(config.cacheDir);
}

TEST(IntegrationTest, QuickStudyConfigIsConsistent)
{
    const app::StudyConfig quick = app::StudyConfig::quickStudy(5);
    ASSERT_EQ(quick.apps.size(), 14u);
    for (const auto &app : quick.apps)
        EXPECT_EQ(app.sessionLength, secToNs(5));
    EXPECT_NE(quick.cacheDir,
              app::StudyConfig::paperStudy().cacheDir);
    EXPECT_NE(quick.fingerprint(),
              app::StudyConfig::paperStudy().fingerprint());
}

TEST(IntegrationTest, MultiSessionAveragingStable)
{
    // Two sessions of the same app differ but are the same order of
    // magnitude; the mean sits between them.
    const core::Session s0 = runShort("JEdit", 30, 0);
    const core::Session s1 = runShort("JEdit", 30, 1);
    const core::PatternMiner miner(msToNs(100));
    const auto r0 = core::computeOverview(s0, miner.mine(s0),
                                          msToNs(100));
    const auto r1 = core::computeOverview(s1, miner.mine(s1),
                                          msToNs(100));
    EXPECT_NE(r0.tracedCount, 0u);
    EXPECT_NE(r1.tracedCount, 0u);
    const auto mean = core::meanOverview({r0, r1});
    EXPECT_GE(mean.tracedCount,
              std::min(r0.tracedCount, r1.tracedCount));
    EXPECT_LE(mean.tracedCount,
              std::max(r0.tracedCount, r1.tracedCount));
}

} // namespace
} // namespace lag
