/**
 * @file
 * Pipeline-wide property tests, parameterized over all 14
 * application models: for every app, a short live session must
 * satisfy the invariants LagAlyzer's analyses rely on.
 */

#include <gtest/gtest.h>

#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "core/blame.hh"
#include "core/concurrency.hh"
#include "core/location.hh"
#include "core/overview.hh"
#include "core/pattern.hh"
#include "core/pattern_stats.hh"
#include "core/triggers.hh"
#include "trace/io.hh"

namespace lag::core
{
namespace
{

class AppPipelineProperties
    : public ::testing::TestWithParam<const char *>
{
  protected:
    static Session
    makeSession(const char *name)
    {
        app::AppParams params = app::catalogApp(name);
        params.sessionLength = secToNs(20);
        auto result = app::runSession(params, 2);
        // Through the codec, as in production.
        return Session::fromTrace(trace::deserializeTrace(
            trace::serializeTrace(result.trace)));
    }
};

TEST_P(AppPipelineProperties, EveryEpisodeAccountedFor)
{
    const Session session = makeSession(GetParam());
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    EXPECT_EQ(set.coveredEpisodes + set.structurelessEpisodes,
              session.episodes().size());
    // Each covered episode appears in exactly one pattern.
    std::vector<int> seen(session.episodes().size(), 0);
    for (const auto &pattern : set.patterns) {
        for (const std::size_t idx : pattern.episodes)
            ++seen[idx];
    }
    for (const int count : seen)
        ASSERT_LE(count, 1);
}

TEST_P(AppPipelineProperties, PatternStatsConsistent)
{
    const Session session = makeSession(GetParam());
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    for (const auto &pattern : set.patterns) {
        ASSERT_FALSE(pattern.episodes.empty());
        ASSERT_LE(pattern.minLag, pattern.maxLag);
        ASSERT_GE(pattern.avgLag(), pattern.minLag);
        ASSERT_LE(pattern.avgLag(), pattern.maxLag);
        ASSERT_LE(pattern.perceptibleCount, pattern.episodes.size());
        // Occurrence class matches the counts.
        switch (pattern.occurrence) {
          case OccurrenceClass::Never:
            ASSERT_EQ(pattern.perceptibleCount, 0u);
            break;
          case OccurrenceClass::Always:
            ASSERT_EQ(pattern.perceptibleCount,
                      pattern.episodes.size());
            break;
          case OccurrenceClass::Once:
            ASSERT_EQ(pattern.perceptibleCount, 1u);
            ASSERT_GT(pattern.episodes.size(), 1u);
            break;
          case OccurrenceClass::Sometimes:
            ASSERT_GT(pattern.perceptibleCount, 1u);
            ASSERT_LT(pattern.perceptibleCount,
                      pattern.episodes.size());
            break;
        }
    }
}

TEST_P(AppPipelineProperties, SharesSumToOne)
{
    const Session session = makeSession(GetParam());
    const auto triggers = analyzeTriggers(session, msToNs(100));
    if (triggers.all.episodeCount > 0) {
        EXPECT_NEAR(triggers.all.input + triggers.all.output +
                        triggers.all.async + triggers.all.unspecified,
                    1.0, 1e-9);
    }
    const auto states = analyzeGuiStates(session, msToNs(100));
    if (states.all.sampleCount > 0) {
        EXPECT_NEAR(states.all.blocked + states.all.waiting +
                        states.all.sleeping + states.all.runnable,
                    1.0, 1e-9);
    }
    const auto location = analyzeLocation(session, msToNs(100));
    if (location.all.sampleCount > 0) {
        EXPECT_NEAR(location.all.appFraction +
                        location.all.libraryFraction,
                    1.0, 1e-9);
    }
    EXPECT_LE(location.all.gcFraction + location.all.nativeFraction,
              1.0 + 1e-9);
}

TEST_P(AppPipelineProperties, CdfMonotoneEndsAtOne)
{
    const Session session = makeSession(GetParam());
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    const auto cdf = patternCdf(set);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        ASSERT_GE(cdf[i].first, cdf[i - 1].first);
        ASSERT_GE(cdf[i].second, cdf[i - 1].second);
    }
    if (set.coveredEpisodes > 0) {
        EXPECT_DOUBLE_EQ(cdf.back().first, 1.0);
        EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
    }
}

TEST_P(AppPipelineProperties, BlameSharesBounded)
{
    const Session session = makeSession(GetParam());
    BlameOptions options;
    options.perceptibleThreshold = 0;
    options.limit = 0;
    const auto report = blameReport(session, options);
    double total_share = 0.0;
    for (const auto &entry : report) {
        ASSERT_LE(entry.notRunnableSamples, entry.samples);
        total_share += entry.share;
    }
    if (!report.empty()) {
        EXPECT_NEAR(total_share, 1.0, 1e-9);
    }
}

TEST_P(AppPipelineProperties, GcCopiesOnEveryThread)
{
    const Session session = makeSession(GetParam());
    // Count GC roots/nodes per thread: every thread sees the same
    // number of collections (paper SII.A).
    std::vector<std::size_t> per_thread;
    for (const auto &tree : session.threads()) {
        std::size_t count = 0;
        for (std::uint32_t i = 0; i < tree.size(); ++i) {
            if (tree.typeOf(i) == IntervalType::Gc)
                ++count;
        }
        EXPECT_EQ(count, tree.gcCountBefore.back());
        per_thread.push_back(count);
    }
    for (const std::size_t count : per_thread)
        ASSERT_EQ(count, per_thread.front());
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppPipelineProperties,
    ::testing::Values("Arabeske", "ArgoUML", "CrosswordSage",
                      "Euclide", "FindBugs", "FreeMind",
                      "GanttProject", "JEdit", "JFreeChart",
                      "JHotDraw", "Jmol", "Laoe", "NetBeans",
                      "SwingSet"),
    [](const ::testing::TestParamInfo<const char *> &param_info) {
        return std::string(param_info.param);
    });

} // namespace
} // namespace lag::core
