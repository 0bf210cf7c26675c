/**
 * @file
 * Tests for cross-session pattern merging (paper §VI: LagAlyzer
 * "integrates multiple traces in its analysis").
 */

#include <gtest/gtest.h>

#include "util/logging.hh"

#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "core/aggregate.hh"
#include "trace_builder.hh"

namespace lag::core
{
namespace
{

Session
sessionWith(std::vector<std::pair<const char *, DurationNs>> episodes)
{
    test::TraceBuilder builder;
    TimeNs now = 0;
    for (const auto &[cls, duration] : episodes) {
        builder.listenerEpisode(now, now + duration, cls);
        now += duration + msToNs(1);
    }
    return builder.buildSession(now + secToNs(1));
}

TEST(AggregateTest, MergesBySignature)
{
    const Session s0 = sessionWith({{"app.A", msToNs(10)},
                                    {"app.A", msToNs(20)},
                                    {"app.B", msToNs(10)}});
    const Session s1 =
        sessionWith({{"app.A", msToNs(30)}, {"app.C", msToNs(10)}});
    const MergedPatternSet merged =
        minePatternsAcrossSessions({s0, s1}, msToNs(100));

    ASSERT_EQ(merged.patterns.size(), 3u);
    EXPECT_EQ(merged.sessionCount, 2u);
    // Most episodes first: app.A with 3.
    const MergedPattern &top = merged.patterns[0];
    EXPECT_EQ(top.totalEpisodes, 3u);
    EXPECT_EQ(top.sessions, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(top.episodeCounts, (std::vector<std::size_t>{2, 1}));
    EXPECT_TRUE(top.recurring(2));
    EXPECT_EQ(top.minLag, msToNs(10));
    EXPECT_EQ(top.maxLag, msToNs(30));
    EXPECT_EQ(top.avgLag(), msToNs(20));
}

TEST(AggregateTest, SingleSessionPatternsNotRecurring)
{
    const Session s0 = sessionWith({{"app.A", msToNs(10)}});
    const Session s1 = sessionWith({{"app.B", msToNs(10)}});
    const MergedPatternSet merged =
        minePatternsAcrossSessions({s0, s1}, msToNs(100));
    EXPECT_EQ(merged.recurringCount(), 0u);
    for (const auto &pattern : merged.patterns)
        EXPECT_EQ(pattern.sessions.size(), 1u);
}

TEST(AggregateTest, OccurrenceAcrossSessions)
{
    // app.A perceptible in both sessions -> Always; app.B
    // perceptible once across sessions -> Once.
    const Session s0 = sessionWith(
        {{"app.A", msToNs(200)}, {"app.B", msToNs(150)}});
    const Session s1 = sessionWith(
        {{"app.A", msToNs(300)}, {"app.B", msToNs(20)}});
    const MergedPatternSet merged =
        minePatternsAcrossSessions({s0, s1}, msToNs(100));
    ASSERT_EQ(merged.patterns.size(), 2u);
    for (const auto &pattern : merged.patterns) {
        if (pattern.signature.find("app.A") != std::string::npos) {
            EXPECT_EQ(pattern.occurrence, OccurrenceClass::Always);
            EXPECT_TRUE(pattern.recurring(2));
        } else {
            EXPECT_EQ(pattern.occurrence, OccurrenceClass::Once);
        }
    }
    EXPECT_EQ(merged.recurringAlwaysCount(), 1u);
}

TEST(AggregateTest, MismatchedThresholdsPanic)
{
    const Session s = sessionWith({{"app.A", msToNs(10)}});
    PatternSet a = PatternMiner(msToNs(100)).mine(s);
    PatternSet b = PatternMiner(msToNs(50)).mine(s);
    EXPECT_THROW(mergePatternSets({a, b}), PanicError);
}

TEST(AggregateTest, EmptyInputMergesToEmptySet)
{
    // Zero sessions is a valid (if degenerate) study — e.g. an
    // aggregation over an empty app list — not a programming error.
    const MergedPatternSet merged = mergePatternSets({});
    EXPECT_TRUE(merged.patterns.empty());
    EXPECT_EQ(merged.sessionCount, 0u);
    EXPECT_EQ(merged.recurringCount(), 0u);

    // Both the owning and the borrowing summary forms.
    const MergedPatternSet from_summaries =
        mergeAnalyses(std::vector<PatternSetSummary>{});
    EXPECT_TRUE(from_summaries.patterns.empty());
    EXPECT_EQ(from_summaries.sessionCount, 0u);
    const MergedPatternSet from_borrowed =
        mergeAnalyses(std::vector<const PatternSetSummary *>{});
    EXPECT_TRUE(from_borrowed.patterns.empty());
    EXPECT_EQ(from_borrowed.sessionCount, 0u);
}

TEST(AggregateTest, MergeAnalysesMatchesMergePatternSets)
{
    // The summary-based merge must reproduce the full-set merge
    // exactly — it is the foundation of the incremental path.
    const Session s0 = sessionWith({{"app.A", msToNs(200)},
                                    {"app.A", msToNs(20)},
                                    {"app.B", msToNs(10)}});
    const Session s1 =
        sessionWith({{"app.A", msToNs(30)}, {"app.C", msToNs(150)}});
    std::vector<PatternSet> sets;
    sets.push_back(PatternMiner(msToNs(100)).mine(s0));
    sets.push_back(PatternMiner(msToNs(100)).mine(s1));

    std::vector<PatternSetSummary> summaries;
    for (const PatternSet &set : sets)
        summaries.push_back(summarizePatterns(set));

    const MergedPatternSet full = mergePatternSets(sets);
    const MergedPatternSet incremental = mergeAnalyses(summaries);

    // The borrowing form merges the same summaries in place.
    std::vector<const PatternSetSummary *> borrowed;
    for (const PatternSetSummary &summary : summaries)
        borrowed.push_back(&summary);
    const MergedPatternSet in_place = mergeAnalyses(borrowed);
    ASSERT_EQ(in_place.patterns.size(), full.patterns.size());
    for (std::size_t i = 0; i < full.patterns.size(); ++i) {
        EXPECT_EQ(in_place.patterns[i].signature,
                  full.patterns[i].signature);
        EXPECT_EQ(in_place.patterns[i].sessions,
                  full.patterns[i].sessions);
        EXPECT_EQ(in_place.patterns[i].totalLag,
                  full.patterns[i].totalLag);
    }

    ASSERT_EQ(incremental.patterns.size(), full.patterns.size());
    EXPECT_EQ(incremental.sessionCount, full.sessionCount);
    for (std::size_t i = 0; i < full.patterns.size(); ++i) {
        const MergedPattern &a = full.patterns[i];
        const MergedPattern &b = incremental.patterns[i];
        EXPECT_EQ(a.signature, b.signature);
        EXPECT_EQ(a.key, b.key);
        EXPECT_EQ(a.sessions, b.sessions);
        EXPECT_EQ(a.episodeCounts, b.episodeCounts);
        EXPECT_EQ(a.totalEpisodes, b.totalEpisodes);
        EXPECT_EQ(a.totalPerceptible, b.totalPerceptible);
        EXPECT_EQ(a.minLag, b.minLag);
        EXPECT_EQ(a.maxLag, b.maxLag);
        EXPECT_EQ(a.totalLag, b.totalLag);
        EXPECT_EQ(a.occurrence, b.occurrence);
    }
}

TEST(AggregateTest, RealSessionsSharePatterns)
{
    // With app-stable template seeding, two sessions of one app must
    // share a substantial fraction of their patterns — the premise
    // of cross-session merging.
    app::AppParams params = app::catalogApp("GanttProject");
    params.sessionLength = secToNs(30);
    auto r0 = app::runSession(params, 0);
    auto r1 = app::runSession(params, 1);
    std::vector<Session> sessions;
    sessions.push_back(Session::fromTrace(std::move(r0.trace)));
    sessions.push_back(Session::fromTrace(std::move(r1.trace)));
    const MergedPatternSet merged =
        minePatternsAcrossSessions(sessions, msToNs(100));
    EXPECT_GT(merged.recurringCount(), 5u)
        << "sessions of one app must reuse handler structures";
}

} // namespace
} // namespace lag::core
