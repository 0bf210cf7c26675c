/**
 * @file
 * Tests for pattern mining: signature semantics (GC- and timing-
 * blind), occurrence classification, coverage accounting and the
 * browser statistics.
 */

#include <gtest/gtest.h>

#include "util/logging.hh"

#include "core/pattern.hh"
#include "core/pattern_stats.hh"
#include "trace_builder.hh"

namespace lag::core
{
namespace
{

using trace::IntervalKind;
using trace::TraceGcKind;

TEST(PatternSignatureTest, EncodesTypeAndSymbols)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Listener, "app.A", "act")
        .intervalBegin(2, IntervalKind::Paint, "app.B", "paint")
        .intervalEnd(3, IntervalKind::Paint)
        .intervalEnd(4, IntervalKind::Listener)
        .dispatchEnd(5);
    const Session session = builder.buildSession(secToNs(1));
    const std::string sig = patternSignature(session, 0);
    EXPECT_EQ(sig, "D(L[app.A.act](P[app.B.paint]))");
}

TEST(PatternSignatureTest, IgnoresTiming)
{
    const auto make = [](TimeNs scale) {
        test::TraceBuilder builder;
        builder.dispatchBegin(0)
            .intervalBegin(1, IntervalKind::Listener, "app.A", "act")
            .intervalEnd(1 + scale, IntervalKind::Listener)
            .dispatchEnd(2 + scale);
        return builder.buildSession(secToNs(10));
    };
    const Session fast = make(msToNs(5));
    const Session slow = make(msToNs(500));
    EXPECT_EQ(patternSignature(fast, 0),
              patternSignature(slow, 0));
}

TEST(PatternSignatureTest, ExcludesGcNodes)
{
    test::TraceBuilder with_gc;
    with_gc.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Listener, "app.A", "act")
        .gc(msToNs(1), msToNs(2))
        .intervalEnd(msToNs(5), IntervalKind::Listener)
        .dispatchEnd(msToNs(6));
    test::TraceBuilder without_gc;
    without_gc.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Listener, "app.A", "act")
        .intervalEnd(msToNs(5), IntervalKind::Listener)
        .dispatchEnd(msToNs(6));
    const Session a = with_gc.buildSession(secToNs(1));
    const Session b = without_gc.buildSession(secToNs(1));
    EXPECT_EQ(patternSignature(a, 0),
              patternSignature(b, 0));
}

TEST(PatternSignatureTest, DistinguishesSymbols)
{
    const auto sig_for = [](const char *cls) {
        test::TraceBuilder builder;
        builder.listenerEpisode(0, msToNs(10), cls);
        const Session session = builder.buildSession(secToNs(1));
        return patternSignature(session, 0);
    };
    EXPECT_NE(sig_for("app.A"), sig_for("app.B"));
}

TEST(PatternSignatureTest, DistinguishesNestingShape)
{
    // D(L(P)) vs D(L, P): nesting matters, not just the node set.
    test::TraceBuilder nested;
    nested.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Listener, "a.A", "m")
        .intervalBegin(2, IntervalKind::Paint, "a.P", "m")
        .intervalEnd(3, IntervalKind::Paint)
        .intervalEnd(4, IntervalKind::Listener)
        .dispatchEnd(5);
    test::TraceBuilder flat;
    flat.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Listener, "a.A", "m")
        .intervalEnd(2, IntervalKind::Listener)
        .intervalBegin(3, IntervalKind::Paint, "a.P", "m")
        .intervalEnd(4, IntervalKind::Paint)
        .dispatchEnd(5);
    const Session a = nested.buildSession(secToNs(1));
    const Session b = flat.buildSession(secToNs(1));
    EXPECT_NE(patternSignature(a, 0),
              patternSignature(b, 0));
}

/** Session with four episodes of pattern "X" at chosen durations and
 * one of pattern "Y". */
Session
mixedSession(const std::vector<DurationNs> &x_durations)
{
    test::TraceBuilder builder;
    TimeNs now = 0;
    for (const DurationNs d : x_durations) {
        builder.listenerEpisode(now, now + d, "app.X");
        now += d + msToNs(1);
    }
    builder.listenerEpisode(now, now + msToNs(10), "app.Y");
    return builder.buildSession(now + secToNs(1));
}

TEST(PatternMinerTest, GroupsByStructure)
{
    const Session session =
        mixedSession({msToNs(10), msToNs(20), msToNs(30)});
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    ASSERT_EQ(set.patterns.size(), 2u);
    // Sorted most-populous first.
    EXPECT_EQ(set.patterns[0].episodes.size(), 3u);
    EXPECT_EQ(set.patterns[1].episodes.size(), 1u);
    EXPECT_EQ(set.coveredEpisodes, 4u);
    EXPECT_EQ(set.singletonCount(), 1u);
}

TEST(PatternMinerTest, LagStatistics)
{
    const Session session =
        mixedSession({msToNs(10), msToNs(30), msToNs(20)});
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    const Pattern &p = set.patterns[0];
    EXPECT_EQ(p.minLag, msToNs(10));
    EXPECT_EQ(p.maxLag, msToNs(30));
    EXPECT_EQ(p.totalLag, msToNs(60));
    EXPECT_EQ(p.avgLag(), msToNs(20));
}

TEST(PatternMinerTest, OccurrenceNever)
{
    const Session session = mixedSession({msToNs(10), msToNs(20)});
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    EXPECT_EQ(set.patterns[0].occurrence, OccurrenceClass::Never);
    EXPECT_EQ(set.perceptiblePatternCount(), 0u);
}

TEST(PatternMinerTest, OccurrenceAlways)
{
    const Session session = mixedSession({msToNs(150), msToNs(200)});
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    EXPECT_EQ(set.patterns[0].occurrence, OccurrenceClass::Always);
    EXPECT_EQ(set.patterns[0].perceptibleCount, 2u);
}

TEST(PatternMinerTest, OccurrenceOnce)
{
    const Session session =
        mixedSession({msToNs(150), msToNs(20), msToNs(30)});
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    EXPECT_EQ(set.patterns[0].occurrence, OccurrenceClass::Once);
    EXPECT_TRUE(set.patterns[0].firstPerceptible)
        << "the perceptible episode was the pattern's first";
}

TEST(PatternMinerTest, OccurrenceSometimes)
{
    const Session session = mixedSession(
        {msToNs(150), msToNs(20), msToNs(200), msToNs(30)});
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    EXPECT_EQ(set.patterns[0].occurrence, OccurrenceClass::Sometimes);
}

TEST(PatternMinerTest, PerceptibleSingletonIsAlways)
{
    // Paper §IV.B: "We classify singleton patterns as always if
    // their only episode was perceptible."
    test::TraceBuilder builder;
    builder.listenerEpisode(0, msToNs(500), "app.Solo");
    const Session session = builder.buildSession(secToNs(1));
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    ASSERT_EQ(set.patterns.size(), 1u);
    EXPECT_EQ(set.patterns[0].occurrence, OccurrenceClass::Always);
}

TEST(PatternMinerTest, StructurelessEpisodesExcluded)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0).dispatchEnd(msToNs(10)); // no children
    builder.listenerEpisode(msToNs(20), msToNs(30), "app.A");
    const Session session = builder.buildSession(secToNs(1));
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    EXPECT_EQ(set.coveredEpisodes, 1u);
    EXPECT_EQ(set.structurelessEpisodes, 1u);
}

TEST(PatternMinerTest, GcOnlyEpisodeHasEmptyStructureSignature)
{
    // An episode whose only child is a GC (the Arabeske shape).
    test::TraceBuilder builder;
    builder.dispatchBegin(0).gc(msToNs(1), msToNs(400)).dispatchEnd(
        msToNs(401));
    const Session session = builder.buildSession(secToNs(1));
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    ASSERT_EQ(set.patterns.size(), 1u);
    EXPECT_EQ(set.patterns[0].signature, "D");
    EXPECT_EQ(set.patterns[0].descendants, 0u);
}

TEST(PatternMinerTest, KeysAreStableHashesOfSignatures)
{
    const Session session = mixedSession({msToNs(10)});
    const PatternSet a = PatternMiner(msToNs(100)).mine(session);
    const PatternSet b = PatternMiner(msToNs(100)).mine(session);
    ASSERT_EQ(a.patterns.size(), b.patterns.size());
    for (std::size_t i = 0; i < a.patterns.size(); ++i)
        EXPECT_EQ(a.patterns[i].key, b.patterns[i].key);
}

TEST(PatternStatsTest, CdfMonotoneAndComplete)
{
    test::TraceBuilder builder;
    TimeNs now = 0;
    // 6 episodes of A, 3 of B, 1 of C.
    const struct
    {
        const char *cls;
        int n;
    } spec[] = {{"app.A", 6}, {"app.B", 3}, {"app.C", 1}};
    for (const auto &[cls, n] : spec) {
        for (int i = 0; i < n; ++i) {
            builder.listenerEpisode(now, now + msToNs(10), cls);
            now += msToNs(11);
        }
    }
    const Session session = builder.buildSession(now + secToNs(1));
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    const auto cdf = patternCdf(set);

    ASSERT_EQ(cdf.size(), 4u); // origin + 3 patterns
    EXPECT_EQ(cdf.front(), (std::pair<double, double>{0.0, 0.0}));
    EXPECT_DOUBLE_EQ(cdf.back().first, 1.0);
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].first, cdf[i - 1].first);
        EXPECT_GE(cdf[i].second, cdf[i - 1].second);
    }
    // Most-populous-first: the first pattern covers 60%.
    EXPECT_NEAR(cdf[1].second, 0.6, 1e-9);
}

TEST(PatternStatsTest, CdfOfEmptySet)
{
    PatternSet empty;
    const auto cdf = patternCdf(empty);
    ASSERT_EQ(cdf.size(), 1u);
    EXPECT_EQ(cdf[0], (std::pair<double, double>{0.0, 0.0}));
}

TEST(PatternStatsTest, OccurrenceSharesSumToOne)
{
    const Session session = mixedSession(
        {msToNs(150), msToNs(20), msToNs(200), msToNs(30)});
    const PatternSet set = PatternMiner(msToNs(100)).mine(session);
    const OccurrenceShares shares = occurrenceShares(set);
    EXPECT_NEAR(shares.always + shares.sometimes + shares.once +
                    shares.never,
                1.0, 1e-9);
    EXPECT_EQ(shares.patternCount, set.patterns.size());
}

TEST(PatternMinerTest, InvalidThresholdPanics)
{
    EXPECT_THROW(PatternMiner(0), PanicError);
}

} // namespace
} // namespace lag::core
