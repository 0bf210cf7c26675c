/**
 * @file
 * Tests for the characterization analyses: triggers (§IV.C),
 * location (§IV.D), concurrency and GUI-thread states (§IV.E), and
 * the Table III overview row.
 */

#include <gtest/gtest.h>

#include "util/logging.hh"

#include "core/classify.hh"
#include "core/concurrency.hh"
#include "core/location.hh"
#include "core/overview.hh"
#include "core/triggers.hh"
#include "trace_builder.hh"

namespace lag::core
{
namespace
{

using trace::IntervalKind;
using trace::TraceGcKind;
using trace::TraceThreadState;

TEST(ClassifyTest, LibraryPrefixes)
{
    EXPECT_TRUE(isRuntimeLibraryClass("java.util.HashMap"));
    EXPECT_TRUE(isRuntimeLibraryClass("javax.swing.JPanel"));
    EXPECT_TRUE(isRuntimeLibraryClass("sun.java2d.loops.DrawLine"));
    EXPECT_TRUE(isRuntimeLibraryClass("com.apple.laf.AquaComboBoxUI"));
    EXPECT_TRUE(isRuntimeLibraryClass("apple.awt.CWindow"));
    EXPECT_FALSE(isRuntimeLibraryClass("org.argouml.model.Updater"));
    EXPECT_FALSE(isRuntimeLibraryClass("javafake.Thing"));
    EXPECT_FALSE(isRuntimeLibraryClass(""));
}

// --- Triggers ---------------------------------------------------------

/** Trigger class of episode @p e of @p s. */
TriggerKind
triggerOf(const Session &s, std::size_t e)
{
    return flatEpisodeTrigger(s.episodeTree(s.episodes()[e]),
                              s.episodeRoot(s.episodes()[e]));
}

TEST(TriggerTest, ListenerMeansInput)
{
    test::TraceBuilder builder;
    builder.listenerEpisode(0, msToNs(10), "app.A");
    const Session s = builder.buildSession(secToNs(1));
    EXPECT_EQ(triggerOf(s, 0),
              TriggerKind::Input);
}

TEST(TriggerTest, PaintMeansOutput)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Paint, "s.JFrame", "paint")
        .intervalEnd(msToNs(9), IntervalKind::Paint)
        .dispatchEnd(msToNs(10));
    const Session s = builder.buildSession(secToNs(1));
    EXPECT_EQ(triggerOf(s, 0),
              TriggerKind::Output);
}

TEST(TriggerTest, AsyncMeansAsync)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Async, "s.InvocationEvent",
                       "dispatch")
        .intervalEnd(msToNs(9), IntervalKind::Async)
        .dispatchEnd(msToNs(10));
    const Session s = builder.buildSession(secToNs(1));
    EXPECT_EQ(triggerOf(s, 0),
              TriggerKind::Async);
}

TEST(TriggerTest, RepaintManagerReclassifiedAsOutput)
{
    // Paper §IV.C footnote: async containing paint -> output.
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Async, "s.InvocationEvent",
                       "dispatch")
        .intervalBegin(2, IntervalKind::Paint, "s.JPanel", "paint")
        .intervalEnd(msToNs(8), IntervalKind::Paint)
        .intervalEnd(msToNs(9), IntervalKind::Async)
        .dispatchEnd(msToNs(10));
    const Session s = builder.buildSession(secToNs(1));
    EXPECT_EQ(triggerOf(s, 0),
              TriggerKind::Output);
}

TEST(TriggerTest, AsyncWithListenerStaysAsync)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Async, "s.InvocationEvent",
                       "dispatch")
        .intervalBegin(2, IntervalKind::Listener, "app.Update",
                       "stateChanged")
        .intervalEnd(msToNs(8), IntervalKind::Listener)
        .intervalEnd(msToNs(9), IntervalKind::Async)
        .dispatchEnd(msToNs(10));
    const Session s = builder.buildSession(secToNs(1));
    EXPECT_EQ(triggerOf(s, 0),
              TriggerKind::Async);
}

TEST(TriggerTest, EmptyAndGcOnlyAreUnspecified)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0).dispatchEnd(msToNs(10));
    builder.dispatchBegin(msToNs(20))
        .gc(msToNs(21), msToNs(400))
        .dispatchEnd(msToNs(401));
    const Session s = builder.buildSession(secToNs(1));
    EXPECT_EQ(triggerOf(s, 0),
              TriggerKind::Unspecified);
    EXPECT_EQ(triggerOf(s, 1),
              TriggerKind::Unspecified);
}

TEST(TriggerTest, MarkerFoundThroughNativeNesting)
{
    // Preorder descends into natives to find the first marker.
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Native, "sun.Foo", "call")
        .intervalBegin(2, IntervalKind::Paint, "s.JPanel", "paint")
        .intervalEnd(3, IntervalKind::Paint)
        .intervalEnd(msToNs(9), IntervalKind::Native)
        .dispatchEnd(msToNs(10));
    const Session s = builder.buildSession(secToNs(1));
    EXPECT_EQ(triggerOf(s, 0),
              TriggerKind::Output);
}

TEST(TriggerTest, SharesOverBothEpisodeSets)
{
    test::TraceBuilder builder;
    builder.listenerEpisode(0, msToNs(10), "app.A");       // input
    builder.listenerEpisode(msToNs(20), msToNs(200), "app.B"); // input
    builder.dispatchBegin(msToNs(210))
        .intervalBegin(msToNs(211), IntervalKind::Paint, "s.P", "p")
        .intervalEnd(msToNs(390), IntervalKind::Paint)
        .dispatchEnd(msToNs(400)); // output, perceptible
    const Session s = builder.buildSession(secToNs(1));
    const TriggerAnalysisResult result =
        analyzeTriggers(s, msToNs(100));
    EXPECT_EQ(result.all.episodeCount, 3u);
    EXPECT_NEAR(result.all.input, 2.0 / 3.0, 1e-9);
    EXPECT_EQ(result.perceptible.episodeCount, 2u);
    EXPECT_NEAR(result.perceptible.input, 0.5, 1e-9);
    EXPECT_NEAR(result.perceptible.output, 0.5, 1e-9);
}

// --- Location ---------------------------------------------------------

TEST(LocationTest, GcAndNativeFractions)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(msToNs(1), IntervalKind::Native, "sun.N",
                       "draw")
        .gc(msToNs(2), msToNs(22)) // 20 ms GC inside 40 ms native
        .intervalEnd(msToNs(41), IntervalKind::Native)
        .dispatchEnd(msToNs(100));
    const Session s = builder.buildSession(secToNs(1));
    const LocationAnalysisResult result =
        analyzeLocation(s, msToNs(50));
    // GC: 20/100; native: (40-20)/100 — the collection is not the
    // native call's fault (paper Figure 1 discussion).
    EXPECT_NEAR(result.all.gcFraction, 0.20, 1e-9);
    EXPECT_NEAR(result.all.nativeFraction, 0.20, 1e-9);
    EXPECT_EQ(result.perceptible.episodeCount, 1u);
}

TEST(LocationTest, AppVersusLibraryFromSampleTops)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(msToNs(10)).dispatchEnd(msToNs(60));
    builder.sample(msToNs(20), TraceThreadState::Runnable,
                   "org.app.Model", "compute"); // app
    builder.sample(msToNs(30), TraceThreadState::Runnable,
                   "javax.swing.JComponent", "paint"); // library
    builder.sample(msToNs(40), TraceThreadState::Runnable,
                   "java.util.HashMap", "get"); // library
    const Session s = builder.buildSession(secToNs(1));
    const LocationAnalysisResult result =
        analyzeLocation(s, msToNs(100));
    EXPECT_EQ(result.all.sampleCount, 3u);
    EXPECT_NEAR(result.all.appFraction, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(result.all.libraryFraction, 2.0 / 3.0, 1e-9);
    EXPECT_EQ(result.perceptible.sampleCount, 0u);
}

// --- Concurrency and states --------------------------------------------

/** One entry per state, on threads 0, 1, ... in order. */
std::vector<test::SampleEntry>
multiThreadSample(trace::StringTable &strings,
                  std::vector<TraceThreadState> states)
{
    std::vector<test::SampleEntry> entries;
    for (std::size_t i = 0; i < states.size(); ++i) {
        entries.push_back(test::SampleEntry{
            static_cast<ThreadId>(i), states[i],
            {trace::SampleFrame{strings.intern("java.lang.Thread"),
                                strings.intern("run")}}});
    }
    return entries;
}

TEST(ConcurrencyTest, CountsRunnableThreads)
{
    test::TraceBuilder builder;
    builder.addThread("W1");
    builder.addThread("W2");
    builder.dispatchBegin(msToNs(10)).dispatchEnd(msToNs(200));
    builder.rawSample(msToNs(20), multiThreadSample(
        builder.strings(),
        {TraceThreadState::Runnable, TraceThreadState::Runnable,
         TraceThreadState::Waiting}));
    builder.rawSample(msToNs(30), multiThreadSample(
        builder.strings(),
        {TraceThreadState::Blocked, TraceThreadState::Runnable,
         TraceThreadState::Sleeping}));
    const Session s = builder.buildSession(secToNs(1));
    const ConcurrencyResult result = analyzeConcurrency(s, msToNs(100));
    EXPECT_EQ(result.samplesAll, 2u);
    EXPECT_NEAR(result.meanRunnableAll, 1.5, 1e-9);
    // The 190 ms episode is perceptible, so the same samples count.
    EXPECT_NEAR(result.meanRunnablePerceptible, 1.5, 1e-9);
}

TEST(GuiStatesTest, PartitionsGuiThreadStates)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(msToNs(10)).dispatchEnd(msToNs(200));
    builder.sample(msToNs(20), TraceThreadState::Runnable);
    builder.sample(msToNs(30), TraceThreadState::Sleeping);
    builder.sample(msToNs(40), TraceThreadState::Sleeping);
    builder.sample(msToNs(50), TraceThreadState::Blocked);
    const Session s = builder.buildSession(secToNs(1));
    const ThreadStateResult result = analyzeGuiStates(s, msToNs(100));
    EXPECT_EQ(result.all.sampleCount, 4u);
    EXPECT_NEAR(result.all.runnable, 0.25, 1e-9);
    EXPECT_NEAR(result.all.sleeping, 0.50, 1e-9);
    EXPECT_NEAR(result.all.blocked, 0.25, 1e-9);
    EXPECT_NEAR(result.all.waiting, 0.0, 1e-9);
    EXPECT_NEAR(result.all.blocked + result.all.waiting +
                    result.all.sleeping + result.all.runnable,
                1.0, 1e-9);
}

TEST(GuiStatesTest, SamplesOutsideEpisodesIgnored)
{
    test::TraceBuilder builder;
    builder.sample(msToNs(5), TraceThreadState::Sleeping); // outside
    builder.dispatchBegin(msToNs(10)).dispatchEnd(msToNs(20));
    builder.rawSample(msToNs(15),
                      multiThreadSample(builder.strings(),
                                        {TraceThreadState::Runnable}));
    const Session s = builder.buildSession(secToNs(1));
    const ThreadStateResult result = analyzeGuiStates(s, msToNs(100));
    EXPECT_EQ(result.all.sampleCount, 1u);
    EXPECT_NEAR(result.all.runnable, 1.0, 1e-9);
}

// --- Overview ----------------------------------------------------------

TEST(OverviewTest, ComputesTableThreeRow)
{
    test::TraceBuilder builder;
    builder.listenerEpisode(0, msToNs(50), "app.A");
    builder.listenerEpisode(msToNs(60), msToNs(260), "app.B");
    trace::Trace trace = builder.build(secToNs(100));
    trace.meta.filteredShortEpisodes = 1000;
    trace.meta.totalInEpisodeTime = secToNs(10);
    const Session session = Session::fromTrace(std::move(trace));
    const PatternSet patterns =
        PatternMiner(msToNs(100)).mine(session);
    const OverviewRow row =
        computeOverview(session, patterns, msToNs(100));

    EXPECT_DOUBLE_EQ(row.e2eSeconds, 100.0);
    EXPECT_DOUBLE_EQ(row.inEpsPercent, 10.0);
    EXPECT_EQ(row.shortCount, 1000u);
    EXPECT_EQ(row.tracedCount, 2u);
    EXPECT_EQ(row.perceptibleCount, 1u);
    // 1 perceptible / (10 s / 60) minutes = 6 per minute.
    EXPECT_NEAR(row.longPerMin, 6.0, 1e-9);
    EXPECT_EQ(row.distinctPatterns, 2u);
    EXPECT_EQ(row.coveredEpisodes, 2u);
    EXPECT_DOUBLE_EQ(row.oneEpPercent, 100.0);
    EXPECT_DOUBLE_EQ(row.meanDescs, 1.0);
    EXPECT_DOUBLE_EQ(row.meanDepth, 2.0);
}

TEST(OverviewTest, MeanOfRows)
{
    OverviewRow a;
    a.e2eSeconds = 100;
    a.tracedCount = 10;
    a.perceptibleCount = 2;
    a.oneEpPercent = 50;
    OverviewRow b;
    b.e2eSeconds = 300;
    b.tracedCount = 30;
    b.perceptibleCount = 4;
    b.oneEpPercent = 70;
    const OverviewRow mean = meanOverview({a, b});
    EXPECT_DOUBLE_EQ(mean.e2eSeconds, 200.0);
    EXPECT_EQ(mean.tracedCount, 20u);
    EXPECT_EQ(mean.perceptibleCount, 3u);
    EXPECT_DOUBLE_EQ(mean.oneEpPercent, 60.0);
}

TEST(OverviewTest, MeanOfNothingPanics)
{
    EXPECT_THROW(meanOverview({}), PanicError);
}

} // namespace
} // namespace lag::core
