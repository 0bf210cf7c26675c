/**
 * @file
 * Tests for the LiLa agent: episode/interval filtering, GC handling,
 * sample capture policy and trace assembly.
 */

#include <gtest/gtest.h>

#include "jvm/vm.hh"
#include "jvm_test_util.hh"
#include "lila/agent.hh"

namespace lag::lila
{
namespace
{

using jvm::ActivityBuilder;
using jvm::ActivityKind;
using jvm::GuiEvent;

LilaConfig
standardConfig()
{
    LilaConfig config;
    config.filterThreshold = msToNs(3);
    return config;
}

jvm::JvmConfig
vmConfig()
{
    jvm::JvmConfig config;
    config.seed = 5;
    config.dispatchOverhead = 0;
    config.heap.youngCapacityBytes = 1ull << 40; // no implicit GC
    return config;
}

GuiEvent
simpleEvent(DurationNs cost)
{
    ActivityBuilder handler(ActivityKind::Listener, "app.Handler",
                            "actionPerformed");
    handler.cost(cost);
    GuiEvent event;
    event.handler = std::move(handler).buildShared();
    return event;
}

/** Run one session: posts the given events at 5 ms spacing. */
trace::Trace
record(const std::vector<GuiEvent> &events,
       const LilaConfig &lila_config = standardConfig(),
       jvm::JvmConfig jvm_config = vmConfig())
{
    LilaAgent agent(lila_config);
    jvm::Jvm vm(jvm_config, agent);
    vm.createEventDispatchThread();
    agent.beginSession("TestApp", 0, 5, jvm_config.samplePeriod, 0);
    vm.start();
    TimeNs when = msToNs(1);
    for (const auto &event : events) {
        vm.eventQueue().schedule(when, [&vm, event] {
            vm.postGuiEvent(event);
        });
        when += msToNs(5);
    }
    vm.run(secToNs(10));
    return agent.finishSession(vm.now());
}

TEST(LilaAgentTest, ShortEpisodesCountedNotRecorded)
{
    const trace::Trace trace =
        record({simpleEvent(msToNs(1)), simpleEvent(msToNs(2)),
                simpleEvent(msToNs(10))});
    EXPECT_EQ(trace.meta.filteredShortEpisodes, 2u);
    // Exactly one dispatch pair in the stream.
    std::size_t begins = 0;
    for (const auto &event : trace.events) {
        if (event.type == trace::EventType::DispatchBegin)
            ++begins;
    }
    EXPECT_EQ(begins, 1u);
}

TEST(LilaAgentTest, TotalInEpisodeTimeIncludesFiltered)
{
    const trace::Trace trace =
        record({simpleEvent(msToNs(1)), simpleEvent(msToNs(10))});
    EXPECT_EQ(trace.meta.totalInEpisodeTime, msToNs(11));
}

TEST(LilaAgentTest, ShortChildIntervalsPruned)
{
    ActivityBuilder handler(ActivityKind::Listener, "app.Big", "act");
    handler.cost(msToNs(8));
    handler.child(ActivityBuilder(ActivityKind::Paint, "app.Tiny",
                                  "paint")
                      .cost(msToNs(1)));
    handler.child(ActivityBuilder(ActivityKind::Paint, "app.Large",
                                  "paint")
                      .cost(msToNs(6)));
    GuiEvent event;
    event.handler = std::move(handler).buildShared();
    const trace::Trace trace = record({event});

    std::vector<std::string> classes;
    for (const auto &rec : trace.events) {
        if (rec.type == trace::EventType::IntervalBegin)
            classes.push_back(trace.strings.lookup(rec.classSym));
    }
    EXPECT_EQ(classes,
              (std::vector<std::string>{"app.Big", "app.Large"}))
        << "the sub-threshold paint must be pruned";
}

TEST(LilaAgentTest, GcOnlyEpisodeShape)
{
    // A posted Runnable (Plain root, no instrumented intervals)
    // triggers System.gc(): the trace shows the dispatch with only a
    // GC inside — the "empty" perceptible Arabeske episodes of the
    // paper's SIV.C.
    ActivityBuilder handler(ActivityKind::Plain, "app.GcRequest",
                            "run");
    handler.cost(usToNs(300));
    handler.child(ActivityBuilder(ActivityKind::Plain,
                                  "java.lang.System", "gc")
                      .cost(usToNs(100))
                      .systemGc());
    GuiEvent event;
    event.handler = std::move(handler).buildShared();
    const trace::Trace trace = record({event});

    bool saw_dispatch = false;
    bool saw_interval = false;
    bool saw_gc = false;
    for (const auto &rec : trace.events) {
        if (rec.type == trace::EventType::DispatchBegin)
            saw_dispatch = true;
        if (rec.type == trace::EventType::IntervalBegin)
            saw_interval = true;
        if (rec.type == trace::EventType::GcBegin)
            saw_gc = true;
    }
    EXPECT_TRUE(saw_dispatch) << "GC stretches the episode over 3 ms";
    EXPECT_TRUE(saw_gc);
    EXPECT_FALSE(saw_interval) << "plain frames produce no intervals";
}

TEST(LilaAgentTest, IntervalSpanIncludesGcPause)
{
    // A listener whose own CPU is tiny but which contains a long
    // collection survives the filter: interval filtering is by span
    // (what the wall clock saw), not by CPU.
    ActivityBuilder handler(ActivityKind::Listener, "app.GcButton",
                            "act");
    handler.cost(usToNs(300));
    handler.child(ActivityBuilder(ActivityKind::Plain,
                                  "java.lang.System", "gc")
                      .cost(usToNs(100))
                      .systemGc());
    GuiEvent event;
    event.handler = std::move(handler).buildShared();
    const trace::Trace trace = record({event});

    bool saw_listener = false;
    bool gc_inside_listener = false;
    int depth = 0;
    for (const auto &rec : trace.events) {
        if (rec.type == trace::EventType::IntervalBegin) {
            saw_listener = true;
            ++depth;
        }
        if (rec.type == trace::EventType::IntervalEnd)
            --depth;
        if (rec.type == trace::EventType::GcBegin && depth > 0)
            gc_inside_listener = true;
    }
    EXPECT_TRUE(saw_listener);
    EXPECT_TRUE(gc_inside_listener);
}

TEST(LilaAgentTest, GcOutsideEpisodesRecorded)
{
    LilaAgent agent(standardConfig());
    jvm::JvmConfig config = vmConfig();
    jvm::Jvm vm(config, agent);
    vm.createEventDispatchThread();
    // A background thread triggers System.gc with no episode open.
    std::deque<jvm::ProgramStep> steps;
    ActivityBuilder work(ActivityKind::Plain, "bg.Cleaner", "clean");
    work.cost(usToNs(200));
    work.systemGc();
    steps.push_back(
        jvm::ProgramStep::runActivity(std::move(work).buildShared()));
    vm.createThread("cleaner", false,
                    std::make_shared<test::ScriptedProgram>(
                        std::move(steps)));
    agent.beginSession("TestApp", 0, 5, config.samplePeriod, 0);
    vm.start();
    vm.run(secToNs(5));
    const trace::Trace trace = agent.finishSession(vm.now());

    std::size_t gc_begins = 0;
    std::size_t gc_ends = 0;
    for (const auto &rec : trace.events) {
        if (rec.type == trace::EventType::GcBegin)
            ++gc_begins;
        if (rec.type == trace::EventType::GcEnd)
            ++gc_ends;
    }
    EXPECT_EQ(gc_begins, 1u);
    EXPECT_EQ(gc_ends, 1u);
}

TEST(LilaAgentTest, EventsAreTimeOrdered)
{
    std::vector<GuiEvent> events;
    for (int i = 0; i < 10; ++i)
        events.push_back(simpleEvent(msToNs(4)));
    const trace::Trace trace = record(events);
    EXPECT_NO_THROW(trace.validate());
    EXPECT_GE(trace.events.size(), 40u);
}

TEST(LilaAgentTest, SamplesOnlyDuringEpisodes)
{
    LilaConfig lila_config = standardConfig();
    lila_config.samplesOnlyInEpisodes = true;
    jvm::JvmConfig config = vmConfig();
    config.samplePeriod = msToNs(1);
    // One long episode at t=1ms..41ms, then idle until 200 ms.
    const trace::Trace trace =
        record({simpleEvent(msToNs(40))}, lila_config, config);
    ASSERT_FALSE(trace.samples.empty());
    for (const TimeNs time : trace.samples.times()) {
        EXPECT_GE(time, msToNs(1));
        EXPECT_LE(time, msToNs(45));
    }
}

TEST(LilaAgentTest, AllSamplesWhenPolicyDisabled)
{
    LilaConfig lila_config = standardConfig();
    lila_config.samplesOnlyInEpisodes = false;
    jvm::JvmConfig config = vmConfig();
    config.samplePeriod = msToNs(1);
    const trace::Trace trace =
        record({simpleEvent(msToNs(40))}, lila_config, config);
    // Samples cover the whole 10 s run, not just the episode.
    EXPECT_GT(trace.samples.times().back(), secToNs(1));
}

TEST(LilaAgentTest, InFlightEpisodeDiscardedAtSessionEnd)
{
    LilaAgent agent(standardConfig());
    jvm::JvmConfig config = vmConfig();
    jvm::Jvm vm(config, agent);
    vm.createEventDispatchThread();
    agent.beginSession("TestApp", 0, 5, config.samplePeriod, 0);
    vm.start();
    vm.eventQueue().schedule(msToNs(1), [&vm] {
        ActivityBuilder handler(ActivityKind::Listener, "app.Long",
                                "act");
        handler.cost(secToNs(60));
        GuiEvent event;
        event.handler = std::move(handler).buildShared();
        vm.postGuiEvent(event);
    });
    vm.run(secToNs(1)); // stop mid-episode
    const trace::Trace trace = agent.finishSession(vm.now());
    for (const auto &rec : trace.events) {
        EXPECT_NE(rec.type, trace::EventType::DispatchBegin)
            << "incomplete episodes must not be recorded";
    }
    EXPECT_NO_THROW(trace.validate());
}

TEST(LilaAgentTest, MetadataRecorded)
{
    LilaAgent agent(standardConfig());
    jvm::JvmConfig config = vmConfig();
    jvm::Jvm vm(config, agent);
    vm.createEventDispatchThread();
    agent.beginSession("MyApp", 3, 999, msToNs(10), 0);
    vm.start();
    vm.run(secToNs(1));
    const trace::Trace trace = agent.finishSession(vm.now());
    EXPECT_EQ(trace.meta.appName, "MyApp");
    EXPECT_EQ(trace.meta.sessionIndex, 3u);
    EXPECT_EQ(trace.meta.seed, 999u);
    EXPECT_EQ(trace.meta.filterThreshold, msToNs(3));
    EXPECT_EQ(trace.meta.endTime, secToNs(1));
    ASSERT_EQ(trace.threads.size(), 1u);
    EXPECT_TRUE(trace.threads[0].isGui);
}

TEST(LilaAgentTest, NestedListenersPreservedAboveThreshold)
{
    ActivityBuilder outer(ActivityKind::Listener, "app.Outer", "act");
    outer.cost(msToNs(4));
    outer.child(ActivityBuilder(ActivityKind::Listener, "app.Inner",
                                "stateChanged")
                    .cost(msToNs(5)));
    GuiEvent event;
    event.handler = std::move(outer).buildShared();
    const trace::Trace trace = record({event});

    std::vector<std::string> sequence;
    for (const auto &rec : trace.events) {
        if (rec.type == trace::EventType::IntervalBegin)
            sequence.push_back("B:" + trace.strings.lookup(rec.classSym));
        if (rec.type == trace::EventType::IntervalEnd)
            sequence.push_back("E");
    }
    EXPECT_EQ(sequence, (std::vector<std::string>{"B:app.Outer",
                                                  "B:app.Inner", "E",
                                                  "E"}));
}

} // namespace
} // namespace lag::lila
