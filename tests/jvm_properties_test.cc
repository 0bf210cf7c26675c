/**
 * @file
 * Property tests for the simulated JVM: across randomized workloads
 * and seeds, the hook stream must maintain the invariants LagAlyzer
 * depends on (paper §II.A): proper nesting per thread, balanced
 * begin/end pairs, non-overlapping stop-the-world collections, and
 * monotone time.
 */

#include <gtest/gtest.h>

#include <vector>

#include "jvm/vm.hh"
#include "jvm_test_util.hh"
#include "util/random.hh"

namespace lag::jvm
{
namespace
{

using test::HookRecord;
using test::RecordingListener;

/** Random activity tree with listener/paint/native/plain nodes. */
ActivityNode
randomTree(Rng &rng, int depth)
{
    ActivityNode node;
    const double pick = rng.nextDouble();
    if (pick < 0.3)
        node.kind = ActivityKind::Listener;
    else if (pick < 0.55)
        node.kind = ActivityKind::Paint;
    else if (pick < 0.7)
        node.kind = ActivityKind::Native;
    else
        node.kind = ActivityKind::Plain;
    // append(), not `"literal" + std::to_string(...)`: GCC 12 at -O3
    // raises a false -Wrestrict on the latter.
    node.frame =
        Frame{std::string("app.C").append(
                  std::to_string(rng.uniformInt(0, 9))),
              std::string("m").append(
                  std::to_string(rng.uniformInt(0, 4)))};
    node.selfCost = rng.uniformInt(usToNs(10), usToNs(800));
    node.allocBytes = static_cast<std::uint64_t>(
        rng.uniformInt(0, 64 << 10));
    if (rng.chance(0.05))
        node.sleepNs = rng.uniformInt(usToNs(100), msToNs(5));
    if (depth > 0) {
        const int kids = static_cast<int>(rng.uniformInt(0, 3));
        for (int i = 0; i < kids; ++i)
            node.children.push_back(randomTree(rng, depth - 1));
    }
    return node;
}

class VmPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(VmPropertyTest, HookStreamInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    JvmConfig config;
    config.seed = static_cast<std::uint64_t>(GetParam());
    config.heap.youngCapacityBytes = 4 << 20; // GCs happen
    config.samplePeriod = msToNs(1);
    RecordingListener listener;
    Jvm vm(config, listener);
    vm.createEventDispatchThread();
    vm.start();

    // Post a random mix of events across the first 200 ms.
    for (int i = 0; i < 60; ++i) {
        const TimeNs when = rng.uniformInt(1, msToNs(200));
        const bool background = rng.chance(0.3);
        auto tree = std::make_shared<const ActivityNode>(
            randomTree(rng, 3));
        vm.eventQueue().schedule(when, [&vm, tree, background] {
            GuiEvent event;
            event.handler = tree;
            event.postedByBackground = background;
            vm.postGuiEvent(event);
        });
    }
    vm.run(secToNs(5));

    // --- Invariants over the hook stream ----------------------------
    TimeNs last = 0;
    int interval_depth = 0;
    int dispatch_open = 0;
    int gc_open = 0;
    std::uint64_t dispatches = 0;
    for (const auto &record : listener.records) {
        ASSERT_GE(record.time, last) << "time went backwards";
        last = record.time;
        switch (record.kind) {
          case HookRecord::Kind::DispatchBegin:
            ++dispatch_open;
            ++dispatches;
            ASSERT_EQ(dispatch_open, 1) << "episodes overlap";
            ASSERT_EQ(interval_depth, 0)
                << "episode started inside an interval";
            break;
          case HookRecord::Kind::DispatchEnd:
            --dispatch_open;
            ASSERT_GE(dispatch_open, 0);
            ASSERT_EQ(interval_depth, 0)
                << "episode ended with open intervals";
            break;
          case HookRecord::Kind::IntervalBegin:
            ASSERT_EQ(dispatch_open, 1)
                << "interval outside an episode on the EDT";
            ++interval_depth;
            break;
          case HookRecord::Kind::IntervalEnd:
            --interval_depth;
            ASSERT_GE(interval_depth, 0) << "unbalanced interval end";
            break;
          case HookRecord::Kind::GcBegin:
            ++gc_open;
            ASSERT_EQ(gc_open, 1) << "collections overlap";
            break;
          case HookRecord::Kind::GcEnd:
            --gc_open;
            ASSERT_GE(gc_open, 0);
            break;
          case HookRecord::Kind::Sample:
            break;
        }
    }
    EXPECT_EQ(dispatch_open, 0) << "episode still open at the end";
    EXPECT_EQ(gc_open, 0) << "collection still open at the end";
    EXPECT_EQ(dispatches, 60u) << "every posted event dispatched";
}

TEST_P(VmPropertyTest, SamplesNeverInsideCollections)
{
    JvmConfig config;
    config.seed = static_cast<std::uint64_t>(GetParam()) ^ 0xabcd;
    config.heap.youngCapacityBytes = 2 << 20;
    config.samplePeriod = usToNs(500);
    RecordingListener listener;
    Jvm vm(config, listener);
    vm.createEventDispatchThread();
    vm.start();
    Rng rng(config.seed);
    for (int i = 0; i < 30; ++i) {
        vm.eventQueue().schedule(
            rng.uniformInt(1, msToNs(100)), [&vm] {
                ActivityBuilder handler(ActivityKind::Listener,
                                        "app.H", "act");
                handler.cost(msToNs(5));
                handler.alloc(1 << 20);
                GuiEvent event;
                event.handler = std::move(handler).buildShared();
                vm.postGuiEvent(event);
            });
    }
    vm.run(secToNs(3));
    ASSERT_GT(vm.stats().minorGcs, 0u);

    bool in_gc = false;
    for (const auto &record : listener.records) {
        if (record.kind == HookRecord::Kind::GcBegin)
            in_gc = true;
        else if (record.kind == HookRecord::Kind::GcEnd)
            in_gc = false;
        else if (record.kind == HookRecord::Kind::Sample) {
            ASSERT_FALSE(in_gc) << "sample during a collection";
        }
    }
}

TEST_P(VmPropertyTest, CpuConservationOnSingleCore)
{
    // On one core with no sleeps/GC, the finish time of a batch of
    // work equals the total demand regardless of slicing.
    JvmConfig config;
    config.cores = 1;
    config.seed = static_cast<std::uint64_t>(GetParam());
    config.heap.youngCapacityBytes = 1ull << 40; // no GC
    RecordingListener listener;
    Jvm vm(config, listener);
    Rng rng(config.seed ^ 0x5555);
    DurationNs total = 0;
    const int threads = 3;
    for (int t = 0; t < threads; ++t) {
        const DurationNs cost = rng.uniformInt(msToNs(5), msToNs(40));
        total += cost;
        ActivityBuilder work(ActivityKind::Plain, "bg.W", "run");
        work.cost(cost);
        std::deque<ProgramStep> steps;
        steps.push_back(ProgramStep::runActivity(
            std::move(work).buildShared()));
        vm.createThread("w-" + std::to_string(t), false,
                        std::make_shared<test::ScriptedProgram>(
                            std::move(steps)));
    }
    vm.start();
    vm.run(total - 1);
    // Just before the total demand, someone must still be live.
    bool any_live = false;
    for (const auto &thread : vm.threads())
        any_live |= thread->isLive();
    EXPECT_TRUE(any_live);
    vm.run(total + msToNs(1));
    for (const auto &thread : vm.threads()) {
        EXPECT_EQ(thread->state(), ThreadState::Terminated)
            << thread->name();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmPropertyTest,
                         ::testing::Range(1, 11));

} // namespace
} // namespace lag::jvm
