/**
 * @file
 * Tests for the work-stealing thread pool: completion guarantees,
 * nested submission, stealing under contention, exception capture
 * and lifecycle; and for parallelFor, the engine's fork-join
 * primitive, which joins only its own tasks. Run these under
 * -DLAG_SANITIZE=thread (`ctest -L engine` in such a build) to
 * audit the locking discipline.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/pool.hh"

namespace lag::engine
{
namespace
{

TEST(EnginePool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);

    std::atomic<int> count{0};
    constexpr int kTasks = 2000;
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&count] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), kTasks);
}

TEST(EnginePool, DefaultConcurrencyAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
    ThreadPool pool; // workers = defaultConcurrency()
    EXPECT_EQ(pool.workerCount(), ThreadPool::defaultConcurrency());
}

TEST(EnginePool, SingleWorkerStillCompletes)
{
    ThreadPool pool(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(EnginePool, TasksCanSubmitTasks)
{
    // waitIdle must cover work submitted from inside workers.
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i) {
        pool.submit([&pool, &count] {
            ++count;
            pool.submit([&pool, &count] {
                ++count;
                pool.submit([&count] { ++count; });
            });
        });
    }
    pool.waitIdle();
    EXPECT_EQ(count.load(), 150);
}

TEST(EnginePool, StealsUnderContention)
{
    // One long task occupies a worker while short ones pile up
    // behind it; with stealing, the other workers drain them long
    // before the sleeper finishes.
    ThreadPool pool(4);
    std::atomic<int> shortDone{0};
    std::atomic<bool> release{false};

    pool.submit([&pool, &shortDone, &release] {
        // Submitted from a worker → lands on its own deque; the
        // other workers must steal these to make progress.
        for (int i = 0; i < 200; ++i)
            pool.submit([&shortDone] { ++shortDone; });
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (shortDone.load() < 200 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(shortDone.load(), 200)
        << "short tasks were not stolen while a worker was busy";
    release.store(true);
    pool.waitIdle();
}

TEST(EnginePool, WaitIdleRethrowsFirstTaskException)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&ran, i] {
            ++ran;
            if (i == 7)
                throw std::runtime_error("task 7 failed");
        });
    }
    EXPECT_THROW(pool.waitIdle(), std::runtime_error);
    EXPECT_EQ(ran.load(), 20) << "one failure must not stop the rest";

    // The error was consumed; the pool stays usable.
    pool.submit([&ran] { ++ran; });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 21);
}

TEST(EnginePool, DestructorDrainsOutstandingWork)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 500; ++i)
            pool.submit([&count] { ++count; });
        // No waitIdle: the destructor must drain before joining.
    }
    EXPECT_EQ(count.load(), 500);
}

TEST(EnginePool, RepeatedConstructDestruct)
{
    for (int round = 0; round < 20; ++round) {
        ThreadPool pool(2);
        std::atomic<int> count{0};
        for (int i = 0; i < 20; ++i)
            pool.submit([&count] { ++count; });
        pool.waitIdle();
        EXPECT_EQ(count.load(), 20);
    }
}

TEST(EnginePool, ManyExternalSubmitters)
{
    // Several non-worker threads hammer the injector queue at once.
    ThreadPool pool(3);
    std::atomic<int> count{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&pool, &count] {
            for (int i = 0; i < 250; ++i)
                pool.submit([&count] { ++count; });
        });
    }
    for (auto &thread : submitters)
        thread.join();
    pool.waitIdle();
    EXPECT_EQ(count.load(), 1000);
}

TEST(EngineParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kCount = 777;
    std::vector<int> hits(kCount, 0);
    parallelFor(pool, kCount,
                [&](std::size_t i) { ++hits[i]; });
    for (const int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(EngineParallelFor, ZeroCountIsANoOp)
{
    ThreadPool pool(1);
    parallelFor(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(EngineParallelFor, PropagatesException)
{
    ThreadPool pool(2);
    EXPECT_THROW(parallelFor(pool, 10,
                             [](std::size_t i) {
                                 if (i == 5)
                                     throw std::runtime_error("bad");
                             }),
                 std::runtime_error);
}

TEST(EngineParallelFor, ThrowingIndexDoesNotStopTheOthers)
{
    ThreadPool pool(2);
    std::vector<int> ran(8, 0);
    try {
        parallelFor(pool, ran.size(), [&ran](std::size_t i) {
            ran[i] = 1;
            if (i == 2 || i == 5)
                throw std::runtime_error("index " +
                                         std::to_string(i));
        });
        ADD_FAILURE() << "parallelFor swallowed its tasks' errors";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_TRUE(what == "index 2" || what == "index 5") << what;
    }
    for (std::size_t i = 0; i < ran.size(); ++i)
        EXPECT_EQ(ran[i], 1) << "index " << i << " did not run";
}

TEST(EngineParallelFor, ReturnsWhileAnUnrelatedTaskIsParked)
{
    // lagd runs HTTP connections and ingest epochs on one pool; an
    // epoch's fan-out must not wait for a connection still reading.
    ThreadPool pool(2);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> parked;
    pool.submit([released, &parked] {
        parked.set_value();
        released.wait();
    });
    parked.get_future().wait();

    std::vector<int> hits(4, 0);
    auto fanout = std::async(std::launch::async, [&pool, &hits] {
        parallelFor(pool, hits.size(),
                    [&hits](std::size_t i) { hits[i] = 1; });
    });
    const bool returned = fanout.wait_for(std::chrono::seconds(2)) ==
                          std::future_status::ready;
    // Release either way, so a failure reports instead of hanging.
    release.set_value();
    fanout.get();
    pool.waitIdle();
    EXPECT_TRUE(returned)
        << "parallelFor waited for a task it did not submit";
    EXPECT_EQ(hits, std::vector<int>(4, 1));
}

TEST(EngineParallelFor, LeavesUnrelatedExceptionsToWaitIdle)
{
    // One worker runs tasks in submission order, so the unrelated
    // failure is captured before any of the fan-out's tasks runs.
    ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("unrelated"); });

    std::vector<int> hits(6, 0);
    EXPECT_NO_THROW(parallelFor(pool, hits.size(),
                                [&hits](std::size_t i) {
                                    hits[i] = 1;
                                }));
    EXPECT_EQ(hits, std::vector<int>(6, 1));
    EXPECT_THROW(pool.waitIdle(), std::runtime_error);
}

} // namespace
} // namespace lag::engine
