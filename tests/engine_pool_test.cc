/**
 * @file
 * Tests for the thread pool: completion guarantees, nested
 * submission, a busy worker's submissions running elsewhere, failing
 * tasks and lifecycle; and for parallelFor, the engine's fork-join
 * primitive and only join, which joins only its own tasks and runs
 * inline on a worker of its own pool. The destructor, which drains
 * the queue, is the join for bare submissions. Run these under
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

/** Spin until @p flag holds or 30 s pass; returns whether it held. */
template <typename Pred>
bool
waitFor(Pred flag)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (!flag()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(EnginePool, RunsEveryTask)
{
    std::atomic<int> count{0};
    constexpr int kTasks = 2000;
    {
        ThreadPool pool(4);
        for (int i = 0; i < kTasks; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), kTasks);
}

TEST(EnginePool, DefaultConcurrencyAtLeastOne)
{
    const std::size_t workers = ThreadPool::defaultConcurrency();
    EXPECT_GE(workers, 1u);
    // A default pool runs that many tasks at once: each one waits
    // until all of them have started.
    std::atomic<std::size_t> started{0};
    std::atomic<std::size_t> metAll{0};
    {
        ThreadPool pool; // workers = defaultConcurrency()
        for (std::size_t i = 0; i < workers; ++i) {
            pool.submit([&started, &metAll, workers] {
                ++started;
                if (waitFor([&] { return started.load() == workers; }))
                    ++metAll;
            });
        }
    }
    EXPECT_EQ(metAll.load(), workers);
}

TEST(EnginePool, SingleWorkerStillCompletes)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 100);
}

TEST(EnginePool, TasksCanSubmitTasks)
{
    // The destructor's drain must cover work submitted from inside
    // workers, even after it has begun.
    std::atomic<int> count{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 50; ++i) {
            pool.submit([&pool, &count] {
                ++count;
                pool.submit([&pool, &count] {
                    ++count;
                    pool.submit([&count] { ++count; });
                });
            });
        }
    }
    EXPECT_EQ(count.load(), 150);
}

TEST(EnginePool, BusyWorkerSubmissionsRunOnOtherWorkers)
{
    // One long task occupies a worker after submitting short ones;
    // the other workers drain them long before it finishes.
    std::atomic<int> shortDone{0};
    std::atomic<int> ranElsewhere{0};
    std::atomic<bool> release{false};
    {
        ThreadPool pool(4);
        pool.submit([&] {
            const std::thread::id busy = std::this_thread::get_id();
            for (int i = 0; i < 200; ++i) {
                pool.submit([&, busy] {
                    if (std::this_thread::get_id() != busy)
                        ++ranElsewhere;
                    ++shortDone;
                });
            }
            while (!release.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        });
        EXPECT_TRUE(waitFor([&] { return shortDone.load() == 200; }))
            << "short tasks waited for the busy worker";
        release.store(true);
    }
    EXPECT_EQ(ranElsewhere.load(), 200);
}

TEST(EnginePool, ThrowingTaskDoesNotStopThePool)
{
    // One worker: everything after the failures runs on the very
    // thread that caught them.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        pool.submit([] { throw std::runtime_error("task failed"); });
        pool.submit([] { throw 42; });
        for (int i = 0; i < 20; ++i)
            pool.submit([&ran] { ++ran; });
    }
    EXPECT_EQ(ran.load(), 20);
}

TEST(EnginePool, DestructorDrainsOutstandingWork)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 500; ++i)
            pool.submit([&count] { ++count; });
        // No other join: the destructor must drain before joining.
    }
    EXPECT_EQ(count.load(), 500);
}

TEST(EnginePool, RepeatedConstructDestruct)
{
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> count{0};
        {
            ThreadPool pool(2);
            for (int i = 0; i < 20; ++i)
                pool.submit([&count] { ++count; });
        }
        EXPECT_EQ(count.load(), 20);
    }
}

TEST(EnginePool, ManyExternalSubmitters)
{
    // Several non-worker threads hammer the queue at once.
    std::atomic<int> count{0};
    {
        ThreadPool pool(3);
        std::vector<std::thread> submitters;
        for (int t = 0; t < 4; ++t) {
            submitters.emplace_back([&pool, &count] {
                for (int i = 0; i < 250; ++i)
                    pool.submit([&count] { ++count; });
            });
        }
        for (auto &thread : submitters)
            thread.join();
    }
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

TEST(EngineParallelFor, RunsInlineOnAWorkerOfItsPool)
{
    // lagd's `/v1/refresh` aggregates on the HTTP worker serving it.
    // With one worker, a fan-out that waited for the pool would wait
    // for itself.
    constexpr std::size_t kCount = 8;
    std::vector<int> hits(kCount, 0);
    std::vector<std::thread::id> ranOn(kCount);
    std::vector<int> ranDespiteErrors(kCount, 0);
    std::thread::id worker;
    std::string firstError;
    {
        ThreadPool pool(1);
        pool.submit([&] {
            worker = std::this_thread::get_id();
            parallelFor(pool, kCount, [&](std::size_t i) {
                ++hits[i];
                ranOn[i] = std::this_thread::get_id();
            });
            // Inline, the join's contract holds too: every index
            // runs, and the first error (in index order) comes back.
            try {
                parallelFor(pool, kCount, [&](std::size_t i) {
                    ranDespiteErrors[i] = 1;
                    if (i == 2 || i == 5)
                        throw std::runtime_error("index " +
                                                 std::to_string(i));
                });
            } catch (const std::runtime_error &e) {
                firstError = e.what();
            }
        });
    }
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i], 1) << "index " << i;
        EXPECT_EQ(ranOn[i], worker) << "index " << i;
    }
    EXPECT_EQ(ranDespiteErrors, std::vector<int>(kCount, 1));
    EXPECT_EQ(firstError, "index 2");
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
    EXPECT_TRUE(returned)
        << "parallelFor waited for a task it did not submit";
    EXPECT_EQ(hits, std::vector<int>(4, 1));
}

TEST(EngineParallelFor, ReturnsNormallyWhileAnUnrelatedTaskThrows)
{
    // One worker runs tasks in submission order, so the unrelated
    // task has thrown before any of the fan-out's tasks runs; its
    // error stays with the worker that caught it.
    ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("unrelated"); });

    std::vector<int> hits(6, 0);
    EXPECT_NO_THROW(parallelFor(pool, hits.size(),
                                [&hits](std::size_t i) {
                                    hits[i] = 1;
                                }));
    EXPECT_EQ(hits, std::vector<int>(6, 1));
}

} // namespace
} // namespace lag::engine
