/**
 * @file
 * Runtime lock-rank checker: out-of-rank and same-rank
 * acquisitions abort with both stacks (death tests), correct
 * descending-order nesting is accepted, bookkeeping survives
 * condition-variable style unlock/relock, and a study-shaped
 * fan-out — pool, parallelFor, result cache, logging from inside
 * workers — runs clean under the checker.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "obs/metrics.hh"
#include "scratch_dir.hh"
#include "util/logging.hh"
#include "util/mutex.hh"

namespace lag
{
namespace
{

TEST(LockRankDeathTest, OutOfRankAcquisitionAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Mutex inner(LockRank::Pool, "inner");
    Mutex outer(LockRank::Ingest, "outer");
    // Taking the higher-ranked lock while holding the lower one
    // inverts the global order and must abort, printing both the
    // held-lock and the acquiring stacks.
    EXPECT_DEATH(
        {
            MutexLock a(inner);
            MutexLock b(outer);
        },
        "lock rank violation");
}

TEST(LockRankDeathTest, SameRankAcquisitionAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Equal ranks can never nest: no thread ever holds two pools'
    // queue locks at once.
    Mutex first(LockRank::Pool, "pool-a");
    Mutex second(LockRank::Pool, "pool-b");
    EXPECT_DEATH(
        {
            MutexLock a(first);
            MutexLock b(second);
        },
        "lock rank violation");
}

TEST(LockRank, DescendingAcquisitionIsAccepted)
{
    Mutex outer(LockRank::Client, "outer");
    Mutex middle(LockRank::Ingest, "middle");
    Mutex inner(LockRank::Logging, "inner");
    EXPECT_EQ(detail::lockRankHeldDepth(), 0);
    {
        MutexLock a(outer);
        MutexLock b(middle);
        MutexLock c(inner);
        EXPECT_EQ(detail::lockRankHeldDepth(), 3);
    }
    EXPECT_EQ(detail::lockRankHeldDepth(), 0);
}

TEST(LockRank, UnlockRelockKeepsBookkeeping)
{
    // The condition-variable wait protocol: MutexLock::unlock()
    // then lock() on the same scoped object.
    Mutex mutex(LockRank::Client, "cv-mutex");
    MutexLock lock(mutex);
    EXPECT_EQ(detail::lockRankHeldDepth(), 1);
    lock.unlock();
    EXPECT_EQ(detail::lockRankHeldDepth(), 0);
    lock.lock();
    EXPECT_EQ(detail::lockRankHeldDepth(), 1);
    lock.unlock();
    EXPECT_EQ(detail::lockRankHeldDepth(), 0);
    lock.lock(); // destructor releases
}

TEST(LockRank, TryLockParticipates)
{
    Mutex mutex(LockRank::Client, "try-mutex");
    ASSERT_TRUE(mutex.try_lock());
    EXPECT_EQ(detail::lockRankHeldDepth(), 1);
    mutex.unlock();
    EXPECT_EQ(detail::lockRankHeldDepth(), 0);
}

TEST(LockRank, StudyPipelineRunsCleanUnderChecker)
{
    // Drive every engine lock from worker threads: parallelFor's
    // join and the pool locks, result-cache loads, client locks
    // inside the body and the logging leaf rank. Any rank inversion
    // would abort the process, so completing is the assertion; the
    // explicit checks document the outputs.
    const test::ScratchDir dir("lag-lockrank-cache");
    engine::ResultCache cache(dir.path, "lockrank-fingerprint");

    engine::ThreadPool pool(4);
    Mutex stageMutex(LockRank::Client, "stage-state");
    const obs::Counter &misses = obs::metrics().counter("cache.miss");
    const std::uint64_t misses_before = misses.value();
    std::vector<std::uint64_t> touched(3 * 4, 0);

    engine::parallelFor(pool, touched.size(), [&](std::size_t k) {
        const std::size_t shard = k / 4;
        const std::size_t item = k % 4;
        // Misses on an empty cache, from workers.
        const auto entry =
            cache.load("app" + std::to_string(shard),
                       static_cast<std::uint32_t>(item));
        EXPECT_FALSE(entry.has_value());
        debugLog("lockrank item shard=", shard, " item=", item);
        MutexLock lock(stageMutex);
        ++touched[k];
    });

    for (const std::uint64_t count : touched)
        EXPECT_EQ(count, 1u);
    EXPECT_EQ(misses.value() - misses_before, 12u);
    EXPECT_EQ(detail::lockRankHeldDepth(), 0);
}

} // namespace
} // namespace lag
