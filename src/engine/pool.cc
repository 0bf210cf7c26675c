#include "pool.hh"

#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"
#include "util/logging.hh"
#include "util/thread_name.hh"

namespace lag::engine
{

namespace
{

/** The pool the current thread works for, if any. */
thread_local ThreadPool *t_pool = nullptr;

/** Pool instruments; looked up once, then pure atomics. */
struct PoolMetrics
{
    obs::Counter &taskCount =
        obs::metrics().counter("pool.task.count");
    obs::Gauge &queueDepth =
        obs::metrics().gauge("pool.queue.depth");
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics metrics;
    return metrics;
}

} // namespace

std::size_t
ThreadPool::defaultConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t workers)
{
    const std::size_t count =
        workers == 0 ? defaultConcurrency() : workers;
    threads_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
ThreadPool::submit(Task task)
{
    lag_assert(task != nullptr, "null task submitted to pool");
    // Carry the submitter's request context into whichever worker
    // runs the task. This is the single propagation point: a task
    // submitted from inside an already-scoped worker task inherits
    // transitively.
    const obs::TraceContext ctx = obs::currentTraceContext();
    if (ctx.active()) {
        task = [ctx, inner = std::move(task)] {
            obs::TraceContextScope scope(ctx);
            inner();
        };
    }
    {
        MutexLock lock(mutex_);
        queue_.push_back(std::move(task));
        // A cheap proxy for backlog, tracked for its high-water mark
        // (pool.queue.depth max).
        poolMetrics().queueDepth.set(
            static_cast<std::int64_t>(queue_.size()));
    }
    wakeCv_.notify_one();
}

void
ThreadPool::workerLoop(std::size_t index)
{
    t_pool = this;
    // Name the thread before its first span or log line so both
    // carry "pool-worker-N" instead of a bare id.
    setThreadName("pool-worker-" + std::to_string(index));
    for (;;) {
        Task task;
        {
            MutexLock lock(mutex_);
            if (queue_.empty() && !stop_) {
                LAG_SPAN("pool.idle");
                while (queue_.empty() && !stop_)
                    wakeCv_.wait(lock);
            }
            // Stopping with an empty queue: a task still running on
            // another worker runs what it submits itself.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
            // Keep the backlog gauge falling as the queue drains, so
            // a stale positive depth can't read as a stall (see
            // obs::Watchdog).
            poolMetrics().queueDepth.set(
                static_cast<std::int64_t>(queue_.size()));
        }
        poolMetrics().taskCount.add();
        try {
            LAG_SPAN("pool.task");
            task();
        } catch (const std::exception &e) {
            warn("pool task failed: ", e.what());
        } catch (...) {
            warn("pool task failed with a non-standard exception");
        }
    }
}

void
parallelFor(ThreadPool &pool, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (count == 1 || t_pool == &pool) {
        // A hop to a sleeping worker and back costs more than a
        // one-source ingest epoch's own work (bench_perf_pipeline
        // --smoke, `ingest` epoch_cost); and a worker of this pool
        // would wait for itself (a `/v1/refresh` aggregates on the
        // HTTP worker that serves it).
        std::exception_ptr firstError;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
        if (firstError)
            std::rethrow_exception(firstError);
        return;
    }

    // This call's own join: a countdown of its tasks and the first
    // exception one of them threw, so it never waits for (or
    // rethrows from) work it did not submit.
    struct Join
    {
        Mutex mutex{LockRank::ForkJoin, "fork-join"};
        std::condition_variable_any doneCv;
        std::size_t remaining LAG_GUARDED_BY(mutex) = 0;
        std::exception_ptr firstError LAG_GUARDED_BY(mutex);
    } join;
    {
        MutexLock lock(join.mutex);
        join.remaining = count;
    }
    // Capturing by reference is safe: this frame waits below until
    // every task has counted down and released join.mutex, and a
    // task touches nothing of the frame after that.
    for (std::size_t i = 0; i < count; ++i) {
        pool.submit([&join, &fn, i] {
            std::exception_ptr error;
            try {
                fn(i);
            } catch (...) {
                error = std::current_exception();
            }
            MutexLock lock(join.mutex);
            if (error && !join.firstError)
                join.firstError = error;
            if (--join.remaining == 0)
                join.doneCv.notify_all();
        });
    }

    MutexLock lock(join.mutex);
    while (join.remaining != 0)
        join.doneCv.wait(lock);
    if (join.firstError) {
        std::exception_ptr error = join.firstError;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

} // namespace lag::engine
