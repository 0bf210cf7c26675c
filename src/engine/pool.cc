#include "pool.hh"

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

/** Which pool (if any) the current thread works for. */
struct WorkerContext
{
    ThreadPool *pool = nullptr;
    std::size_t index = 0;
};

thread_local WorkerContext t_worker;

/** Pool instruments; looked up once, then pure atomics. */
struct PoolMetrics
{
    obs::Counter &taskCount =
        obs::metrics().counter("pool.task.count");
    obs::Counter &stealSuccess =
        obs::metrics().counter("pool.steal.success");
    obs::Counter &stealFail =
        obs::metrics().counter("pool.steal.fail");
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
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    try {
        waitIdle();
    } catch (const std::exception &e) {
        warn("thread pool destroyed with a failed task: ", e.what());
    }
    {
        MutexLock lock(injectorMutex_);
        stop_ = true;
        ++version_;
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
        MutexLock lock(idleMutex_);
        ++pending_;
    }
    std::size_t depth = 0;
    if (t_worker.pool == this) {
        Worker &self = *workers_[t_worker.index];
        {
            MutexLock lock(self.mutex);
            self.deque.push_back(std::move(task));
            depth = self.deque.size();
        }
        MutexLock lock(injectorMutex_);
        ++version_;
    } else {
        MutexLock lock(injectorMutex_);
        injector_.push_back(std::move(task));
        depth = injector_.size();
        ++version_;
    }
    // Depth of the queue just pushed: a cheap proxy for backlog,
    // tracked for its high-water mark (pool.queue.depth max).
    poolMetrics().queueDepth.set(static_cast<std::int64_t>(depth));
    wakeCv_.notify_one();
}

void
ThreadPool::waitIdle()
{
    lag_assert(t_worker.pool != this,
               "waitIdle called from a worker of the same pool");
    MutexLock lock(idleMutex_);
    while (pending_ != 0)
        idleCv_.wait(lock);
    if (firstError_) {
        std::exception_ptr error = std::exchange(firstError_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

bool
ThreadPool::popOwn(std::size_t index, Task &task)
{
    Worker &self = *workers_[index];
    MutexLock lock(self.mutex);
    if (self.deque.empty())
        return false;
    task = std::move(self.deque.back());
    self.deque.pop_back();
    // Keep the backlog gauge falling as queues drain, so a stale
    // positive depth can't read as a stall (see obs::Watchdog).
    poolMetrics().queueDepth.set(
        static_cast<std::int64_t>(self.deque.size()));
    return true;
}

bool
ThreadPool::popInjected(Task &task)
{
    MutexLock lock(injectorMutex_);
    if (injector_.empty())
        return false;
    task = std::move(injector_.front());
    injector_.pop_front();
    poolMetrics().queueDepth.set(
        static_cast<std::int64_t>(injector_.size()));
    return true;
}

bool
ThreadPool::steal(std::size_t thief, Task &task)
{
    const std::size_t n = workers_.size();
    for (std::size_t hop = 1; hop < n; ++hop) {
        Worker &victim = *workers_[(thief + hop) % n];
        MutexLock lock(victim.mutex);
        if (!victim.deque.empty()) {
            task = std::move(victim.deque.front());
            victim.deque.pop_front();
            poolMetrics().queueDepth.set(
                static_cast<std::int64_t>(victim.deque.size()));
            poolMetrics().stealSuccess.add();
            return true;
        }
    }
    // Count only full scans that came up empty, and only on pools
    // where stealing is possible at all.
    if (n > 1)
        poolMetrics().stealFail.add();
    return false;
}

void
ThreadPool::workerLoop(std::size_t index)
{
    t_worker = WorkerContext{this, index};
    // Name the thread before its first span or log line so both
    // carry "pool-worker-N" instead of a bare id.
    setThreadName("pool-worker-" + std::to_string(index));
    for (;;) {
        std::uint64_t seen;
        {
            MutexLock lock(injectorMutex_);
            if (stop_)
                return;
            seen = version_;
        }
        Task task;
        if (popOwn(index, task) || popInjected(task) ||
            steal(index, task)) {
            runTask(task);
            continue;
        }
        // Sleep only if no submit happened since the scan above;
        // every submit bumps version_ under injectorMutex_.
        LAG_SPAN("pool.idle");
        MutexLock lock(injectorMutex_);
        while (!stop_ && version_ == seen)
            wakeCv_.wait(lock);
        if (stop_)
            return;
    }
}

void
ThreadPool::runTask(Task &task)
{
    poolMetrics().taskCount.add();
    try {
        LAG_SPAN("pool.task");
        task();
    } catch (...) {
        MutexLock lock(idleMutex_);
        if (!firstError_)
            firstError_ = std::current_exception();
    }
    // Destroy captures before accounting so waitIdle() returning
    // implies all task state is gone.
    task = nullptr;
    MutexLock lock(idleMutex_);
    lag_assert(pending_ > 0, "pool task accounting underflow");
    if (--pending_ == 0)
        idleCv_.notify_all();
}

void
parallelFor(ThreadPool &pool, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    lag_assert(t_worker.pool != &pool,
               "parallelFor called from a worker of the same pool");
    if (count == 0)
        return;
    if (count == 1) {
        // A hop to a sleeping worker and back costs more than a
        // one-source ingest epoch's own work (bench_perf_pipeline
        // --smoke, `ingest` epoch_cost).
        fn(0);
        return;
    }

    // This call's own join: a countdown of its tasks and the first
    // exception one of them threw. The pool-wide pending count and
    // error slot also cover unrelated tasks, so waitIdle() would
    // wait for (and rethrow from) work this call never submitted.
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
