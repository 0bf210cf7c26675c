/**
 * @file
 * Work-stealing thread pool: the engine's execution substrate.
 *
 * Each worker owns a deque of tasks. A worker pushes and pops its
 * own work from the back (LIFO, cache-warm); an idle worker first
 * drains the global injector queue (external submissions), then
 * steals from the front of a victim's deque (FIFO — the oldest,
 * largest-granularity work migrates, the classic work-stealing
 * discipline). Tasks may submit further tasks.
 *
 * Every queue is guarded by an annotated lag::Mutex, so the lock
 * discipline is machine-checked twice: clang `-Wthread-safety`
 * verifies at compile time that every guarded member is touched
 * under its mutex, and the runtime lock-rank checker verifies that
 * the three pool ranks (idle > worker > injector) are only ever
 * acquired in descending order. The pool schedules session-sized
 * tasks (milliseconds to seconds of simulation, decoding or
 * analysis), so lock-free deques would buy nothing measurable while
 * costing auditability; the design optimizes for provable
 * cleanliness first.
 *
 * Exceptions thrown by tasks are captured; the first one is
 * rethrown from waitIdle(). The destructor drains outstanding work,
 * then signals shutdown and joins every worker.
 *
 * parallelFor() is the engine's one fork-join primitive: every
 * fan-out (study simulate/encode, cache aggregation, session loads,
 * ingest epochs) is a flat loop over independent items. It joins
 * only its own tasks, so it neither waits for nor rethrows from
 * unrelated work sharing the pool (lagd runs HTTP connections and
 * ingest epochs on one pool).
 */

#ifndef LAG_ENGINE_POOL_HH
#define LAG_ENGINE_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace lag::engine
{

/** One unit of work. */
using Task = std::function<void()>;

/** Fixed-size work-stealing pool. */
class ThreadPool
{
  public:
    /** @param workers worker-thread count; 0 = one per hardware
     *        thread (defaultConcurrency()). */
    explicit ThreadPool(std::size_t workers = 0);

    /** Drains outstanding tasks, then shuts the workers down. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p task. From a worker thread of this pool the task
     * lands on that worker's own deque; from any other thread it
     * goes through the global injector queue.
     */
    void submit(Task task);

    /**
     * Block until every submitted task (including tasks submitted
     * by tasks) has finished, then rethrow the first captured task
     * exception, if any. Must not be called from a worker of this
     * pool (it would wait for itself).
     */
    void waitIdle();

    /** Number of worker threads. */
    std::size_t workerCount() const { return workers_.size(); }

    /** One worker per hardware thread (at least 1). */
    static std::size_t defaultConcurrency();

  private:
    /** One worker's state; heap-allocated for address stability. */
    struct Worker
    {
        /** All deques share LockRank::PoolWorker, so the rank
         * checker proves no thread ever holds two of them (the
         * steal loop locks victims strictly one at a time). */
        Mutex mutex{LockRank::PoolWorker, "pool-worker-deque"};
        std::deque<Task> deque LAG_GUARDED_BY(mutex);
    };

    bool popOwn(std::size_t index, Task &task);
    bool popInjected(Task &task);
    bool steal(std::size_t thief, Task &task);
    void workerLoop(std::size_t index);
    void runTask(Task &task);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    Mutex injectorMutex_{LockRank::PoolInjector, "pool-injector"};
    std::deque<Task> injector_ LAG_GUARDED_BY(injectorMutex_);
    std::condition_variable_any wakeCv_;
    bool stop_ LAG_GUARDED_BY(injectorMutex_) = false;

    /** Bumped on every submit so a worker deciding to sleep can
     * detect work pushed after its (empty) scan of the queues —
     * the standard fix for the lost-wakeup race. */
    std::uint64_t version_ LAG_GUARDED_BY(injectorMutex_) = 0;

    Mutex idleMutex_{LockRank::PoolIdle, "pool-idle"};
    std::condition_variable_any idleCv_;
    std::size_t pending_ LAG_GUARDED_BY(idleMutex_) = 0;
    std::exception_ptr firstError_ LAG_GUARDED_BY(idleMutex_);
};

/**
 * Run @p fn for every index in [0, count) on @p pool: one task per
 * index, submitted in index order (a single index runs inline on the
 * calling thread). Blocks until those tasks have
 * finished, then rethrows the first exception one of them threw; a
 * throwing index does not stop the others. Other tasks on the pool
 * are neither waited for nor have their exceptions taken. Must not
 * be called from a worker of @p pool (it would wait for itself).
 * The caller keeps results deterministic by writing to
 * index-addressed slots only.
 */
void parallelFor(ThreadPool &pool, std::size_t count,
                 const std::function<void(std::size_t)> &fn);

} // namespace lag::engine

#endif // LAG_ENGINE_POOL_HH
