/**
 * @file
 * Thread pool: the engine's execution substrate.
 *
 * One FIFO queue feeds every worker. Every fan-out in the engine
 * (study simulate/encode, cache aggregation, ingest epochs) submits
 * from a thread outside the pool, and lagd's accept thread is not a
 * worker either, so per-worker queues would only ever stay empty.
 * The queue and the shutdown flag share one annotated lag::Mutex
 * (LockRank::Pool): clang `-Wthread-safety` checks every access at
 * compile time, and the runtime lock-rank checker sees one pool rank
 * below every caller's.
 *
 * A task that throws is caught and warned about by the worker that
 * ran it; the pool keeps running. The destructor drains the queue,
 * tasks submitted by running tasks included, then joins every
 * worker.
 *
 * parallelFor() is the engine's one fork-join primitive and its only
 * join: every fan-out is a flat loop over independent items. It
 * joins only its own tasks, so it neither waits for nor rethrows
 * from unrelated work sharing the pool (lagd runs HTTP connections
 * and ingest epochs on one pool).
 */

#ifndef LAG_ENGINE_POOL_HH
#define LAG_ENGINE_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace lag::engine
{

/** One unit of work. */
using Task = std::function<void()>;

/** Fixed-size pool of workers over one FIFO queue. */
class ThreadPool
{
  public:
    /** @param workers worker-thread count; 0 = one per hardware
     *        thread (defaultConcurrency()). */
    explicit ThreadPool(std::size_t workers = 0);

    /** Drains the queue, including tasks that running tasks submit,
     * then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Append @p task to the queue; the next free worker runs it. */
    void submit(Task task);

    /** One worker per hardware thread (at least 1). */
    static std::size_t defaultConcurrency();

  private:
    void workerLoop(std::size_t index);

    Mutex mutex_{LockRank::Pool, "pool-queue"};
    std::deque<Task> queue_ LAG_GUARDED_BY(mutex_);
    std::condition_variable_any wakeCv_;
    bool stop_ LAG_GUARDED_BY(mutex_) = false;

    std::vector<std::thread> threads_;
};

/**
 * Run @p fn for every index in [0, count) on @p pool: one task per
 * index, submitted in index order. Blocks until those tasks have
 * finished, then rethrows the first exception one of them threw; a
 * throwing index does not stop the others. Other tasks on the pool
 * are neither waited for nor have their exceptions taken. A single
 * index, or a call from a worker of @p pool (which would wait for
 * itself), runs every index inline on the calling thread, in index
 * order. The caller keeps results deterministic by writing to
 * index-addressed slots only.
 */
void parallelFor(ThreadPool &pool, std::size_t count,
                 const std::function<void(std::size_t)> &fn);

} // namespace lag::engine

#endif // LAG_ENGINE_POOL_HH
