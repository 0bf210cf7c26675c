/**
 * @file
 * Annotated mutex wrapper with a runtime lock-rank checker.
 *
 * Every mutex in LagAlyzer goes through lag::Mutex instead of the
 * raw standard-library types (lag-lint rule `raw-mutex` enforces
 * this). The wrapper buys two machine-checked properties:
 *
 *  - **Static**: lag::Mutex is a clang thread-safety capability and
 *    lag::MutexLock a scoped capability, so members declared
 *    LAG_GUARDED_BY(mu) are compile-checked under
 *    `-Wthread-safety -Werror` (the LAG_STATIC_ANALYSIS build).
 *
 *  - **Dynamic**: each mutex carries a LockRank. A thread may only
 *    acquire a mutex whose rank is *strictly lower* than every rank
 *    it already holds, which makes lock-order deadlock cycles
 *    unrepresentable at runtime. An out-of-rank acquisition prints
 *    the stack that acquired the held lock *and* the acquiring
 *    stack, then aborts. The checker is on in every build (the
 *    engine schedules session-sized tasks, so the bookkeeping is
 *    noise); define LAG_NO_LOCK_RANK to compile it out.
 *
 * Condition variables: use std::condition_variable_any with a
 * lag::MutexLock (it is a BasicLockable); see engine/pool.cc for
 * the idiom. The rank bookkeeping stays correct across a wait
 * because the condition variable releases and reacquires through
 * MutexLock::unlock()/lock().
 */

#ifndef LAG_UTIL_MUTEX_HH
#define LAG_UTIL_MUTEX_HH

#include <mutex> // lag-lint: allow(raw-mutex) — the one wrapping site

#include "thread_annotations.hh"

namespace lag
{

/**
 * Global lock order, one rank per mutex role. Acquisition must be
 * strictly descending per thread: while holding a rank-r lock, only
 * locks with rank < r may be taken. Two locks of the same rank can
 * therefore never be held together.
 *
 * Keep this the single registry of ranks; a new mutex gets a new
 * named rank here, slotted into the documented order.
 */
enum class LockRank : int
{
    /** Serve-layer writers (serve::HotStore's publishes and
     * follow-mode live sessions) and HttpServer bookkeeping.
     * HotStore readers never take it: they copy the published
     * generation's pointer under ServeSnapshot. A refresh holds it
     * while engine::aggregateFromCache runs underneath (inline, on
     * the pool worker serving the request), so it sits above every
     * other rank. */
    Serve = 1100,

    /** Ad-hoc client/test state built on top of the engine. */
    Client = 1000,

    /** IngestPipeline source list and status copies
     * (engine/ingest). Held only to copy bookkeeping, never across
     * a tailer poll, the pool fan-out or a publish; below Serve
     * because publish callbacks into serve::HotStore run with no
     * ingest lock held at all. */
    Ingest = 700,

    /** One parallelFor call's completion countdown and first
     * error (engine/pool). Taken by its tasks only after their body
     * returned, so it never nests around a pool lock. */
    ForkJoin = 500,

    /** ThreadPool task queue + shutdown flag (engine/pool). */
    Pool = 110,

    /**
     * Observability bookkeeping (src/obs): metric registry,
     * span-name intern table, flight-recorder request ring. Below
     * every engine rank because instrumented code may register a
     * metric while holding the pool lock; span recording and the span
     * rings' list are lock-free and take no rank at all.
     */
    Obs = 50,

    /** serve::HotStore's published-generation pointer: held only to
     * copy or swap that one pointer, with nothing acquired inside,
     * by readers with no other lock held and by writers under Serve.
     */
    ServeSnapshot = 30,

    /** Log sink; leaf rank so any code may log while holding any
     * other lock (panic paths do). */
    Logging = 10,
};

/** Mutex with a thread-safety capability and a lock rank. */
class LAG_CAPABILITY("mutex") Mutex
{
  public:
    /** @param rank this mutex's slot in the global lock order;
     *  @param name human-readable name used in violation reports. */
    explicit Mutex(LockRank rank, const char *name)
        : rank_(rank), name_(name)
    {
    }

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() LAG_ACQUIRE();
    void unlock() LAG_RELEASE();
    bool try_lock() LAG_TRY_ACQUIRE(true);

    LockRank rank() const { return rank_; }
    const char *name() const { return name_; }

  private:
    std::mutex impl_; // lag-lint: allow(raw-mutex)
    LockRank rank_;
    const char *name_;
};

/**
 * RAII lock for lag::Mutex. Also a BasicLockable, so it can be
 * handed to std::condition_variable_any::wait().
 */
class LAG_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) LAG_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
        owned_ = true;
    }

    ~MutexLock() LAG_RELEASE()
    {
        if (owned_)
            mutex_.unlock();
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** Reacquire after unlock() (condition-variable protocol). */
    void lock() LAG_ACQUIRE()
    {
        mutex_.lock();
        owned_ = true;
    }

    /** Release early; the destructor then does nothing. */
    void unlock() LAG_RELEASE()
    {
        owned_ = false;
        mutex_.unlock();
    }

  private:
    Mutex &mutex_;
    bool owned_ = false;
};

namespace detail
{

/** Rank bookkeeping behind Mutex::lock(); aborts on violation. */
void lockRankAcquired(const Mutex &mutex);

/** Pops @p mutex from the thread's held set. */
void lockRankReleased(const Mutex &mutex);

/** Number of locks the calling thread currently holds (tests). */
int lockRankHeldDepth();

} // namespace detail

inline void
Mutex::lock()
{
#ifndef LAG_NO_LOCK_RANK
    detail::lockRankAcquired(*this);
#endif
    impl_.lock();
}

inline void
Mutex::unlock()
{
    impl_.unlock();
#ifndef LAG_NO_LOCK_RANK
    detail::lockRankReleased(*this);
#endif
}

inline bool
Mutex::try_lock()
{
    if (!impl_.try_lock())
        return false;
#ifndef LAG_NO_LOCK_RANK
    detail::lockRankAcquired(*this);
#endif
    return true;
}

} // namespace lag

#endif // LAG_UTIL_MUTEX_HH
