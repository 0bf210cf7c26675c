/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A minimal, deterministic event queue: events fire in (time,
 * priority, insertion-order) order, so two runs with identical inputs
 * produce identical schedules. The simulated JVM, the user-session
 * scripts and the stack sampler are all built on this kernel.
 */

#ifndef LAG_SIM_EVENT_QUEUE_HH
#define LAG_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace lag::sim
{

/** Callback invoked when a scheduled event fires. */
using EventFn = std::function<void()>;

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/**
 * Priority of simultaneous events; lower values fire first. The JVM
 * uses this to order, e.g., a GC safepoint release before the next
 * scheduler tick at the same instant.
 */
enum class EventPriority : std::uint8_t
{
    High = 0,
    Normal = 1,
    Low = 2,
};

/**
 * Deterministic time-ordered event queue with cancellation.
 *
 * Cancellation is lazy: cancelled entries stay in the heap and are
 * skipped when popped, which keeps schedule() and cancel() O(log n)
 * without a secondary index into the heap.
 */
class EventQueue
{
  public:
    /** Current simulated time; advances as events are serviced. */
    TimeNs now() const { return now_; }

    /**
     * Schedule @p fn at absolute time @p when (>= now).
     * @return a handle usable with cancel().
     */
    EventId schedule(TimeNs when, EventFn fn,
                     EventPriority prio = EventPriority::Normal);

    /** Schedule @p fn at now() + @p delay. */
    EventId scheduleAfter(DurationNs delay, EventFn fn,
                          EventPriority prio = EventPriority::Normal);

    /**
     * Cancel a pending event. Cancelling an already-fired or unknown
     * id is a no-op and returns false.
     */
    bool cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (not cancelled, not fired) events. */
    std::size_t pending() const { return live_; }

    /**
     * Service events until the queue is empty or simulated time would
     * exceed @p until. Events scheduled exactly at @p until do fire.
     * Afterwards now() == min(until, time of last event serviced
     * beyond which nothing is pending); runUntil never moves time
     * backwards.
     * @return number of events serviced.
     */
    std::uint64_t runUntil(TimeNs until);

    /** Service a single event if one is pending. @return fired? */
    bool step();

    /** Total events serviced over the queue's lifetime. */
    std::uint64_t servicedCount() const { return serviced_; }

  private:
    struct Entry
    {
        TimeNs when;
        EventPriority prio;
        std::uint64_t seq;
        EventId id;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    /** Pop the next live entry; false when none remain. */
    bool popNext(Entry &out);

    TimeNs now_ = 0;
    std::uint64_t next_seq_ = 0;
    EventId next_id_ = 1;
    std::size_t live_ = 0;
    std::uint64_t serviced_ = 0;
    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    // Callbacks and liveness are kept out of the heap entries so that
    // cancel() does not need to touch the heap; an entry whose id is
    // no longer in this map is dead and skipped on pop.
    std::unordered_map<EventId, EventFn> pending_fns_;
};

} // namespace lag::sim

#endif // LAG_SIM_EVENT_QUEUE_HH
