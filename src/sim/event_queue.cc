#include "event_queue.hh"

#include "util/logging.hh"

namespace lag::sim
{

EventId
EventQueue::schedule(TimeNs when, EventFn fn, EventPriority prio)
{
    lag_assert(when >= now_, "event scheduled in the past: when=", when,
               " now=", now_);
    lag_assert(fn != nullptr, "event callback must not be null");
    const EventId id = next_id_++;
    heap_.push(Entry{when, prio, next_seq_++, id});
    pending_fns_.emplace(id, std::move(fn));
    ++live_;
    return id;
}

EventId
EventQueue::scheduleAfter(DurationNs delay, EventFn fn, EventPriority prio)
{
    lag_assert(delay >= 0, "negative event delay: ", delay);
    return schedule(now_ + delay, std::move(fn), prio);
}

bool
EventQueue::cancel(EventId id)
{
    const auto it = pending_fns_.find(id);
    if (it == pending_fns_.end())
        return false;
    pending_fns_.erase(it);
    --live_;
    return true;
}

bool
EventQueue::popNext(Entry &out)
{
    while (!heap_.empty()) {
        Entry top = heap_.top();
        if (pending_fns_.find(top.id) == pending_fns_.end()) {
            heap_.pop(); // cancelled; discard lazily
            continue;
        }
        out = top;
        return true;
    }
    return false;
}

std::uint64_t
EventQueue::runUntil(TimeNs until)
{
    std::uint64_t fired = 0;
    Entry next;
    while (popNext(next)) {
        if (next.when > until)
            break;
        heap_.pop();
        auto it = pending_fns_.find(next.id);
        EventFn fn = std::move(it->second);
        pending_fns_.erase(it);
        --live_;
        now_ = next.when;
        ++serviced_;
        ++fired;
        fn();
    }
    if (now_ < until)
        now_ = until;
    return fired;
}

bool
EventQueue::step()
{
    Entry next;
    if (!popNext(next))
        return false;
    heap_.pop();
    auto it = pending_fns_.find(next.id);
    EventFn fn = std::move(it->second);
    pending_fns_.erase(it);
    --live_;
    now_ = next.when;
    ++serviced_;
    fn();
    return true;
}

} // namespace lag::sim
