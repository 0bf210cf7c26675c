#include "trace.hh"

#include <unordered_set>

namespace lag::trace
{

StringTable::StringTable()
{
    strings_.emplace_back();
    index_.emplace("", 0);
}

SymbolId
StringTable::intern(std::string_view s)
{
    const auto it = index_.find(std::string(s));
    if (it != index_.end())
        return it->second;
    const auto id = static_cast<SymbolId>(strings_.size());
    strings_.emplace_back(s);
    index_.emplace(strings_.back(), id);
    return id;
}

const std::string &
StringTable::lookup(SymbolId id) const
{
    if (id >= strings_.size()) {
        throw TraceError("symbol id " + std::to_string(id) +
                         " out of range (table size " +
                         std::to_string(strings_.size()) + ")");
    }
    return strings_[id];
}

StringTable
StringTable::fromList(std::vector<std::string> strings)
{
    if (strings.empty() || !strings.front().empty())
        throw TraceError("string table must start with the empty string");
    StringTable table;
    table.strings_ = std::move(strings);
    table.index_.clear();
    for (SymbolId id = 0; id < table.strings_.size(); ++id)
        table.index_.emplace(table.strings_[id], id);
    return table;
}

const char *
intervalKindName(IntervalKind kind)
{
    switch (kind) {
      case IntervalKind::Listener: return "listener";
      case IntervalKind::Paint:    return "paint";
      case IntervalKind::Native:   return "native";
      case IntervalKind::Async:    return "async";
    }
    return "?";
}

const char *
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::DispatchBegin: return "dispatch-begin";
      case EventType::DispatchEnd:   return "dispatch-end";
      case EventType::IntervalBegin: return "interval-begin";
      case EventType::IntervalEnd:   return "interval-end";
      case EventType::GcBegin:       return "gc-begin";
      case EventType::GcEnd:         return "gc-end";
    }
    return "?";
}

const char *
traceThreadStateName(TraceThreadState state)
{
    switch (state) {
      case TraceThreadState::Runnable: return "runnable";
      case TraceThreadState::Blocked:  return "blocked";
      case TraceThreadState::Waiting:  return "waiting";
      case TraceThreadState::Sleeping: return "sleeping";
    }
    return "?";
}

void
Trace::validate() const
{
    if (meta.endTime < meta.startTime)
        throw TraceError("session end precedes start");

    std::unordered_set<ThreadId> known;
    for (const auto &thread : threads) {
        if (!known.insert(thread.id).second) {
            throw TraceError("duplicate thread id " +
                             std::to_string(thread.id));
        }
    }

    const auto check_symbol = [this](SymbolId id) {
        if (id >= strings.size())
            throw TraceError("symbol id " + std::to_string(id) +
                             " out of range");
    };

    TimeNs last = meta.startTime;
    // Consecutive events mostly share a thread; look each run's
    // thread up once.
    const ThreadId *checked = nullptr;
    for (const auto &event : events) {
        if (event.time < last)
            throw TraceError("event stream not time-ordered");
        last = event.time;
        const bool is_gc = event.type == EventType::GcBegin ||
                           event.type == EventType::GcEnd;
        if (!is_gc && (checked == nullptr || *checked != event.thread)) {
            const auto it = known.find(event.thread);
            if (it == known.end()) {
                throw TraceError("event references unknown thread " +
                                 std::to_string(event.thread));
            }
            checked = &*it;
        }
        if (event.type == EventType::IntervalBegin) {
            check_symbol(event.classSym);
            check_symbol(event.methodSym);
        }
    }

    last = meta.startTime;
    for (const auto &sample : samples) {
        if (sample.time < last)
            throw TraceError("sample stream not time-ordered");
        last = sample.time;
        for (const auto &entry : sample.threads) {
            if (known.find(entry.thread) == known.end()) {
                throw TraceError("sample references unknown thread " +
                                 std::to_string(entry.thread));
            }
            if (static_cast<std::uint8_t>(entry.state) > 3)
                throw TraceError("sample state out of range");
            for (const auto &frame : entry.frames) {
                check_symbol(frame.classSym);
                check_symbol(frame.methodSym);
            }
        }
    }
}

} // namespace lag::trace
