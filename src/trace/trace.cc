#include "trace.hh"

#include <algorithm>
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
    validateTrace(meta, threads, strings.size(), events, samples);
}

void
validateTrace(const TraceMeta &meta,
              const std::vector<TraceThread> &threads,
              std::size_t stringCount,
              const std::vector<TraceEvent> &events,
              const std::vector<TraceSample> &samples)
{
    TraceValidator::checkMeta(meta);
    TraceValidator validator(meta.startTime, threads, stringCount);
    for (const auto &event : events)
        validator.checkEvent(event);
    for (const auto &sample : samples)
        validator.checkSample(sample);
}

TraceValidator::TraceValidator(TimeNs startTime,
                               const std::vector<TraceThread> &threads,
                               std::size_t stringCount)
    : stringCount_(stringCount), lastEvent_(startTime),
      lastSample_(startTime)
{
    std::unordered_set<ThreadId> seen;
    threads_.reserve(threads.size());
    for (const auto &thread : threads) {
        if (!seen.insert(thread.id).second) {
            throw TraceError("duplicate thread id " +
                             std::to_string(thread.id));
        }
        threads_.push_back(thread.id);
    }
    std::sort(threads_.begin(), threads_.end());
}

void
TraceValidator::checkMeta(const TraceMeta &meta)
{
    if (meta.endTime < meta.startTime)
        throw TraceError("session end precedes start");
}

void
TraceValidator::fail(const char *what)
{
    throw TraceError(what);
}

void
TraceValidator::failThread(const char *record, ThreadId thread)
{
    throw TraceError(std::string(record) + " references unknown thread " +
                     std::to_string(thread));
}

void
TraceValidator::failSymbol(SymbolId id)
{
    throw TraceError("symbol id " + std::to_string(id) + " out of range");
}

} // namespace lag::trace
