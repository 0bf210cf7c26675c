#include "trace.hh"

#include <algorithm>
#include <unordered_set>

namespace lag::trace
{

StringTable::StringTable()
{
    strings_.emplace_back();
}

SymbolId
StringTable::intern(std::string_view s)
{
    if (index_.empty()) {
        // First intern: index every string, keeping the first id of
        // a string a deserialized list holds twice.
        index_.reserve(strings_.size());
        for (SymbolId id = 0; id < strings_.size(); ++id)
            index_.emplace(strings_[id], id);
    }
    const auto it = index_.find(s);
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
    TraceValidator::checkMeta(meta);
    TraceValidator validator(meta.startTime, threads, strings.size());
    for (const auto &event : events)
        validator.checkEvent(event);
    for (std::size_t s = 0; s < samples.size(); ++s)
        validator.checkSample(samples, s);
}

void
SampleColumns::reserve(std::size_t samples, std::size_t entries,
                       std::size_t frames)
{
    times_.reserve(times_.size() + samples);
    firstEntry_.reserve(firstEntry_.size() + samples);
    threads_.reserve(threads_.size() + entries);
    states_.reserve(states_.size() + entries);
    firstFrame_.reserve(firstFrame_.size() + entries);
    frames_.reserve(frames_.size() + frames);
}

void
SampleColumns::append(const SampleColumns &other, std::size_t begin,
                      std::size_t end)
{
    if (begin == end)
        return;
    const std::size_t e0 = other.entryBegin(begin);
    const std::size_t e1 = other.entryEnd(end - 1);
    const std::size_t f0 = other.frameOffset(e0);
    const std::size_t f1 = other.frameOffset(e1);
    // The copied offsets move from other's columns to the ends of ours.
    const std::size_t entryShift = threads_.size() - e0;
    const std::size_t frameShift = frames_.size() - f0;
    const auto at = [](const auto &v, std::size_t i) {
        return v.begin() + static_cast<std::ptrdiff_t>(i);
    };
    times_.insert(times_.end(), at(other.times_, begin),
                  at(other.times_, end));
    for (std::size_t s = begin; s < end; ++s)
        firstEntry_.push_back(other.firstEntry_[s] + entryShift);
    threads_.insert(threads_.end(), at(other.threads_, e0),
                    at(other.threads_, e1));
    states_.insert(states_.end(), at(other.states_, e0),
                   at(other.states_, e1));
    for (std::size_t e = e0; e < e1; ++e)
        firstFrame_.push_back(other.firstFrame_[e] + frameShift);
    frames_.insert(frames_.end(), at(other.frames_, f0),
                   at(other.frames_, f1));
}

void
SampleColumns::truncate(std::size_t n)
{
    if (n >= size())
        return;
    const std::size_t entries = firstEntry_[n];
    const std::size_t frames = frameOffset(entries);
    times_.resize(n);
    firstEntry_.resize(n);
    threads_.resize(entries);
    states_.resize(entries);
    firstFrame_.resize(entries);
    frames_.resize(frames);
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
