#include "interval.hh"

#include "util/logging.hh"

namespace lag::core
{

const char *
intervalTypeName(IntervalType type)
{
    switch (type) {
      case IntervalType::Dispatch: return "Dispatch";
      case IntervalType::Listener: return "Listener";
      case IntervalType::Paint:    return "Paint";
      case IntervalType::Native:   return "Native";
      case IntervalType::Async:    return "Async";
      case IntervalType::Gc:       return "GC";
    }
    return "?";
}

IntervalType
fromTraceKind(trace::IntervalKind kind)
{
    switch (kind) {
      case trace::IntervalKind::Listener: return IntervalType::Listener;
      case trace::IntervalKind::Paint:    return IntervalType::Paint;
      case trace::IntervalKind::Native:   return IntervalType::Native;
      case trace::IntervalKind::Async:    return IntervalType::Async;
    }
    lag_panic("unknown trace interval kind");
}

} // namespace lag::core
