/**
 * @file
 * Interval types: LagAlyzer's central vocabulary.
 *
 * The paper's Table I defines six interval types; LagAlyzer
 * represents the activity of each thread as a tree of properly
 * nested intervals of these types (paper §II.A). GC intervals are
 * special: because a collection stops the world, a copy of each GC
 * interval is added to every thread's tree. The trees themselves are
 * stored flat, in preorder arrays (flat_tree.hh), built straight
 * from the trace by Session::fromTrace.
 */

#ifndef LAG_CORE_INTERVAL_HH
#define LAG_CORE_INTERVAL_HH

#include <cstddef>
#include <cstdint>

#include "trace/trace.hh"

namespace lag::core
{

/**
 * Hard bound on interval nesting depth, counted over a thread's
 * non-GC intervals.  Every walk over the flat layout is iterative,
 * so the bound no longer guards the C stack; it is an input
 * contract.  It keeps the set of traces Session::fromTrace accepts
 * unchanged, and it caps what a hostile trace can make the builder
 * and the walks hold per thread: the open-interval stack and the
 * depth-tracking scratch of flatDepth and the signature walk.
 * Deeper traces are rejected with a TraceError before any other
 * nesting error is reported.
 */
inline constexpr std::size_t kMaxIntervalDepth = 1000;

/** The six interval types of Table I. */
enum class IntervalType : std::uint8_t
{
    Dispatch = 0, ///< start to end of a given episode
    Listener = 1, ///< a listener notification call
    Paint = 2,    ///< a graphics rendering operation
    Native = 3,   ///< a JNI native call
    Async = 4,    ///< handling of an event posted in a background thread
    Gc = 5,       ///< a garbage collection
};

/** Human-readable name of an interval type (as in Table I). */
const char *intervalTypeName(IntervalType type);

/** Map a trace interval kind to the core interval type. */
IntervalType fromTraceKind(trace::IntervalKind kind);

} // namespace lag::core

#endif // LAG_CORE_INTERVAL_HH
