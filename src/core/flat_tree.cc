#include "flat_tree.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"

namespace lag::core
{

namespace
{

/** @name Signature byte sinks.
 * One emission routine, two sinks: the hasher folds the exact byte
 * stream of the signature (so the hash equals fnv1a(signature)
 * with no intermediate string), and the string
 * sink materializes that stream for first-seen patterns.
 * @{ */

struct HashSink
{
    Fnv1aHasher hasher;

    void put(char c) { hasher.addBytes(&c, 1); }

    void
    put(std::string_view s)
    {
        hasher.addBytes(s.data(), s.size());
    }
};

struct StringSink
{
    std::string &out;

    void put(char c) { out += c; }

    void
    put(std::string_view s)
    {
        out.append(s.data(), s.size());
    }
};

/** @} */

/** Emit one node's own bytes: type char plus [class.method]. */
template <typename Sink>
void
emitNodePayload(const FlatTree &tree, std::uint32_t i,
                const trace::StringTable &strings, Sink &sink)
{
    switch (tree.typeOf(i)) {
      case IntervalType::Dispatch: sink.put('D'); break;
      case IntervalType::Listener: sink.put('L'); break;
      case IntervalType::Paint:    sink.put('P'); break;
      case IntervalType::Native:   sink.put('N'); break;
      case IntervalType::Async:    sink.put('A'); break;
      case IntervalType::Gc:
        lag_panic("GC nodes are excluded before signature emission");
    }
    if (tree.classSym[i] != 0 || tree.methodSym[i] != 0) {
        sink.put('[');
        sink.put(strings.lookup(tree.classSym[i]));
        sink.put('.');
        sink.put(strings.lookup(tree.methodSym[i]));
        sink.put(']');
    }
}

/**
 * Emit the full signature of the subtree at @p root into @p sink
 * (grammar in pattern.hh), walked with an explicit frame stack
 * instead of recursion.
 */
template <typename Sink>
void
emitSignature(const FlatTree &tree, std::uint32_t root,
              const trace::StringTable &strings, Sink &sink,
              FlatSigStack &stack)
{
    emitNodePayload(tree, root, strings, sink);
    stack.clear();
    stack.reserve(16);
    stack.push_back({root + 1, tree.subtreeEnd[root], false});
    while (!stack.empty()) {
        FlatSigFrame &frame = stack.back();
        std::uint32_t j = frame.cursor;
        const std::uint32_t limit = frame.end;
        while (j < limit && tree.typeOf(j) == IntervalType::Gc)
            j = tree.subtreeEnd[j];
        if (j >= limit) {
            if (frame.opened)
                sink.put(')');
            stack.pop_back();
            continue;
        }
        if (!frame.opened) {
            sink.put('(');
            frame.opened = true;
        }
        frame.cursor = tree.subtreeEnd[j];
        emitNodePayload(tree, j, strings, sink);
        // Invalidates `frame`; its cursor is already advanced.
        stack.push_back({j + 1, tree.subtreeEnd[j], false});
    }
}

/** Projected (non-GC) subtree size. */
std::uint32_t
nonGcSubtreeSize(const FlatTree &tree, std::uint32_t i)
{
    return tree.subtreeSize(i) -
           (tree.gcCountBefore[tree.subtreeEnd[i]] -
            tree.gcCountBefore[i]);
}

} // namespace

std::size_t
flatDepth(const FlatTree &tree, std::uint32_t i)
{
    // Ancestor ends-stack scan: pop ancestors whose subtree closed,
    // push self; the stack height is the depth at each node.  The
    // stack is thread-local so the per-episode hot path never
    // allocates (it only grows to the deepest tree each thread sees).
    static thread_local std::vector<std::uint32_t> ends;
    ends.clear();
    std::size_t deepest = 0;
    const std::uint32_t limit = tree.subtreeEnd[i];
    for (std::uint32_t j = i; j < limit; ++j) {
        while (!ends.empty() && ends.back() <= j)
            ends.pop_back();
        // Capacity persists across calls (thread-local scratch).
        ends.push_back(tree.subtreeEnd[j]); // lag-lint: allow(reserve-loop)
        deepest = std::max(deepest, ends.size());
    }
    return deepest;
}

DurationNs
flatTypeTime(const FlatTree &tree, std::uint32_t i,
             IntervalType wanted)
{
    if (wanted == IntervalType::Gc)
        return tree.gcTimeIn(i);
    DurationNs total = 0;
    std::uint32_t j = i + 1;
    const std::uint32_t limit = tree.subtreeEnd[i];
    while (j < limit) {
        if (tree.typeOf(j) == wanted) {
            // Matching subtrees are not descended (same-type
            // nesting is never double counted).
            total += tree.duration(j);
            j = tree.subtreeEnd[j];
        } else {
            ++j;
        }
    }
    return total;
}

std::size_t
flatNonGcDescendants(const FlatTree &tree, std::uint32_t i)
{
    return tree.subtreeSize(i) - 1 - tree.gcCountIn(i);
}

std::size_t
flatNonGcDepth(const FlatTree &tree, std::uint32_t i)
{
    // Reused across calls for the same reason as in flatDepth.
    static thread_local std::vector<std::uint32_t> ends;
    ends.clear();
    std::size_t deepest = 0;
    std::uint32_t j = i;
    const std::uint32_t limit = tree.subtreeEnd[i];
    while (j < limit) {
        if (j != i && tree.typeOf(j) == IntervalType::Gc) {
            j = tree.subtreeEnd[j];
            continue;
        }
        while (!ends.empty() && ends.back() <= j)
            ends.pop_back();
        // Capacity persists across calls (thread-local scratch).
        ends.push_back(tree.subtreeEnd[j]); // lag-lint: allow(reserve-loop)
        deepest = std::max(deepest, ends.size());
        ++j;
    }
    return deepest;
}

std::uint64_t
flatSignatureHash(const FlatTree &tree, std::uint32_t i,
                  const trace::StringTable &strings,
                  FlatSigStack &scratch)
{
    HashSink sink;
    emitSignature(tree, i, strings, sink, scratch);
    return sink.hasher.digest();
}

void
flatSignatureString(const FlatTree &tree, std::uint32_t i,
                    const trace::StringTable &strings,
                    std::string &out, FlatSigStack &scratch)
{
    StringSink sink{out};
    emitSignature(tree, i, strings, sink, scratch);
}

std::uint64_t
flatSignatureHash(const FlatTree &tree, std::uint32_t i,
                  const trace::StringTable &strings)
{
    FlatSigStack scratch;
    return flatSignatureHash(tree, i, strings, scratch);
}

std::string
flatSignatureString(const FlatTree &tree, std::uint32_t i,
                    const trace::StringTable &strings)
{
    std::string out;
    FlatSigStack scratch;
    flatSignatureString(tree, i, strings, out, scratch);
    return out;
}

bool
flatStructureEquals(const FlatTree &a, std::uint32_t ia,
                    const FlatTree &b, std::uint32_t ib)
{
    // O(1) memory: a preorder payload sequence plus per-node
    // projected subtree sizes determines the non-GC tree uniquely.
    std::uint32_t ja = ia;
    std::uint32_t jb = ib;
    const std::uint32_t ea = a.subtreeEnd[ia];
    const std::uint32_t eb = b.subtreeEnd[ib];
    while (true) {
        while (ja < ea && a.typeOf(ja) == IntervalType::Gc)
            ja = a.subtreeEnd[ja];
        while (jb < eb && b.typeOf(jb) == IntervalType::Gc)
            jb = b.subtreeEnd[jb];
        const bool doneA = ja >= ea;
        const bool doneB = jb >= eb;
        if (doneA || doneB)
            return doneA == doneB;
        if (a.type[ja] != b.type[jb] ||
            a.classSym[ja] != b.classSym[jb] ||
            a.methodSym[ja] != b.methodSym[jb])
            return false;
        if (nonGcSubtreeSize(a, ja) != nonGcSubtreeSize(b, jb))
            return false;
        ++ja;
        ++jb;
    }
}

} // namespace lag::core
