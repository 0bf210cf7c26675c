/**
 * @file
 * The in-memory interval trees: structure-of-arrays, DFS preorder.
 *
 * A Session stores each thread's interval forest (paper §II.A) as
 * parallel arrays in DFS preorder:
 *
 *     begin[] end[] type[] classSym[] methodSym[] gcKind[]
 *     subtreeEnd[]   — one past the last descendant of node i
 *
 * SessionBuilder (session.hh) emits them in one stack pass over the
 * time-ordered trace events: a begin event appends a node, its end
 * event sets the node's subtreeEnd, and each collection's copy is
 * attached while the pass runs.  Preorder plus `subtreeEnd` turns
 * any subtree into the contiguous index slice [i, subtreeEnd[i]):
 * descendant counts become index arithmetic, preorder searches
 * become linear scans over a byte array (SIMD-friendly; see
 * flat_simd.hh), and type-time walks become branchy-but-local loops
 * instead of recursion.  GC nodes are always leaves, so per-node GC
 * count/time prefix sums make "GC time under this subtree" an O(1)
 * subtraction.  Every walk is iterative — an explicit stack, never
 * the C stack — so nesting depth cannot overflow anything here.
 */

#ifndef LAG_CORE_FLAT_TREE_HH
#define LAG_CORE_FLAT_TREE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "interval.hh"
#include "util/types.hh"

namespace lag::core
{

/** One thread's interval forest in structure-of-arrays preorder. */
struct FlatTree
{
    ThreadId id = 0;
    std::string name;
    bool isGui = false;

    /** @name Parallel per-node arrays (DFS preorder). @{ */
    std::vector<TimeNs> begin;
    std::vector<TimeNs> end;
    std::vector<std::uint32_t> subtreeEnd; ///< one past last descendant
    std::vector<SymbolId> classSym;        ///< 0 for Dispatch/GC
    std::vector<SymbolId> methodSym;       ///< 0 for Dispatch/GC
    std::vector<std::uint8_t> type;        ///< IntervalType
    std::vector<std::uint8_t> gcKind;      ///< trace::TraceGcKind
    /** @} */

    /** Flat index of each root, in root (= time) order. */
    std::vector<std::uint32_t> roots;

    /** Prefix sums over nodes [0, i): number of GC nodes and total
     * GC duration.  Size node count + 1. */
    std::vector<std::uint32_t> gcCountBefore;
    std::vector<DurationNs> gcTimeBefore;

    std::size_t size() const { return begin.size(); }

    DurationNs
    duration(std::uint32_t i) const
    {
        return end[i] - begin[i];
    }

    IntervalType
    typeOf(std::uint32_t i) const
    {
        return static_cast<IntervalType>(type[i]);
    }

    /** Nodes in the subtree rooted at @p i, including @p i. */
    std::uint32_t
    subtreeSize(std::uint32_t i) const
    {
        return subtreeEnd[i] - i;
    }

    /** GC nodes inside [i, subtreeEnd[i]) excluding @p i itself. */
    std::uint32_t
    gcCountIn(std::uint32_t i) const
    {
        return gcCountBefore[subtreeEnd[i]] - gcCountBefore[i + 1];
    }

    /** Total duration of GC nodes below @p i. */
    DurationNs
    gcTimeIn(std::uint32_t i) const
    {
        return gcTimeBefore[subtreeEnd[i]] - gcTimeBefore[i + 1];
    }
};

/**
 * All per-thread flat trees of one session plus the episode-to-node
 * index.  Built only by SessionBuilder (session.hh).
 */
class FlatSession
{
  public:
    /** One tree per trace thread, in roster order. */
    const std::vector<FlatTree> &trees() const { return trees_; }

    /** Tree index of episode @p e (parallel to episodes()). */
    std::uint32_t
    episodeTree(std::size_t e) const
    {
        return episodeTree_[e];
    }

    /** Flat root-node index of episode @p e. */
    std::uint32_t
    episodeNode(std::size_t e) const
    {
        return episodeNode_[e];
    }

  private:
    friend class SessionBuilder;

    std::vector<FlatTree> trees_;
    std::vector<std::uint32_t> episodeTree_;
    std::vector<std::uint32_t> episodeNode_;
};

/** @name Flat walks.
 * All take a tree and a flat node index; the counts and GC time are
 * index arithmetic over the prefix sums, the rest are linear scans
 * over the slice (never recursion).
 * @{ */

/** Number of descendants of @p i (excluding @p i). */
inline std::size_t
flatDescendantCount(const FlatTree &tree, std::uint32_t i)
{
    return tree.subtreeSize(i) - 1;
}

/** Depth of the subtree at @p i; a leaf has depth 1. */
std::size_t flatDepth(const FlatTree &tree, std::uint32_t i);

/** Total duration of descendants of @p i with @p wanted type,
 * never descending into a matching node, so nested same-type
 * intervals are not double counted.  GC queries are O(1) via the
 * prefix sums. */
DurationNs flatTypeTime(const FlatTree &tree, std::uint32_t i,
                        IntervalType wanted);

/** Non-GC descendants of @p i. */
std::size_t flatNonGcDescendants(const FlatTree &tree,
                                 std::uint32_t i);

/** Depth of the subtree at @p i ignoring GC nodes; a leaf is 1. */
std::size_t flatNonGcDepth(const FlatTree &tree, std::uint32_t i);

/** Visit the subtree at @p root in preorder, calling
 * @p visit(node, depth) with depth 0 at @p root: an ancestor
 * ends-stack over the slice, no recursion. */
template <typename Visit>
void
flatForEachInPreorder(const FlatTree &tree, std::uint32_t root,
                      Visit &&visit)
{
    std::vector<std::uint32_t> ends;
    for (std::uint32_t i = root; i < tree.subtreeEnd[root]; ++i) {
        while (!ends.empty() && ends.back() <= i)
            ends.pop_back();
        visit(i, ends.size());
        // Depth is data-dependent and small.
        ends.push_back(tree.subtreeEnd[i]); // lag-lint: allow(reserve-loop)
    }
}

/** @} */

/** @name Flat signature emission.
 * The canonical structural signature (pattern.hh) emitted straight
 * from the flat slice: hash-only (no intermediate string) and string
 * materialization, both for episodes the id-level lookup misses,
 * plus an id-level structural hash and comparison that decide
 * signature equality without touching any string.
 * @{ */

/** One frame of the iterative signature walk (a child range plus
 * whether its '(' has been emitted). */
struct FlatSigFrame
{
    std::uint32_t cursor = 0;
    std::uint32_t end = 0;
    bool opened = false;
};

/** Reusable walk stack: pass the same one across episodes and the
 * per-episode emission allocates nothing. */
using FlatSigStack = std::vector<FlatSigFrame>;

/**
 * FNV-1a 64 of the signature of @p i computed in one pass over the
 * slice, with no intermediate string.  @p i must not be a GC node.
 */
std::uint64_t flatSignatureHash(const FlatTree &tree,
                                std::uint32_t i,
                                const trace::StringTable &strings,
                                FlatSigStack &scratch);

/** Append the signature of @p i to @p out. */
void flatSignatureString(const FlatTree &tree, std::uint32_t i,
                         const trace::StringTable &strings,
                         std::string &out, FlatSigStack &scratch);

/** Convenience one-shot forms (own scratch per call). */
std::uint64_t flatSignatureHash(const FlatTree &tree,
                                std::uint32_t i,
                                const trace::StringTable &strings);
std::string flatSignatureString(const FlatTree &tree,
                                std::uint32_t i,
                                const trace::StringTable &strings);

/**
 * True when the subtrees at @p ia / @p ib have identical non-GC
 * structure and identical (type, classSym, methodSym) per node.
 * Within one session symbol ids are interned uniquely, so id-level
 * equality implies signature-string equality (the converse can fail
 * for pathological symbol strings; mining falls back to a string
 * comparison in that case).
 */
bool flatStructureEquals(const FlatTree &a, std::uint32_t ia,
                         const FlatTree &b, std::uint32_t ib);

/**
 * 64-bit hash of exactly what flatStructureEquals compares: per
 * non-GC node in preorder, (type, classSym, methodSym, non-GC
 * subtree size), folded a word at a time.  Equal structures hash
 * equal.  The ids are session-local, so the hash is a lookup key
 * within one session only, never a persistent key.
 */
std::uint64_t flatStructureHash(const FlatTree &tree, std::uint32_t i);

/** @} */

} // namespace lag::core

#endif // LAG_CORE_FLAT_TREE_HH
