/**
 * @file
 * Tests for the flat (structure-of-arrays) interval trees: the
 * preorder layout Session::fromTrace emits, walks and signatures
 * against hand-counted values, iteration at any depth, structural
 * equality, and the trigger-marker scan.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/flat_tree.hh"
#include "core/location.hh"
#include "core/session.hh"
#include "core/triggers.hh"
#include "trace_builder.hh"
#include "util/hash.hh"

namespace lag::core
{
namespace
{

using trace::IntervalKind;

/** A session exercising every interval type, nesting and GC. */
Session
richSession()
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1000, IntervalKind::Listener, "app.A", "act")
        .intervalBegin(2000, IntervalKind::Native, "app.N", "jni")
        .gc(3000, 4000)
        .intervalEnd(msToNs(6), IntervalKind::Native)
        .intervalEnd(msToNs(8), IntervalKind::Listener)
        .intervalBegin(msToNs(9), IntervalKind::Paint, "app.P", "p")
        .intervalEnd(msToNs(12), IntervalKind::Paint)
        .dispatchEnd(msToNs(14));
    builder.dispatchBegin(msToNs(20))
        .intervalBegin(msToNs(21), IntervalKind::Async, "app.Q", "r")
        .intervalBegin(msToNs(22), IntervalKind::Paint, "app.P", "p")
        .intervalEnd(msToNs(23), IntervalKind::Paint)
        .intervalEnd(msToNs(24), IntervalKind::Async)
        .dispatchEnd(msToNs(25));
    builder.dispatchBegin(msToNs(30)).dispatchEnd(msToNs(31));
    return builder.buildSession(secToNs(1));
}

TEST(FlatTreeTest, PreorderLayoutMatchesEventNesting)
{
    const Session session = richSession();
    ASSERT_EQ(session.threads().size(), 1u);
    const FlatTree &tree = session.threads()[0];

    using T = IntervalType;
    const std::vector<T> types = {T::Dispatch, T::Listener, T::Native,
                                  T::Gc,       T::Paint,    T::Dispatch,
                                  T::Async,    T::Paint,    T::Dispatch};
    const std::vector<std::uint32_t> subtreeEnds = {5, 4, 4, 4, 5,
                                                    8, 8, 8, 9};
    ASSERT_EQ(tree.size(), types.size());
    for (std::uint32_t i = 0; i < tree.size(); ++i) {
        EXPECT_EQ(tree.typeOf(i), types[i]) << i;
        EXPECT_EQ(tree.subtreeEnd[i], subtreeEnds[i]) << i;
    }
    EXPECT_EQ(tree.roots, (std::vector<std::uint32_t>{0, 5, 8}));
    EXPECT_EQ(tree.begin[3], 3000);
    EXPECT_EQ(tree.end[3], 4000);
    EXPECT_EQ(session.symbol(tree.classSym[2]), "app.N");
    EXPECT_EQ(session.symbol(tree.methodSym[2]), "jni");
    EXPECT_EQ(tree.classSym[0], 0u);
    EXPECT_EQ(tree.gcCountBefore,
              (std::vector<std::uint32_t>{0, 0, 0, 0, 1, 1, 1, 1, 1, 1}));
}

TEST(FlatTreeTest, EpisodeRefsPointAtEpisodeRoots)
{
    const Session session = richSession();
    const FlatSession &flat = session.flat();
    ASSERT_EQ(session.episodes().size(), 3u);
    for (std::size_t i = 0; i < session.episodes().size(); ++i) {
        const Episode &episode = session.episodes()[i];
        const FlatTree &tree = flat.trees()[flat.episodeTree(i)];
        const std::uint32_t node = flat.episodeNode(i);
        EXPECT_EQ(node, session.episodeRoot(episode));
        EXPECT_EQ(tree.begin[node], episode.begin);
        EXPECT_EQ(tree.end[node], episode.end);
        EXPECT_EQ(tree.typeOf(node), IntervalType::Dispatch);
    }
}

TEST(FlatTreeTest, WalksMatchHandCountedValues)
{
    const Session session = richSession();
    struct Expected
    {
        std::size_t descendants;
        std::size_t depth;
        DurationNs listener, paint, native, async, gc;
        DurationNs nativeExcludingGc;
        TriggerKind trigger;
    };
    const Expected expected[] = {
        {4, 4, msToNs(8) - 1000, msToNs(3), msToNs(6) - 2000, 0, 1000,
         msToNs(6) - 3000, TriggerKind::Input},
        // Async whose first nested marker is a paint: output.
        {2, 3, 0, msToNs(1), 0, msToNs(3), 0, 0, TriggerKind::Output},
        {0, 1, 0, 0, 0, 0, 0, 0, TriggerKind::Unspecified},
    };
    for (std::size_t i = 0; i < session.episodes().size(); ++i) {
        const FlatTree &tree = session.episodeTree(session.episodes()[i]);
        const std::uint32_t node =
            session.episodeRoot(session.episodes()[i]);
        const Expected &e = expected[i];
        EXPECT_EQ(flatDescendantCount(tree, node), e.descendants) << i;
        EXPECT_EQ(flatDepth(tree, node), e.depth) << i;
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Listener),
                  e.listener)
            << i;
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Paint), e.paint)
            << i;
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Native),
                  e.native)
            << i;
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Async), e.async)
            << i;
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Gc), e.gc) << i;
        EXPECT_EQ(flatNativeTimeExcludingGc(tree, node),
                  e.nativeExcludingGc)
            << i;
        EXPECT_EQ(flatEpisodeTrigger(tree, node), e.trigger) << i;
    }
}

TEST(FlatTreeTest, SignaturesMatchTheirHashes)
{
    const Session session = richSession();
    const char *expected[] = {"D(L[app.A.act](N[app.N.jni])P[app.P.p])",
                              "D(A[app.Q.r](P[app.P.p]))", "D"};
    FlatSigStack scratch;
    for (std::size_t i = 0; i < session.episodes().size(); ++i) {
        const FlatTree &tree = session.episodeTree(session.episodes()[i]);
        const std::uint32_t node =
            session.episodeRoot(session.episodes()[i]);
        EXPECT_EQ(flatSignatureString(tree, node, session.strings()),
                  expected[i]);
        EXPECT_EQ(flatSignatureHash(tree, node, session.strings(),
                                    scratch),
                  fnv1a(expected[i]));
    }
}

TEST(FlatTreeTest, DeepTreesAreIterative)
{
    // Session::fromTrace refuses kMaxIntervalDepth nesting ...
    test::TraceBuilder builder;
    for (std::size_t d = 0; d < kMaxIntervalDepth; ++d)
        builder.intervalBegin(0, IntervalKind::Native, "a.N", "n");
    EXPECT_THROW(builder.buildSession(secToNs(1)), trace::TraceError);

    // ... but no walk relies on that: a hand-laid chain of Native
    // nodes twice as deep (Native is no trigger marker, so every
    // walk must reach the bottom) walks without touching the C stack.
    const std::uint32_t depth = 2 * kMaxIntervalDepth;
    FlatTree tree;
    tree.begin.assign(depth, 0);
    tree.end.assign(depth, 10);
    tree.subtreeEnd.assign(depth, depth);
    tree.classSym.assign(depth, 0);
    tree.methodSym.assign(depth, 0);
    tree.type.assign(depth,
                     static_cast<std::uint8_t>(IntervalType::Native));
    tree.gcKind.assign(depth, 0);
    tree.roots = {0};
    tree.gcCountBefore.assign(depth + 1, 0);
    tree.gcTimeBefore.assign(depth + 1, 0);

    EXPECT_EQ(flatDescendantCount(tree, 0), depth - 1);
    EXPECT_EQ(flatDepth(tree, 0), depth);
    EXPECT_EQ(flatNonGcDepth(tree, 0), depth);
    EXPECT_EQ(flatTypeTime(tree, 0, IntervalType::Gc), 0);
    EXPECT_EQ(flatEpisodeTrigger(tree, 0), TriggerKind::Unspecified);
    const trace::StringTable strings;
    const std::string sig = flatSignatureString(tree, 0, strings);
    EXPECT_EQ(sig.size(), depth + 2 * (depth - 1));
}

TEST(FlatTreeTest, StructureEqualsIsGcBlindAndSymbolSensitive)
{
    // Symbol ids only compare within one session, so all three
    // episode shapes live in the same trace: plain, plain + GC,
    // different class.
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1000, IntervalKind::Listener, "app.A", "act")
        .intervalEnd(msToNs(5), IntervalKind::Listener)
        .dispatchEnd(msToNs(6));
    builder.dispatchBegin(msToNs(10))
        .intervalBegin(msToNs(11), IntervalKind::Listener, "app.A",
                       "act")
        .gc(msToNs(12), msToNs(13))
        .intervalEnd(msToNs(15), IntervalKind::Listener)
        .dispatchEnd(msToNs(16));
    builder.dispatchBegin(msToNs(20))
        .intervalBegin(msToNs(21), IntervalKind::Listener, "app.B",
                       "act")
        .intervalEnd(msToNs(25), IntervalKind::Listener)
        .dispatchEnd(msToNs(26));
    const Session session = builder.buildSession(secToNs(1));
    const FlatSession &flat = session.flat();

    const auto treeOf = [&flat](std::size_t e) -> const FlatTree & {
        return flat.trees()[flat.episodeTree(e)];
    };
    // Same symbols, GC ignored: equal.
    EXPECT_TRUE(flatStructureEquals(treeOf(0), flat.episodeNode(0),
                                    treeOf(1), flat.episodeNode(1)));
    // Different class symbol: not equal.
    EXPECT_FALSE(flatStructureEquals(treeOf(0), flat.episodeNode(0),
                                     treeOf(2), flat.episodeNode(2)));
    // Reflexive.
    EXPECT_TRUE(flatStructureEquals(treeOf(2), flat.episodeNode(2),
                                    treeOf(2), flat.episodeNode(2)));
}

TEST(FlatSimdTest, ScalarFindsFirstMarker)
{
    const std::uint8_t types[] = {0, 0, 3, 5, 1, 2, 4, 0};
    EXPECT_EQ(findFirstMarker(types, 0, 8), 4u);
    EXPECT_EQ(findFirstMarker(types, 5, 8), 5u);
    EXPECT_EQ(findFirstMarker(types, 0, 4), 4u); // none: to
    EXPECT_EQ(findFirstMarker(types, 7, 8), 8u);
    EXPECT_EQ(findFirstMarker(types, 3, 3), 3u); // empty
}

TEST(FlatTreeTest, GcPrefixSumsAnswerSubtreeQueries)
{
    const Session session = richSession();
    const FlatSession &flat = session.flat();
    const FlatTree &tree = flat.trees()[flat.episodeTree(0)];
    const std::uint32_t node = flat.episodeNode(0);
    // Episode 0 contains exactly one GC of 1000 ns (inside the
    // native call).
    EXPECT_EQ(tree.gcCountIn(node), 1u);
    EXPECT_EQ(tree.gcTimeIn(node), 1000);
    // Episode 2 (structureless) contains none.
    const FlatTree &tree2 = flat.trees()[flat.episodeTree(2)];
    EXPECT_EQ(tree2.gcCountIn(flat.episodeNode(2)), 0u);
}

} // namespace
} // namespace lag::core
