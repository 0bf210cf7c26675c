/**
 * @file
 * Tests for the Session builder: flat interval-tree construction,
 * nesting validation, GC copies and their placement on coincident
 * timestamps, episode extraction and sample ranges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/flat_tree.hh"
#include "core/session.hh"
#include "trace_builder.hh"

namespace lag::core
{
namespace
{

using trace::IntervalKind;
using trace::TraceError;
using trace::TraceGcKind;
using trace::TraceThreadState;

TEST(SessionTest, BuildsSimpleEpisodeTree)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(msToNs(10))
        .intervalBegin(msToNs(11), IntervalKind::Listener, "app.A",
                       "act")
        .intervalBegin(msToNs(12), IntervalKind::Paint, "app.B",
                       "paint")
        .intervalEnd(msToNs(15), IntervalKind::Paint)
        .intervalEnd(msToNs(18), IntervalKind::Listener)
        .dispatchEnd(msToNs(20));
    const Session session = builder.buildSession(secToNs(1));

    ASSERT_EQ(session.episodes().size(), 1u);
    const Episode &episode = session.episodes()[0];
    EXPECT_EQ(episode.duration(), msToNs(10));
    // Preorder: dispatch, listener, paint — a chain.
    const FlatTree &tree = session.episodeTree(episode);
    const std::uint32_t root = session.episodeRoot(episode);
    EXPECT_EQ(tree.typeOf(root), IntervalType::Dispatch);
    ASSERT_EQ(tree.subtreeSize(root), 3u);
    const std::uint32_t listener = root + 1;
    EXPECT_EQ(tree.typeOf(listener), IntervalType::Listener);
    EXPECT_EQ(session.symbol(tree.classSym[listener]), "app.A");
    ASSERT_EQ(tree.subtreeSize(listener), 2u);
    EXPECT_EQ(tree.typeOf(listener + 1), IntervalType::Paint);
    EXPECT_EQ(tree.duration(listener + 1), msToNs(3));
}

TEST(SessionTest, SiblingIntervalsStaySiblings)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Paint, "a.P1", "paint")
        .intervalEnd(msToNs(4), IntervalKind::Paint)
        .intervalBegin(msToNs(5), IntervalKind::Paint, "a.P2", "paint")
        .intervalEnd(msToNs(9), IntervalKind::Paint)
        .dispatchEnd(msToNs(10));
    const Session session = builder.buildSession(secToNs(1));
    const FlatTree &tree = session.episodeTree(session.episodes()[0]);
    const std::uint32_t root = session.episodeRoot(session.episodes()[0]);
    // Two leaf children: each is its own one-node subtree.
    ASSERT_EQ(tree.subtreeSize(root), 3u);
    EXPECT_EQ(tree.subtreeSize(root + 1), 1u);
    EXPECT_EQ(session.symbol(tree.classSym[root + 1]), "a.P1");
    EXPECT_EQ(session.symbol(tree.classSym[root + 2]), "a.P2");
}

TEST(SessionTest, GcCopiedToEveryThread)
{
    test::TraceBuilder builder;
    const ThreadId worker = builder.addThread("Worker");
    builder.gc(msToNs(10), msToNs(25), TraceGcKind::Major);
    const Session session = builder.buildSession(secToNs(1));

    ASSERT_EQ(session.threads().size(), 2u);
    for (const auto &tree : session.threads()) {
        ASSERT_EQ(tree.roots.size(), 1u)
            << "thread " << tree.name << " missing its GC copy";
        const std::uint32_t gc = tree.roots[0];
        EXPECT_EQ(tree.typeOf(gc), IntervalType::Gc);
        EXPECT_EQ(tree.gcKind[gc],
                  static_cast<std::uint8_t>(TraceGcKind::Major));
        EXPECT_EQ(tree.duration(gc), msToNs(15));
    }
    (void)worker;
}

TEST(SessionTest, GcNestsIntoDeepestContainingInterval)
{
    // The paper's Figure 1: a GC inside a native call inside paints.
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(msToNs(1), IntervalKind::Paint, "s.JFrame",
                       "paint")
        .intervalBegin(msToNs(2), IntervalKind::Native,
                       "sun.java2d.loops.DrawLine", "DrawLine")
        .gc(msToNs(3), msToNs(9), TraceGcKind::Minor)
        .intervalEnd(msToNs(12), IntervalKind::Native)
        .intervalEnd(msToNs(14), IntervalKind::Paint)
        .dispatchEnd(msToNs(15));
    const Session session = builder.buildSession(secToNs(1));
    const FlatTree &tree = session.episodeTree(session.episodes()[0]);
    const std::uint32_t native =
        session.episodeRoot(session.episodes()[0]) + 2;
    ASSERT_EQ(tree.typeOf(native), IntervalType::Native);
    ASSERT_EQ(tree.subtreeSize(native), 2u);
    EXPECT_EQ(tree.typeOf(native + 1), IntervalType::Gc);
    EXPECT_EQ(tree.duration(native + 1), msToNs(6));
}

TEST(SessionTest, GcBetweenEpisodesBecomesRoot)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0).dispatchEnd(msToNs(5));
    builder.gc(msToNs(10), msToNs(20));
    builder.dispatchBegin(msToNs(30)).dispatchEnd(msToNs(35));
    const Session session = builder.buildSession(secToNs(1));
    const FlatTree &tree = session.threads()[0];
    ASSERT_EQ(tree.id, 0u);
    ASSERT_EQ(tree.roots.size(), 3u);
    EXPECT_EQ(tree.typeOf(tree.roots[0]), IntervalType::Dispatch);
    EXPECT_EQ(tree.typeOf(tree.roots[1]), IntervalType::Gc);
    EXPECT_EQ(tree.typeOf(tree.roots[2]), IntervalType::Dispatch);
    // Only the dispatches are episodes.
    EXPECT_EQ(session.episodes().size(), 2u);
}

TEST(SessionTest, SampleRangesAssigned)
{
    test::TraceBuilder builder;
    builder.sample(msToNs(5), TraceThreadState::Runnable);  // before
    builder.dispatchBegin(msToNs(10)).dispatchEnd(msToNs(30));
    builder.rawSample(msToNs(15), {});
    builder.rawSample(msToNs(25), {});
    builder.rawSample(msToNs(40), {});
    const Session session = builder.buildSession(secToNs(1));
    const Episode &episode = session.episodes()[0];
    EXPECT_EQ(episode.firstSample, 1u);
    EXPECT_EQ(episode.lastSample, 3u);
}

TEST(SessionTest, PerceptibleCount)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0).dispatchEnd(msToNs(50));
    builder.dispatchBegin(msToNs(60)).dispatchEnd(msToNs(200));
    builder.dispatchBegin(msToNs(210)).dispatchEnd(msToNs(310));
    const Session session = builder.buildSession(secToNs(1));
    EXPECT_EQ(session.perceptibleCount(msToNs(100)), 2u);
    EXPECT_EQ(session.perceptibleCount(msToNs(500)), 0u);
}

TEST(SessionTest, UnterminatedIntervalRejected)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0).intervalBegin(
        1, IntervalKind::Listener, "a.A", "m");
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

TEST(SessionTest, MismatchedEndTypeRejected)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Listener, "a.A", "m")
        .dispatchEnd(msToNs(5)); // ends dispatch with listener open
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

TEST(SessionTest, EndWithoutBeginRejected)
{
    test::TraceBuilder builder;
    builder.intervalEnd(msToNs(5), IntervalKind::Paint);
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

TEST(SessionTest, GcCrossingIntervalBoundaryRejected)
{
    // A GC that overlaps an interval without containment means the
    // world was not stopped — the trace is inconsistent.
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(msToNs(1), IntervalKind::Paint, "a.P", "paint")
        .intervalEnd(msToNs(10), IntervalKind::Paint)
        .dispatchEnd(msToNs(11));
    builder.raw().events.push_back([] {
        trace::TraceEvent e;
        e.type = trace::EventType::GcBegin;
        e.time = msToNs(5);
        return e;
    }());
    builder.raw().events.push_back([] {
        trace::TraceEvent e;
        e.type = trace::EventType::GcEnd;
        e.time = msToNs(20);
        return e;
    }());
    // Re-sort events by time so validate() passes and the builder
    // sees a GC crossing the paint boundary.
    auto &events = builder.raw().events;
    std::stable_sort(events.begin(), events.end(),
                     [](const trace::TraceEvent &a,
                        const trace::TraceEvent &b) {
                         return a.time < b.time;
                     });
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

TEST(SessionTest, OverlappingGcRejected)
{
    test::TraceBuilder builder;
    auto &events = builder.raw().events;
    trace::TraceEvent b1;
    b1.type = trace::EventType::GcBegin;
    b1.time = 10;
    trace::TraceEvent b2 = b1;
    b2.time = 20;
    events.push_back(b1);
    events.push_back(b2);
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

/**
 * Build a trace from a compact event script and render what
 * Session::fromTrace makes of it.  Script tokens are separated by
 * spaces; each is an optional "1:" thread prefix (thread 1 is a
 * non-GUI worker; default thread 0, the GUI thread), one letter and
 * a time.  Upper case begins, lower case ends: D dispatch, L
 * listener, P paint, N native, A async; G/g a minor GC, M a major
 * GC begin.  The rendering lists each thread's flat preorder as
 * "<type><begin>-<end>/<subtreeEnd>" (type letters as in the script,
 * G/M for minor/major GC), threads separated by " | ", or "!" plus
 * the TraceError message.
 */
std::string
placementOf(const std::string &script)
{
    test::TraceBuilder builder;
    builder.addThread("Worker");
    std::istringstream tokens(script);
    std::string token;
    while (tokens >> token) {
        ThreadId thread = 0;
        if (token.size() > 2 && token[1] == ':') {
            thread = static_cast<ThreadId>(token[0] - '0');
            token = token.substr(2);
        }
        const char op = token[0];
        const TimeNs t = std::strtoll(token.c_str() + 1, nullptr, 10);
        trace::TraceEvent e;
        e.thread = thread;
        e.time = t;
        const auto kindOf = [](char c) {
            switch (c) {
              case 'L': case 'l': return IntervalKind::Listener;
              case 'P': case 'p': return IntervalKind::Paint;
              case 'N': case 'n': return IntervalKind::Native;
              default:            return IntervalKind::Async;
            }
        };
        switch (op) {
          case 'D': builder.dispatchBegin(t, thread); continue;
          case 'd': builder.dispatchEnd(t, thread); continue;
          case 'G':
          case 'M':
            e.type = trace::EventType::GcBegin;
            e.gcKind = op == 'M' ? TraceGcKind::Major
                                 : TraceGcKind::Minor;
            builder.raw().events.push_back(e);
            continue;
          case 'g':
            e.type = trace::EventType::GcEnd;
            builder.raw().events.push_back(e);
            continue;
          default:
            break;
        }
        if (op >= 'a' && op <= 'z')
            builder.intervalEnd(t, kindOf(op), thread);
        else
            builder.intervalBegin(t, kindOf(op), "c", "m", thread);
    }

    std::string out;
    try {
        const Session session = builder.buildSession(1000);
        for (const FlatTree &tree : session.threads()) {
            if (!out.empty())
                out += " |";
            for (std::uint32_t i = 0; i < tree.size(); ++i) {
                static constexpr char kLetter[] = "DLPNAG";
                char letter = kLetter[tree.type[i]];
                if (tree.typeOf(i) == IntervalType::Gc &&
                    tree.gcKind[i] ==
                        static_cast<std::uint8_t>(TraceGcKind::Major))
                    letter = 'M';
                out += ' ';
                out += letter;
                out += std::to_string(tree.begin[i]) + "-" +
                       std::to_string(tree.end[i]) + "/" +
                       std::to_string(tree.subtreeEnd[i]);
            }
        }
    } catch (const TraceError &error) {
        return std::string("!") + error.what();
    }
    return out.empty() ? out : out.substr(1);
}

/** Where GC copies land, and which error a trace gets, on the
 * boundary cases: coincident timestamps resolve by the tree rule (a
 * GC goes into the deepest non-GC node that contains it, bounds
 * inclusive, first such sibling in time order). */
struct PlacementCase
{
    const char *script;
    const char *expected;
};

const PlacementCase kPlacementCases[] = {
    // A GC on threads with nothing open becomes a root everywhere.
    {"G2 g4", "G2-4/1 | G2-4/1"},
    {"1:N0 1:n1 G2 g4", "G2-4/1 | N0-1/1 G2-4/2"},
    // GC begin coincides with an interval's begin, in either event
    // order.
    {"D0 G0 g5 d10", "D0-10/2 G0-5/2 | G0-5/1"},
    {"G0 D0 g5 d10", "D0-10/2 G0-5/2 | G0-5/1"},
    {"D0 G0 L0 g5 l6 d10", "D0-10/3 L0-6/3 G0-5/3 | G0-5/1"},
    // GC begin coincides with an interval's end.
    {"D0 L1 l5 G5 g7 d10", "D0-10/3 L1-5/2 G5-7/3 | G5-7/1"},
    {"D0 L1 G5 l5 g7 d10", "D0-10/3 L1-5/2 G5-7/3 | G5-7/1"},
    // GC end coincides with an interval's end: a node that closes at
    // exactly the GC's end contains it, even when it closed first.
    {"D0 L1 G2 g5 l5 d10", "D0-10/3 L1-5/3 G2-5/3 | G2-5/1"},
    {"D0 L1 G2 l5 g5 d10", "D0-10/3 L1-5/3 G2-5/3 | G2-5/1"},
    {"D0 G2 d5 g5", "D0-5/2 G2-5/2 | G2-5/1"},
    // GC end coincides with an interval's begin.
    {"D0 G1 g3 L3 l5 d10", "D0-10/3 G1-3/2 L3-5/3 | G1-3/1"},
    {"D0 G1 L3 g3 l5 d10", "D0-10/3 G1-3/2 L3-5/3 | G1-3/1"},
    // Zero-length GC on a sibling boundary: the first containing
    // sibling in time order wins, whatever the event order.
    {"D0 L1 l5 G5 g5 P5 p9 d10",
     "D0-10/4 L1-5/3 G5-5/3 P5-9/4 | G5-5/1"},
    {"D0 L1 l5 P5 G5 g5 p9 d10",
     "D0-10/4 L1-5/3 G5-5/3 P5-9/4 | G5-5/1"},
    {"D0 G5 g5 L5 l9 d10", "D0-10/3 L5-9/3 G5-5/3 | G5-5/1"},
    {"D0 L1 l5 G5 g5 d10", "D0-10/3 L1-5/3 G5-5/3 | G5-5/1"},
    {"D0 d5 G5 g5 D5 d9", "D0-5/2 G5-5/2 D5-9/3 | G5-5/1"},
    {"D0 L5 l5 G5 g5 d10", "D0-10/3 L5-5/3 G5-5/3 | G5-5/1"},
    {"D0 G1 d5 D5 1:N5 g5 1:n6 d9", "D0-5/2 G1-5/2 D5-9/3 | G1-5/1 N5-6/2"},
    // Back-to-back GCs sharing a timestamp.
    {"D0 G2 g4 G4 g6 d10", "D0-10/3 G2-4/2 G4-6/3 | G2-4/1 G4-6/2"},
    {"D0 M4 g4 G4 g4 d10", "D0-10/3 G4-4/2 M4-4/3 | G4-4/1 M4-4/2"},
    {"D0 G4 g4 G4 g6 d10", "!GC interval crosses an interval boundary (end)"},
    {"D0 G2 g4 G4 g4 d10", "D0-10/3 G2-4/2 G4-4/3 | G2-4/1 G4-4/2"},
    // Crossings.
    {"D0 L1 G3 l5 g7 d10",
     "!GC interval crosses an interval boundary (begin)"},
    {"D0 G1 L2 g3 l5 d10", "!GC interval crosses an interval boundary (end)"},
    // Error precedence: threads are checked in roster order, each for
    // an open interval before its GC copies.
    {"1:N0 G1 1:n2 g3 D4",
     "!unterminated interval on thread 0"},
    {"N0 G1 n2 g3 1:D4",
     "!GC interval crosses an interval boundary (begin)"},
    {"D0 G1", "!unterminated GC interval"},
    {"D0 l1 G2 g3", "!mismatched begin/end types on thread 0"},
};

TEST(SessionTest, GcPlacementTable)
{
    for (const PlacementCase &c : kPlacementCases)
        EXPECT_EQ(placementOf(c.script), c.expected) << c.script;
}

TEST(SessionTest, DepthLimitOutranksEarlierNestingErrors)
{
    // The depth check sees the whole stream before any nesting error
    // is reported, and only intervals (never GC copies) count.
    std::string script = "l0";
    for (std::size_t d = 0; d + 1 < kMaxIntervalDepth; ++d)
        script += " N1";
    EXPECT_EQ(placementOf(script),
              "!interval end without begin on thread 0")
        << "depth " << kMaxIntervalDepth - 1 << " is accepted";
    script += " N1";
    EXPECT_EQ(placementOf(script),
              "!trace nests intervals deeper than the supported "
              "maximum (1000)");
}

TEST(SessionTest, GuiThreadLookup)
{
    test::TraceBuilder builder;
    builder.addThread("W");
    const Session session = builder.buildSession(secToNs(1));
    EXPECT_EQ(session.guiThread(), 0u);
}

TEST(SessionTest, EpisodesSortedByBeginAcrossSamples)
{
    test::TraceBuilder builder;
    for (int i = 0; i < 5; ++i) {
        builder.dispatchBegin(msToNs(10 * i))
            .dispatchEnd(msToNs(10 * i + 5));
    }
    const Session session = builder.buildSession(secToNs(1));
    ASSERT_EQ(session.episodes().size(), 5u);
    for (std::size_t i = 1; i < 5; ++i) {
        EXPECT_GT(session.episodes()[i].begin,
                  session.episodes()[i - 1].begin);
    }
}

TEST(IntervalNodeTest, TypeTimeSkipsNestedSameType)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(10, IntervalKind::Native, "a.N", "outer")
        .intervalBegin(20, IntervalKind::Native, "a.N", "inner")
        .intervalEnd(30, IntervalKind::Native)
        .intervalEnd(50, IntervalKind::Native)
        .dispatchEnd(100);
    const Session session = builder.buildSession(secToNs(1));
    const FlatTree &tree = session.episodeTree(session.episodes()[0]);
    const std::uint32_t root = session.episodeRoot(session.episodes()[0]);
    // Inner native must not be double counted.
    EXPECT_EQ(flatTypeTime(tree, root, IntervalType::Native), 40);
    EXPECT_EQ(flatTypeTime(tree, root, IntervalType::Gc), 0);
}

TEST(IntervalNodeTest, DescendantsAndDepth)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Listener, "a.A", "m")
        .intervalBegin(2, IntervalKind::Paint, "a.B", "m")
        .intervalEnd(3, IntervalKind::Paint)
        .intervalBegin(4, IntervalKind::Paint, "a.C", "m")
        .intervalEnd(5, IntervalKind::Paint)
        .intervalEnd(6, IntervalKind::Listener)
        .dispatchEnd(7);
    const Session session = builder.buildSession(secToNs(1));
    const FlatTree &tree = session.episodeTree(session.episodes()[0]);
    const std::uint32_t root = session.episodeRoot(session.episodes()[0]);
    EXPECT_EQ(flatDescendantCount(tree, root), 3u);
    EXPECT_EQ(flatDepth(tree, root), 3u);
}

} // namespace
} // namespace lag::core
