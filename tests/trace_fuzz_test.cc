/**
 * @file
 * Adversarial decode tests: every truncation, every single-bit
 * flip, random garbage and forged section counts must surface as a
 * trace::TraceError — never a crash, a hang or a huge allocation.
 * Structurally mutated event streams (dropped, duplicated or
 * reordered boundary events, flipped end types, GC bounds moved
 * across interval edges) must likewise either build a well-formed
 * session or raise a TraceError, and the resumable session builder
 * fed each mutant in random pieces must agree with
 * Session::fromTrace at every cut — and so must the analysis folded
 * over the episodes each cut reports final.
 *
 * The bit-flip and truncation sweeps rely on the container format:
 * the whole payload is checksummed and the checksum is verified once
 * the last record is decoded, so damage the record checks let
 * through is still rejected. Forged counts additionally exercise the
 * plausibility guards that run before any count-sized allocation
 * (a forged count can carry a forged checksum). The batch reader and
 * the tail reader run the same decoder, so every bit flip must get
 * the same answer from both.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "app/study.hh"
#include "core/location.hh"
#include "core/pattern.hh"
#include "core/session.hh"
#include "core/triggers.hh"
#include "engine/analysis_partial.hh"
#include "engine/result_cache.hh"
#include "scratch_dir.hh"
#include "trace/io.hh"
#include "trace/tailer.hh"
#include "trace_builder.hh"
#include "util/hash.hh"

namespace lag::trace
{
namespace
{

/** A small but fully featured trace: several episode shapes, GC,
 * native work and call-stack samples. */
Trace
sampleTrace()
{
    test::TraceBuilder builder;
    const ThreadId worker = builder.addThread("worker");
    builder.listenerEpisode(msToNs(10), msToNs(60), "app.Editor");
    builder.dispatchBegin(msToNs(100));
    builder.intervalBegin(msToNs(101), IntervalKind::Paint,
                          "app.Canvas", "paint");
    builder.intervalBegin(msToNs(110), IntervalKind::Native,
                          "app.Canvas", "blit");
    builder.gc(msToNs(115), msToNs(125));
    builder.intervalEnd(msToNs(140), IntervalKind::Native);
    builder.intervalEnd(msToNs(150), IntervalKind::Paint);
    builder.dispatchEnd(msToNs(160));
    builder.sample(msToNs(30), TraceThreadState::Runnable);
    builder.sample(msToNs(120), TraceThreadState::Blocked);
    builder.listenerEpisode(msToNs(200), msToNs(420), "app.Search");
    builder.dispatchBegin(msToNs(500), worker);
    builder.dispatchEnd(msToNs(510), worker);
    return builder.build(msToNs(600));
}

/** File offsets of the outer container (see io.cc). */
constexpr std::size_t kChecksumOffset = 12;
constexpr std::size_t kPayloadOffset = 20;

/** Rewrite the container checksum to match the (edited) payload,
 * so damage behind it reaches the section parsers. */
void
resealChecksum(std::string &file)
{
    ASSERT_GE(file.size(), kPayloadOffset);
    Crc32cHasher hasher;
    hasher.addBytes(file.data() + kPayloadOffset,
                    file.size() - kPayloadOffset);
    const std::uint64_t digest = hasher.digest(); // zero-extended
    std::memcpy(file.data() + kChecksumOffset, &digest,
                sizeof(digest));
}

TEST(TraceFuzz, EveryTruncationThrows)
{
    const std::string bytes = serializeTrace(sampleTrace());
    ASSERT_GT(bytes.size(), 100u);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW(deserializeTrace(bytes.substr(0, len)),
                     TraceError)
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(TraceFuzz, EverySingleBitFlipThrows)
{
    const std::string bytes = serializeTrace(sampleTrace());
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = bytes;
            bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
            EXPECT_THROW(deserializeTrace(bad), TraceError)
                << "flip at byte " << pos << " bit " << bit
                << " decoded";
        }
    }
}

TEST(TraceFuzz, RandomGarbageThrows)
{
    std::mt19937_64 rng(0x1a6a1721);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> length(0, 4096);
    for (int round = 0; round < 200; ++round) {
        std::string junk(length(rng), '\0');
        for (char &c : junk)
            c = static_cast<char>(byte(rng));
        EXPECT_THROW(deserializeTrace(junk), TraceError)
            << "garbage round " << round << " decoded";
    }
}

TEST(TraceFuzz, ResealedPayloadDamageStillThrows)
{
    // Flip payload bytes AND reseal the checksum, so the section
    // parsers (not the checksum) must reject the damage; any
    // accidental valid decode of a corrupt record would be caught
    // by the cross-checks against the section header.
    const std::string bytes = serializeTrace(sampleTrace());
    std::mt19937_64 rng(0x5eed);
    std::uniform_int_distribution<std::size_t> pos(
        kPayloadOffset, bytes.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    int rejected = 0;
    for (int round = 0; round < 500; ++round) {
        std::string bad = bytes;
        const std::size_t at = pos(rng);
        bad[at] = static_cast<char>(bad[at] ^ (1 << bit(rng)));
        resealChecksum(bad);
        try {
            const Trace decoded = deserializeTrace(bad);
            // A flip in a value field (a time, a symbol id) can
            // legitimately decode; it must still be structurally
            // complete.
            EXPECT_EQ(decoded.events.size(),
                      sampleTrace().events.size());
        } catch (const TraceError &) {
            ++rejected;
        }
    }
    // The majority of flips hit structure (counts, types, string
    // lengths) and must have been rejected.
    EXPECT_GT(rejected, 0);
}

TEST(TraceFuzz, ForgedCountsAreRejectedBeforeAllocation)
{
    const std::string bytes = serializeTrace(sampleTrace());

    // Section-count fields inside the payload's section header.
    const std::size_t eventCountOffset = kPayloadOffset + 8;
    const std::size_t sampleCountOffset = kPayloadOffset + 16;

    for (const std::size_t offset :
         {eventCountOffset, sampleCountOffset}) {
        std::string bad = bytes;
        const std::uint64_t huge = 1ull << 60;
        std::memcpy(bad.data() + offset, &huge, sizeof(huge));
        resealChecksum(bad);
        try {
            deserializeTrace(bad);
            FAIL() << "forged count at offset " << offset
                   << " decoded";
        } catch (const TraceError &e) {
            EXPECT_NE(std::string(e.what()).find("implausible"),
                      std::string::npos)
                << "unexpected error: " << e.what();
        }
    }
}

TEST(TraceFuzz, RecordErrorsCarryOffsetAndIndex)
{
    // Build two traces identical up to the event section — same
    // threads, same interned strings — one without events.  The
    // shorter file's length is then exactly the event section's
    // file offset in the longer one.
    const Trace full = sampleTrace();
    Trace empty = full;
    empty.events.clear();
    empty.samples = {};
    const std::string bytes = serializeTrace(full);
    const std::string prefix = serializeTrace(empty);
    ASSERT_LT(prefix.size(), bytes.size());

    // Corrupt the kind byte (offset 13 in the 23-byte event wire
    // record) of event 0 and reseal: the decoder must name the
    // record and its payload offset.
    const std::size_t eventOffset = prefix.size();
    std::string bad = bytes;
    bad[eventOffset + 13] = '\x7f';
    resealChecksum(bad);
    try {
        deserializeTrace(bad);
        FAIL() << "corrupt event decoded";
    } catch (const TraceError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("event 0"), std::string::npos)
            << "missing record index: " << what;
        EXPECT_NE(what.find("payload offset"), std::string::npos)
            << "missing payload offset: " << what;
    }
}

TEST(TraceFuzz, BatchAndTailDecodersAgreeOnEveryBitFlip)
{
    // The batch reader and one tailer poll of a file holding the
    // same bytes must decode the same Trace or throw the same error.
    // Only a whole buffer can show a record to be cut short for good
    // or a count to be implausible. Where the batch reader rejects on
    // those grounds, the tailer may wait for more bytes, but it must
    // not complete, and if it rejects the file it must name the same
    // damage.
    const std::string bytes = serializeTrace(sampleTrace());
    const test::ScratchDir dir("lagalyzer-test-fuzz-flip");
    const std::string path = dir.path + "/flip.lag";
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = bytes;
            bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
            {
                std::ofstream out(path,
                                  std::ios::binary | std::ios::trunc);
                out.write(bad.data(),
                          static_cast<std::streamsize>(bad.size()));
            }

            std::optional<Trace> batch;
            std::string batchError;
            bool mayWait = false; // the tailer cannot tell yet
            try {
                batch = deserializeTrace(bad);
            } catch (const TraceError &e) {
                batchError = e.what();
                mayWait = e.kind() == TraceErrorKind::Truncated ||
                          batchError.find("implausible") !=
                              std::string::npos;
            }

            TraceTailer tailer(path);
            std::string tailError;
            try {
                (void)tailer.poll();
            } catch (const TraceError &e) {
                tailError = e.what();
            }

            const std::string where = "flip at byte " +
                                      std::to_string(pos) + " bit " +
                                      std::to_string(bit);
            if (mayWait) {
                EXPECT_FALSE(tailer.decoded().complete())
                    << where << ": the tailer completes where the "
                    << "batch reader says: " << batchError;
                if (!tailError.empty()) {
                    EXPECT_EQ(tailError, batchError) << where;
                }
            } else if (batch) {
                EXPECT_EQ(tailError, "") << where;
                EXPECT_EQ(serializeTrace(tailer.decoded().snapshot()),
                          serializeTrace(*batch))
                    << where;
            } else {
                EXPECT_EQ(tailError, batchError) << where;
            }
        }
    }
}

bool
isBegin(EventType type)
{
    return type == EventType::DispatchBegin ||
           type == EventType::IntervalBegin;
}

bool
isEnd(EventType type)
{
    return type == EventType::DispatchEnd ||
           type == EventType::IntervalEnd;
}

bool
isGc(EventType type)
{
    return type == EventType::GcBegin || type == EventType::GcEnd;
}

/**
 * Apply one random structural mutation to @p events, keeping event
 * times non-decreasing so the damage reaches the session builder
 * rather than the time-order check.
 */
void
mutateEvents(std::vector<TraceEvent> &events, std::mt19937_64 &rng)
{
    if (events.size() < 2)
        return;
    std::uniform_int_distribution<std::size_t> at(0, events.size() - 1);
    const std::size_t i = at(rng);
    switch (rng() % 5) {
      case 0: // drop an event
        events.erase(events.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 1: // duplicate an event in place
        events.insert(events.begin() + static_cast<std::ptrdiff_t>(i),
                      events[i]);
        break;
      case 2: { // swap two nearby events, each keeping its slot's time
        const std::size_t j =
            std::min(events.size() - 1, i + 1 + rng() % 4);
        std::swap(events[i], events[j]);
        std::swap(events[i].time, events[j].time);
        break;
      }
      case 3: // flip a begin into an end or an end's dispatch type
        switch (events[i].type) {
          case EventType::DispatchBegin:
            events[i].type = EventType::DispatchEnd;
            break;
          case EventType::IntervalBegin:
            events[i].type = EventType::IntervalEnd;
            break;
          case EventType::DispatchEnd:
            events[i].type = EventType::IntervalEnd;
            break;
          case EventType::IntervalEnd:
            events[i].type = EventType::DispatchEnd;
            break;
          case EventType::GcBegin:
          case EventType::GcEnd:
            break;
        }
        break;
      default: { // move a GC bound onto a nearby interval edge
        std::size_t g = i;
        while (g < events.size() && !isGc(events[g].type))
            ++g;
        if (g == events.size())
            break;
        const std::size_t lo = g >= 6 ? g - 6 : 0;
        const std::size_t hi = std::min(events.size() - 1, g + 6);
        std::uniform_int_distribution<std::size_t> near(lo, hi);
        const std::size_t target = near(rng);
        if (!isBegin(events[target].type) &&
            !isEnd(events[target].type))
            break;
        TraceEvent bound = events[g];
        bound.time = events[target].time;
        events.erase(events.begin() + static_cast<std::ptrdiff_t>(g));
        const std::size_t slot = target > g ? target - 1 : target;
        // Land before or after the edge, at the edge's time.
        const std::size_t pos = slot + rng() % 2;
        events.insert(events.begin() + static_cast<std::ptrdiff_t>(pos),
                      bound);
        break;
      }
    }
}

/** Structural invariants every built session must satisfy. */
void
expectWellFormed(const core::Session &session)
{
    for (const core::FlatTree &tree : session.threads()) {
        const auto n = static_cast<std::uint32_t>(tree.size());
        ASSERT_EQ(tree.end.size(), n);
        ASSERT_EQ(tree.subtreeEnd.size(), n);
        ASSERT_EQ(tree.type.size(), n);
        ASSERT_EQ(tree.gcCountBefore.size(), n + 1u);
        ASSERT_EQ(tree.gcTimeBefore.size(), n + 1u);
        std::vector<std::uint32_t> ends; // open ancestors
        for (std::uint32_t i = 0; i < n; ++i) {
            ASSERT_GT(tree.subtreeEnd[i], i);
            ASSERT_LE(tree.subtreeEnd[i], n);
            ASSERT_LE(tree.begin[i], tree.end[i]);
            while (!ends.empty() && ends.back() <= i)
                ends.pop_back();
            if (!ends.empty()) {
                ASSERT_LE(tree.subtreeEnd[i], ends.back());
            }
            if (tree.typeOf(i) == core::IntervalType::Gc) {
                ASSERT_EQ(tree.subtreeEnd[i], i + 1); // a leaf
            }
            ends.push_back(tree.subtreeEnd[i]);
        }
    }
    const core::FlatSession &flat = session.flat();
    for (std::size_t e = 0; e < session.episodes().size(); ++e) {
        ASSERT_LT(flat.episodeTree(e), session.threads().size());
        const core::FlatTree &tree = flat.trees()[flat.episodeTree(e)];
        ASSERT_LT(flat.episodeNode(e), tree.size());
        ASSERT_EQ(tree.typeOf(flat.episodeNode(e)),
                  core::IntervalType::Dispatch);
    }
}

/** Every array the builder produces is identical in @p a and @p b. */
void
expectSameSession(const core::Session &a, const core::Session &b)
{
    ASSERT_EQ(a.threads().size(), b.threads().size());
    for (std::size_t t = 0; t < a.threads().size(); ++t) {
        const core::FlatTree &x = a.threads()[t];
        const core::FlatTree &y = b.threads()[t];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.begin, y.begin) << "tree " << t;
        EXPECT_EQ(x.end, y.end) << "tree " << t;
        EXPECT_EQ(x.subtreeEnd, y.subtreeEnd) << "tree " << t;
        EXPECT_EQ(x.classSym, y.classSym) << "tree " << t;
        EXPECT_EQ(x.methodSym, y.methodSym) << "tree " << t;
        EXPECT_EQ(x.type, y.type) << "tree " << t;
        EXPECT_EQ(x.gcKind, y.gcKind) << "tree " << t;
        EXPECT_EQ(x.roots, y.roots) << "tree " << t;
        EXPECT_EQ(x.gcCountBefore, y.gcCountBefore) << "tree " << t;
        EXPECT_EQ(x.gcTimeBefore, y.gcTimeBefore) << "tree " << t;
    }
    ASSERT_EQ(a.episodes().size(), b.episodes().size());
    for (std::size_t e = 0; e < a.episodes().size(); ++e) {
        const core::Episode &x = a.episodes()[e];
        const core::Episode &y = b.episodes()[e];
        EXPECT_EQ(x.thread, y.thread) << "episode " << e;
        EXPECT_EQ(x.treeIndex, y.treeIndex) << "episode " << e;
        EXPECT_EQ(x.rootIndex, y.rootIndex) << "episode " << e;
        EXPECT_EQ(x.begin, y.begin) << "episode " << e;
        EXPECT_EQ(x.end, y.end) << "episode " << e;
        EXPECT_EQ(x.firstSample, y.firstSample) << "episode " << e;
        EXPECT_EQ(x.lastSample, y.lastSample) << "episode " << e;
        EXPECT_EQ(a.flat().episodeTree(e), b.flat().episodeTree(e));
        EXPECT_EQ(a.flat().episodeNode(e), b.flat().episodeNode(e));
    }
    EXPECT_EQ(a.samples().size(), b.samples().size());
    EXPECT_EQ(a.meta().endTime, b.meta().endTime);
}

/** Session::fromTrace of @p trace, or the text of its error. */
std::string
buildOrError(const Trace &trace, std::optional<core::Session> &out)
{
    try {
        out.emplace(core::Session::fromTrace(trace));
        return "";
    } catch (const TraceError &e) {
        return e.what();
    }
}

/** The serialized analysis @p analyze returns, or its error text. */
template <typename Analyze>
std::string
analysisOrError(Analyze &&analyze)
{
    try {
        return engine::serializeSessionAnalysis(analyze());
    } catch (const TraceError &e) {
        return std::string("error: ") + e.what();
    }
}

/**
 * Feed @p trace to a SessionBuilder in pieces (events first, then
 * samples, as a tailer hands them over), cutting after the events
 * up to each of @p eventCuts and then after the samples up to each
 * of @p sampleCuts (both ascending): every cut must equal
 * Session::fromTrace of the records fed so far, or throw its error
 * text.  An AnalysisPartial folding the settled and sampled episodes
 * of each cut, as live ingest does, must finish to the bytes of
 * analyzeSession over that cut.
 */
void
expectCutsMatchFromTrace(const Trace &trace,
                         const std::vector<std::size_t> &eventCuts,
                         const std::vector<std::size_t> &sampleCuts)
{
    core::SessionBuilder builder(trace.meta.startTime, trace.threads,
                                 trace.strings);
    const DurationNs threshold = msToNs(100);
    engine::AnalysisPartial folded(threshold);
    Trace prefix = trace;
    prefix.events.clear();
    prefix.samples = {};
    std::size_t fedEvents = 0;
    std::size_t fedSamples = 0;
    const auto feedAndCompare = [&](std::size_t events,
                                    std::size_t samples) {
        builder.append(
            std::span(trace.events).subspan(fedEvents, events - fedEvents),
            trace.samples, fedSamples, samples);
        prefix.events.assign(trace.events.begin(),
                             trace.events.begin() +
                                 static_cast<std::ptrdiff_t>(events));
        prefix.samples = {};
        prefix.samples.append(trace.samples, 0, samples);
        fedEvents = events;
        fedSamples = samples;
        std::optional<core::Session> expected;
        const std::string error = buildOrError(prefix, expected);
        try {
            const core::Session &got = builder.cut(trace.meta);
            EXPECT_EQ(error, "") << "the cut built where fromTrace threw";
            if (!expected)
                return;
            expectSameSession(got, *expected);
            EXPECT_EQ(analysisOrError([&] {
                          folded.fold(got, builder.settledEpisodes(),
                                      builder.sampledEpisodes());
                          return engine::AnalysisPartial(folded).finish(
                              got);
                      }),
                      analysisOrError([&] {
                          return engine::analyzeSession(*expected,
                                                        threshold);
                      }));
        } catch (const TraceError &e) {
            EXPECT_EQ(std::string(e.what()), error);
        }
    };
    for (const std::size_t cut : eventCuts)
        feedAndCompare(cut, 0);
    for (const std::size_t cut : sampleCuts)
        feedAndCompare(trace.events.size(), cut);
}

/** expectCutsMatchFromTrace at seeded random cuts: up to five inside
 * the events, one inside the samples, then the whole trace. */
void
expectRandomCutsMatchFromTrace(const Trace &trace, std::mt19937_64 &rng)
{
    std::vector<std::size_t> eventCuts;
    const std::size_t pieces = 1 + rng() % 6;
    for (std::size_t k = 0; k + 1 < pieces; ++k)
        eventCuts.push_back(rng() % (trace.events.size() + 1));
    std::sort(eventCuts.begin(), eventCuts.end());
    eventCuts.push_back(trace.events.size());
    expectCutsMatchFromTrace(
        trace, eventCuts,
        {rng() % (trace.samples.size() + 1), trace.samples.size()});
}

/**
 * A small random trace dense in coincident timestamps: up to three
 * threads (two may be GUI threads, so episodes tie across them),
 * short nested intervals, frequent collections of zero or one tick
 * landing on interval edges, samples, and in a quarter of the seeds
 * one nesting or validation fault.
 */
Trace
coincidentTrace(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    Trace trace;
    trace.meta.appName = "Coincident";
    const std::size_t threads = 1 + rng() % 3;
    for (std::size_t k = 0; k < threads; ++k) {
        trace.threads.push_back(TraceThread{
            static_cast<ThreadId>(k), "t" + std::to_string(k),
            k == 0 || rng() % 2 == 0});
    }
    const SymbolId cls = trace.strings.intern("app.C");
    const SymbolId method = trace.strings.intern("m");
    const bool faulty = rng() % 4 == 0;

    std::vector<std::vector<bool>> open(threads); // true: dispatch
    TimeNs time = 0;
    const auto push = [&](EventType type, ThreadId thread) {
        TraceEvent event;
        event.type = type;
        event.thread = thread;
        event.time = time;
        event.kind = static_cast<IntervalKind>(rng() % 4);
        event.classSym = type == EventType::IntervalBegin ? cls : 0;
        event.methodSym = type == EventType::IntervalBegin ? method : 0;
        trace.events.push_back(event);
    };
    const std::size_t steps = 8 + rng() % 40;
    for (std::size_t i = 0; i < steps; ++i) {
        if (rng() % 4 == 0)
            ++time;
        const auto k = static_cast<ThreadId>(rng() % threads);
        switch (rng() % 5) {
          case 0:
            push(EventType::GcBegin, 0);
            time += rng() % 2;
            push(EventType::GcEnd, 0);
            break;
          case 1:
          case 2: {
            const bool dispatch = open[k].empty() && rng() % 2 == 0;
            push(dispatch ? EventType::DispatchBegin
                          : EventType::IntervalBegin,
                 k);
            open[k].push_back(dispatch);
            break;
          }
          default:
            if (open[k].empty())
                break;
            push(open[k].back() ? EventType::DispatchEnd
                                : EventType::IntervalEnd,
                 k);
            open[k].pop_back();
            break;
        }
    }
    for (std::size_t k = 0; k < threads; ++k) {
        while (!open[k].empty()) {
            time += rng() % 2;
            push(open[k].back() ? EventType::DispatchEnd
                                : EventType::IntervalEnd,
                 static_cast<ThreadId>(k));
            open[k].pop_back();
        }
    }
    // Each sample has one entry per roster thread.
    struct Drawn
    {
        TimeNs time = 0;
        std::vector<TraceThreadState> states;
    };
    std::vector<Drawn> drawn;
    for (std::size_t n = rng() % 8; n > 0; --n) {
        Drawn sample;
        sample.time = static_cast<TimeNs>(rng() % (time + 2));
        for (std::size_t k = 0; k < threads; ++k)
            sample.states.push_back(
                static_cast<TraceThreadState>(rng() % 4));
        drawn.push_back(std::move(sample));
    }
    std::sort(drawn.begin(), drawn.end(),
              [](const Drawn &a, const Drawn &b) {
                  return a.time < b.time;
              });
    for (const Drawn &sample : drawn) {
        trace.samples.addSample(sample.time);
        for (std::size_t k = 0; k < threads; ++k) {
            trace.samples.addEntry(trace.threads[k].id, sample.states[k]);
            trace.samples.addFrame(SampleFrame{cls, method});
        }
    }
    if (faulty && !trace.events.empty()) {
        TraceEvent &event = trace.events[rng() % trace.events.size()];
        switch (rng() % 3) {
          case 0: // a nesting fault
            event.type = event.type == EventType::IntervalEnd
                             ? EventType::DispatchEnd
                             : EventType::IntervalEnd;
            break;
          case 1: // a validation fault
            event.thread = 99;
            break;
          default: // an event the builder sees out of order
            event.time = time + 1;
            break;
        }
    }
    trace.meta.endTime = time + 1;
    return trace;
}

TEST(TraceFuzz, CoincidentTimestampsCutEveryEventLikeFromTrace)
{
    // Every prefix of each trace, fed one event (then one sample) at
    // a time: coincident timestamps are where a cut's provisional GC
    // placements, the settled prefix and episode ties can go wrong.
    for (std::uint64_t seed = 0; seed < 600; ++seed) {
        const Trace trace = coincidentTrace(seed);
        std::vector<std::size_t> eventCuts(trace.events.size() + 1);
        std::iota(eventCuts.begin(), eventCuts.end(), 0);
        std::vector<std::size_t> sampleCuts(trace.samples.size());
        std::iota(sampleCuts.begin(), sampleCuts.end(), 1);
        expectCutsMatchFromTrace(trace, eventCuts, sampleCuts);
        if (HasFatalFailure())
            FAIL() << "seed " << seed;
    }
}

TEST(TraceFuzz, StructuralMutantsBuildOrThrow)
{
    const test::ScratchDir dir("lagalyzer-cache-test-fuzz-structure");
    app::StudyConfig config = app::StudyConfig::quickStudy(3);
    config.sessionsPerApp = 1;
    config.cacheDir = dir.path;
    config.jobs = 2;
    app::Study study(config);
    std::vector<Trace> traces;
    for (const auto &paths : study.ensureTraces())
        traces.push_back(readTraceFile(paths[0]));
    ASSERT_FALSE(traces.empty());

    constexpr std::uint64_t kSeeds = 1400;
    std::size_t built = 0;
    std::size_t rejected = 0;
    const core::PatternMiner miner(msToNs(100));
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        std::mt19937_64 rng(seed);
        Trace mutant = traces[seed % traces.size()];
        const int mutations = 1 + static_cast<int>(rng() % 3);
        for (int m = 0; m < mutations; ++m)
            mutateEvents(mutant.events, rng);
        expectRandomCutsMatchFromTrace(mutant, rng);
        try {
            const core::Session session =
                core::Session::fromTrace(std::move(mutant));
            expectWellFormed(session);
            // Walk every accepted tree the way the analyses do.
            const std::size_t n = session.episodes().size();
            EXPECT_EQ(miner.mine(session).coveredEpisodes +
                          miner.mine(session).structurelessEpisodes,
                      n);
            core::countTriggers(session, 0, n, msToNs(100));
            core::countLocationTrees(session, 0, n, msToNs(100));
            core::countLocationSamples(session, 0, n, msToNs(100));
            ++built;
        } catch (const TraceError &) {
            ++rejected;
        }
        if (HasFatalFailure())
            FAIL() << "seed " << seed;
    }
    // The mutator must exercise both outcomes.
    EXPECT_GT(built, kSeeds / 20);
    EXPECT_GT(rejected, kSeeds / 20);
}

} // namespace
} // namespace lag::trace
