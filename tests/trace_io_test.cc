/**
 * @file
 * Tests for the binary trace codec: round trips, corruption
 * detection, string table behaviour and the JSONL export.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "trace/io.hh"
#include "trace_builder.hh"
#include "util/hash.hh"
#include "util/random.hh"

namespace lag::trace
{
namespace
{

Trace
sampleTrace()
{
    test::TraceBuilder builder;
    builder.addThread("Worker-1");
    builder.dispatchBegin(msToNs(10))
        .intervalBegin(msToNs(11), IntervalKind::Listener, "app.A",
                       "act")
        .intervalEnd(msToNs(19), IntervalKind::Listener)
        .dispatchEnd(msToNs(20));
    builder.gc(msToNs(30), msToNs(45), TraceGcKind::Major);
    builder.sample(msToNs(12), TraceThreadState::Runnable);
    builder.sample(msToNs(15), TraceThreadState::Blocked, "app.A",
                   "act");
    Trace trace = builder.build(secToNs(1));
    trace.meta.filteredShortEpisodes = 1234;
    trace.meta.totalInEpisodeTime = msToNs(42);
    trace.meta.seed = 0xfeed;
    return trace;
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.meta.appName, b.meta.appName);
    EXPECT_EQ(a.meta.sessionIndex, b.meta.sessionIndex);
    EXPECT_EQ(a.meta.seed, b.meta.seed);
    EXPECT_EQ(a.meta.startTime, b.meta.startTime);
    EXPECT_EQ(a.meta.endTime, b.meta.endTime);
    EXPECT_EQ(a.meta.samplePeriod, b.meta.samplePeriod);
    EXPECT_EQ(a.meta.filterThreshold, b.meta.filterThreshold);
    EXPECT_EQ(a.meta.filteredShortEpisodes,
              b.meta.filteredShortEpisodes);
    EXPECT_EQ(a.meta.totalInEpisodeTime, b.meta.totalInEpisodeTime);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t i = 0; i < a.threads.size(); ++i) {
        EXPECT_EQ(a.threads[i].id, b.threads[i].id);
        EXPECT_EQ(a.threads[i].name, b.threads[i].name);
        EXPECT_EQ(a.threads[i].isGui, b.threads[i].isGui);
    }
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].type, b.events[i].type);
        EXPECT_EQ(a.events[i].thread, b.events[i].thread);
        EXPECT_EQ(a.events[i].time, b.events[i].time);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].classSym, b.events[i].classSym);
        EXPECT_EQ(a.events[i].methodSym, b.events[i].methodSym);
        EXPECT_EQ(a.events[i].gcKind, b.events[i].gcKind);
    }
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].time, b.samples[i].time);
        ASSERT_EQ(a.samples[i].threads.size(),
                  b.samples[i].threads.size());
        for (std::size_t t = 0; t < a.samples[i].threads.size(); ++t) {
            EXPECT_EQ(a.samples[i].threads[t].state,
                      b.samples[i].threads[t].state);
            EXPECT_EQ(a.samples[i].threads[t].frames.size(),
                      b.samples[i].threads[t].frames.size());
        }
    }
    ASSERT_EQ(a.strings.size(), b.strings.size());
    for (SymbolId s = 0; s < a.strings.size(); ++s)
        EXPECT_EQ(a.strings.lookup(s), b.strings.lookup(s));
}

TEST(TraceIoTest, RoundTripInMemory)
{
    const Trace original = sampleTrace();
    const std::string bytes = serializeTrace(original);
    const Trace parsed = deserializeTrace(bytes);
    expectTracesEqual(original, parsed);
}

TEST(TraceIoTest, RoundTripThroughFile)
{
    const std::string path = "test_trace_roundtrip.lag";
    const Trace original = sampleTrace();
    writeTraceFile(original, path);
    const Trace parsed = readTraceFile(path);
    expectTracesEqual(original, parsed);
    std::filesystem::remove(path);
}

TEST(TraceIoTest, EmptyTraceRoundTrips)
{
    test::TraceBuilder builder;
    const Trace original = builder.build(0);
    const Trace parsed = deserializeTrace(serializeTrace(original));
    expectTracesEqual(original, parsed);
}

TEST(TraceIoTest, BadMagicRejected)
{
    std::string bytes = serializeTrace(sampleTrace());
    bytes[0] = 'X';
    EXPECT_THROW(deserializeTrace(bytes), TraceError);
}

TEST(TraceIoTest, WrongVersionRejected)
{
    std::string bytes = serializeTrace(sampleTrace());
    bytes[8] = static_cast<char>(kFormatVersion + 1);
    EXPECT_THROW(deserializeTrace(bytes), TraceError);
}

TEST(TraceIoTest, ChecksumIsZeroExtendedCrc32c)
{
    // The u64 checksum field at offset 12 holds the payload's CRC32C
    // in its low half; its high half is zero, and a nonzero high
    // half is a mismatch even when the low half is right.
    std::string bytes = serializeTrace(sampleTrace());
    Crc32cHasher hasher;
    hasher.addBytes(bytes.data() + 20, bytes.size() - 20);
    std::uint64_t field = 0;
    std::memcpy(&field, bytes.data() + 12, sizeof(field));
    EXPECT_EQ(field, hasher.digest());
    bytes[19] = 0x01;
    try {
        (void)deserializeTrace(bytes);
        FAIL() << "nonzero high checksum bits must not decode";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceIoTest, FlippedPayloadByteDetectedByChecksum)
{
    std::string bytes = serializeTrace(sampleTrace());
    bytes[bytes.size() / 2] ^= 0x40;
    EXPECT_THROW(deserializeTrace(bytes), TraceError);
}

TEST(TraceIoTest, TruncationDetected)
{
    const std::string bytes = serializeTrace(sampleTrace());
    for (const std::size_t keep :
         {bytes.size() - 1, bytes.size() / 2, std::size_t{10},
          std::size_t{0}}) {
        EXPECT_THROW(deserializeTrace(bytes.substr(0, keep)),
                     TraceError)
            << "kept " << keep << " bytes";
    }
}

TEST(TraceIoTest, TrailingGarbageDetected)
{
    std::string bytes = serializeTrace(sampleTrace());
    bytes += "extra";
    EXPECT_THROW(deserializeTrace(bytes), TraceError);
}

TEST(TraceIoTest, MissingFileThrows)
{
    EXPECT_THROW(readTraceFile("/nonexistent/dir/file.lag"),
                 TraceError);
}

TEST(StringTableTest, InternDeduplicates)
{
    StringTable table;
    const SymbolId a = table.intern("hello");
    const SymbolId b = table.intern("world");
    const SymbolId c = table.intern("hello");
    EXPECT_EQ(a, c);
    EXPECT_NE(a, b);
    EXPECT_EQ(table.lookup(a), "hello");
}

TEST(StringTableTest, EmptyStringIsZero)
{
    StringTable table;
    EXPECT_EQ(table.intern(""), 0u);
    EXPECT_EQ(table.lookup(0), "");
}

TEST(StringTableTest, LookupOutOfRangeThrows)
{
    StringTable table;
    EXPECT_THROW(table.lookup(99), TraceError);
}

TEST(StringTableTest, FromListValidatesHead)
{
    EXPECT_THROW(StringTable::fromList({"not-empty"}), TraceError);
    EXPECT_THROW(StringTable::fromList({}), TraceError);
    const StringTable table = StringTable::fromList({"", "a", "b"});
    EXPECT_EQ(table.lookup(2), "b");
}

TEST(TraceValidateTest, OutOfOrderEventsRejected)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(msToNs(20)).dispatchEnd(msToNs(30));
    Trace trace = builder.build(secToNs(1));
    std::swap(trace.events[0], trace.events[1]);
    EXPECT_THROW(trace.validate(), TraceError);
}

TEST(TraceValidateTest, UnknownThreadRejected)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(10, /*thread=*/7);
    Trace trace = builder.build(secToNs(1));
    EXPECT_THROW(trace.validate(), TraceError);
}

TEST(TraceValidateTest, EndBeforeStartRejected)
{
    test::TraceBuilder builder;
    Trace trace = builder.build(0);
    trace.meta.startTime = 100;
    trace.meta.endTime = 50;
    EXPECT_THROW(trace.validate(), TraceError);
}

TEST(TraceIoTest, JsonlContainsRecords)
{
    const std::string jsonl = toJsonl(sampleTrace());
    EXPECT_NE(jsonl.find("\"record\":\"meta\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"record\":\"thread\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"record\":\"event\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"record\":\"sample\""), std::string::npos);
    EXPECT_NE(jsonl.find("app.A"), std::string::npos);
    EXPECT_NE(jsonl.find("\"gc\":\"major\""), std::string::npos);
}

/** Property sweep: randomized traces round-trip bit-exactly. */
class RandomTraceRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomTraceRoundTrip, Stable)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    test::TraceBuilder builder;
    const int extra_threads = static_cast<int>(rng.uniformInt(0, 3));
    for (int t = 0; t < extra_threads; ++t)
        builder.addThread("T" + std::to_string(t));
    TimeNs now = 0;
    const int episodes = static_cast<int>(rng.uniformInt(1, 40));
    for (int e = 0; e < episodes; ++e) {
        now += rng.uniformInt(1, msToNs(5));
        const TimeNs begin = now;
        builder.dispatchBegin(begin);
        const int depth = static_cast<int>(rng.uniformInt(0, 4));
        TimeNs t = begin;
        for (int d = 0; d < depth; ++d) {
            t += rng.uniformInt(1, usToNs(100));
            // append(), not `"c" + std::to_string(...)`: GCC 12 at
            // -O3 raises a false -Wrestrict on the latter.
            builder.intervalBegin(
                t,
                static_cast<IntervalKind>(rng.uniformInt(0, 3)),
                std::string("c").append(
                    std::to_string(rng.uniformInt(0, 5))),
                std::string("m").append(
                    std::to_string(rng.uniformInt(0, 5))));
        }
        TimeNs end = t + rng.uniformInt(usToNs(100), msToNs(20));
        for (int d = depth - 1; d >= 0; --d) {
            builder.intervalEnd(end, IntervalKind::Listener);
            end += rng.uniformInt(1, usToNs(50));
        }
        builder.dispatchEnd(end);
        now = end;
        if (rng.chance(0.3)) {
            builder.sample(begin + 1,
                           static_cast<TraceThreadState>(
                               rng.uniformInt(0, 3)));
        }
    }
    Trace original = builder.build(now + msToNs(1));
    const std::string bytes = serializeTrace(original);
    const Trace parsed = deserializeTrace(bytes);
    expectTracesEqual(original, parsed);
    // Re-serialization must be byte-identical (stable format).
    EXPECT_EQ(serializeTrace(parsed), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraceRoundTrip,
                         ::testing::Range(1, 13));

} // namespace
} // namespace lag::trace
