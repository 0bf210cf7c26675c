/**
 * @file
 * Tests for trace::TraceTailer: the incremental decode state
 * machine, the Truncated/Corrupt error-kind split, snapshot
 * closed-prefix semantics, and truncation/rewrite recovery.
 *
 * The load-bearing property is batch equivalence: at every byte
 * prefix of a trace file the tailer either waits (partial record)
 * or advances, never errors, and once the last byte lands its
 * snapshot re-serializes to exactly the original file bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/session.hh"
#include "trace/bytes.hh"
#include "trace/io.hh"
#include "trace/tailer.hh"
#include "trace_builder.hh"

namespace lag::trace
{
namespace
{

namespace fs = std::filesystem;

/** Self-cleaning scratch file for tailer runs. */
struct TailFile
{
    std::string path;

    explicit TailFile(std::string p) : path(std::move(p))
    {
        fs::remove(path);
    }

    ~TailFile() { fs::remove(path); }

    /** Overwrite the file with the first @p n bytes of @p bytes.
     * Rewriting the whole prefix (rather than appending) also
     * exercises the tailer's indifference to how bytes land, as
     * long as the consumed head stays intact. */
    void
    writePrefix(const std::string &bytes, std::size_t n) const
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(n));
    }
};

Trace
sampleTrace()
{
    test::TraceBuilder builder;
    builder.addThread("Worker-1");
    builder.listenerEpisode(msToNs(10), msToNs(60), "app.Button");
    builder.gc(msToNs(70), msToNs(90), TraceGcKind::Major);
    builder.listenerEpisode(msToNs(100), msToNs(240), "app.Menu");
    builder.sample(msToNs(12), TraceThreadState::Runnable);
    builder.sample(msToNs(110), TraceThreadState::Blocked,
                   "app.Menu", "actionPerformed");
    builder.sample(msToNs(200), TraceThreadState::Runnable);
    return builder.build(secToNs(1));
}

TEST(TraceTailerTest, ByteReaderUnderrunIsTruncatedKind)
{
    const std::string three = "abc";
    ByteReader r{std::string_view(three)};
    try {
        (void)r.u64();
        FAIL() << "u64 over 3 bytes must throw";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::Truncated);
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }
}

TEST(TraceTailerTest, StructuralDamageIsCorruptKind)
{
    // Bad magic is damage, not incompleteness: no later append can
    // heal the head of the file.
    std::string bad = serializeTrace(sampleTrace());
    bad[0] = 'X';
    try {
        (void)deserializeTrace(bad);
        FAIL() << "bad magic must throw";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::Corrupt);
    }
}

TEST(TraceTailerTest, EveryPrefixEitherWaitsOrAdvances)
{
    const Trace original = sampleTrace();
    const std::string bytes = serializeTrace(original);
    const TailFile file("tailer_test_prefix.lag");
    TraceTailer tailer(file.path);

    EXPECT_EQ(tailer.poll(), TailStatus::Waiting); // no file yet

    bool sessionBuilt = false;
    for (std::size_t n = 1; n <= bytes.size(); ++n) {
        file.writePrefix(bytes, n);
        const TailStatus status = tailer.poll();
        if (n < bytes.size()) {
            EXPECT_TRUE(status == TailStatus::Waiting ||
                        status == TailStatus::Advanced)
                << "prefix " << n << ": "
                << tailStatusName(status);
        } else {
            EXPECT_EQ(status, TailStatus::Complete);
        }
        EXPECT_LE(tailer.cursor(), n);
        EXPECT_EQ(tailer.knownSize(), n);
        EXPECT_EQ(tailer.backlogBytes(), n - tailer.cursor());
        if (tailer.decoded().analyzable() && !tailer.decoded().complete()) {
            // Mid-stream snapshots must always be sessionable:
            // the closed-prefix trim guarantees balanced events.
            core::Session session =
                core::Session::fromTrace(tailer.decoded().snapshot());
            EXPECT_EQ(session.meta().appName,
                      original.meta.appName);
            sessionBuilt = true;
        }
    }
    EXPECT_TRUE(sessionBuilt);
    EXPECT_TRUE(tailer.decoded().complete());
    EXPECT_EQ(tailer.cursor(), bytes.size());
    EXPECT_EQ(tailer.decoded().recordsDecoded(),
              original.threads.size() + original.strings.size() +
                  original.events.size() + original.samples.size());

    // The batch-equivalence contract: the finished snapshot
    // re-serializes to the original file bytes, bit for bit.
    EXPECT_EQ(serializeTrace(tailer.decoded().snapshot()), bytes);

    // Idle polls after completion stay Complete.
    EXPECT_EQ(tailer.poll(), TailStatus::Complete);
}

TEST(TraceTailerTest, OnePollOverMultiMegabyteTraceMatchesBatch)
{
    // One poll decodes a whole multi-MB file from a single carry
    // buffer. The decoder consumes records by offset and trims the
    // buffer once per poll; trimming it once per record would make
    // this poll quadratic in the file size.
    test::TraceBuilder builder;
    constexpr int kEpisodes = 40'000;
    for (int i = 0; i < kEpisodes; ++i) {
        const TimeNs begin = msToNs(10) * i;
        builder.listenerEpisode(begin + usToNs(100),
                                begin + msToNs(5),
                                "app.Widget" + std::to_string(i % 64));
        builder.sample(begin + msToNs(2), TraceThreadState::Runnable);
    }
    const std::string bytes =
        serializeTrace(builder.build(msToNs(10) * (kEpisodes + 1)));
    ASSERT_GT(bytes.size(), std::size_t{4} << 20);

    const TailFile file("tailer_test_multi_mb.lag");
    file.writePrefix(bytes, bytes.size());
    TraceTailer tailer(file.path);
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(tailer.poll(), TailStatus::Complete);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    // Linear decode takes milliseconds here, even instrumented; the
    // quadratic carry moved gigabytes and took tens of seconds.
    EXPECT_LT(elapsed, std::chrono::seconds(10));

    EXPECT_EQ(tailer.cursor(), bytes.size());
    EXPECT_EQ(tailer.backlogBytes(), 0u);
    const std::string streamed = serializeTrace(tailer.decoded().snapshot());
    EXPECT_EQ(streamed, serializeTrace(readTraceFile(file.path)));
    EXPECT_EQ(streamed, bytes);
}

TEST(TraceTailerTest, SnapshotBeforeAnalyzableThrowsTruncated)
{
    const std::string bytes = serializeTrace(sampleTrace());
    const TailFile file("tailer_test_early.lag");
    file.writePrefix(bytes, wire::kFileHeaderBytes);
    TraceTailer tailer(file.path);
    tailer.poll();
    EXPECT_FALSE(tailer.decoded().analyzable());
    try {
        (void)tailer.decoded().snapshot();
        FAIL() << "snapshot before analyzable must throw";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::Truncated);
    }
}

TEST(TraceTailerTest, IncompleteSnapshotClampsEndTime)
{
    const Trace original = sampleTrace();
    const std::string bytes = serializeTrace(original);
    const TailFile file("tailer_test_clamp.lag");
    TraceTailer tailer(file.path);
    // Find the first prefix where the tailer is analyzable but not
    // complete; its snapshot must not claim the declared endTime
    // (one full second) — only the span the records actually cover.
    for (std::size_t n = 1; n < bytes.size(); ++n) {
        file.writePrefix(bytes, n);
        tailer.poll();
        if (tailer.decoded().analyzable())
            break;
    }
    ASSERT_TRUE(tailer.decoded().analyzable());
    ASSERT_FALSE(tailer.decoded().complete());
    const Trace snap = tailer.decoded().snapshot();
    EXPECT_LT(snap.meta.endTime, original.meta.endTime);
}

TEST(TraceTailerTest, CorruptPayloadFailsChecksumAtCompletion)
{
    std::string bytes = serializeTrace(sampleTrace());
    // Flip one bit near the end of the payload. Record-level checks
    // may or may not notice (time fields accept anything), but the
    // incremental CRC32C fold must reject the file at completion.
    bytes[bytes.size() - 2] ^= 0x01;
    const TailFile file("tailer_test_corrupt.lag");
    file.writePrefix(bytes, bytes.size());
    TraceTailer tailer(file.path);
    try {
        while (!tailer.decoded().complete())
            tailer.poll();
        FAIL() << "corrupt payload must not complete";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::Corrupt);
    }
}

TEST(TraceTailerTest, ChecksumPassesAtEveryChunking)
{
    // The decoder folds the CRC32C once per poll, over the bytes it
    // consumed, in whatever pieces they arrive; the completion check
    // must pass whether they land one byte, seven bytes or 4 KiB at a
    // time.
    test::TraceBuilder builder;
    for (int i = 0; i < 120; ++i) {
        const TimeNs begin = msToNs(10) * i;
        builder.listenerEpisode(begin, begin + msToNs(4),
                                "app.C" + std::to_string(i % 7));
        builder.sample(begin + msToNs(1), TraceThreadState::Runnable);
    }
    const std::string bytes = serializeTrace(builder.build(secToNs(2)));
    ASSERT_GT(bytes.size(), 8192u);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4096}}) {
        const TailFile file("tailer_test_chunk_" +
                            std::to_string(chunk) + ".lag");
        TraceTailer tailer(file.path);
        for (std::size_t at = 0; at < bytes.size(); at += chunk) {
            {
                std::ofstream out(file.path,
                                  std::ios::binary | std::ios::app);
                out.write(bytes.data() + at,
                          static_cast<std::streamsize>(std::min(
                              chunk, bytes.size() - at)));
            }
            ASSERT_NO_THROW(tailer.poll())
                << "chunk " << chunk << " at byte " << at;
        }
        EXPECT_TRUE(tailer.decoded().complete()) << "chunk " << chunk;
        EXPECT_EQ(serializeTrace(tailer.decoded().snapshot()), bytes)
            << "chunk " << chunk;
    }
}

TEST(TraceTailerTest, TrailingGarbageAfterPayloadIsCorrupt)
{
    std::string bytes = serializeTrace(sampleTrace());
    bytes += "extra bytes no valid writer appends";
    const TailFile file("tailer_test_trailing.lag");
    file.writePrefix(bytes, bytes.size());
    TraceTailer tailer(file.path);
    try {
        tailer.poll();
        FAIL() << "trailing garbage must throw";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.kind(), TraceErrorKind::Corrupt);
        EXPECT_NE(std::string(e.what()).find("trailing"),
                  std::string::npos);
    }
}

TEST(TraceTailerTest, GrowthAfterCompletionIsCorrupt)
{
    const std::string bytes = serializeTrace(sampleTrace());
    const TailFile file("tailer_test_grow.lag");
    file.writePrefix(bytes, bytes.size());
    TraceTailer tailer(file.path);
    ASSERT_EQ(tailer.poll(), TailStatus::Complete);
    {
        std::ofstream out(file.path,
                          std::ios::binary | std::ios::app);
        out << "late garbage";
    }
    EXPECT_THROW(tailer.poll(), TraceError);
}

TEST(TraceTailerTest, RewriteRestartsAndConverges)
{
    const Trace first = sampleTrace();
    const std::string firstBytes = serializeTrace(first);

    test::TraceBuilder other;
    other.raw().meta.appName = "OtherApp";
    other.listenerEpisode(msToNs(5), msToNs(50), "other.Widget");
    other.sample(msToNs(20), TraceThreadState::Runnable);
    const Trace second = other.build(msToNs(500));
    const std::string secondBytes = serializeTrace(second);
    ASSERT_NE(firstBytes, secondBytes);

    const TailFile file("tailer_test_rewrite.lag");
    file.writePrefix(firstBytes, firstBytes.size());
    TraceTailer tailer(file.path);
    ASSERT_EQ(tailer.poll(), TailStatus::Complete);
    EXPECT_EQ(tailer.restarts(), 0u);

    // Atomically replace the trace with a different one: the head
    // fingerprint no longer matches, so the tailer must reset and
    // re-read rather than report trailing garbage or stale data.
    file.writePrefix(secondBytes, secondBytes.size());
    EXPECT_EQ(tailer.poll(), TailStatus::Restarted);
    EXPECT_EQ(tailer.restarts(), 1u);
    // The restart poll already consumed the new file's bytes.
    EXPECT_EQ(tailer.poll(), TailStatus::Complete);
    EXPECT_EQ(serializeTrace(tailer.decoded().snapshot()), secondBytes);
    EXPECT_EQ(tailer.decoded().meta().appName, "OtherApp");
}

TEST(TraceTailerTest, TruncationBelowCursorRestarts)
{
    const std::string bytes = serializeTrace(sampleTrace());
    const TailFile file("tailer_test_shrink.lag");
    file.writePrefix(bytes, bytes.size());
    TraceTailer tailer(file.path);
    ASSERT_EQ(tailer.poll(), TailStatus::Complete);

    // Shrink the file below the consumed cursor: the tailer must
    // notice the loss, reset, and resume from the fresh prefix.
    file.writePrefix(bytes, bytes.size() / 2);
    EXPECT_EQ(tailer.poll(), TailStatus::Restarted);
    EXPECT_GE(tailer.restarts(), 1u);
    EXPECT_FALSE(tailer.decoded().complete());

    // Grow it back to the full trace; the tailer converges again.
    file.writePrefix(bytes, bytes.size());
    EXPECT_EQ(tailer.poll(), TailStatus::Complete);
    EXPECT_EQ(serializeTrace(tailer.decoded().snapshot()), bytes);
}

TEST(TraceTailerTest, CursorResumeSurvivesNewTailerInstance)
{
    // Kill-and-resume at the tailer level: a fresh instance re-reads
    // from byte zero and lands on the same final snapshot, no
    // matter where the previous instance stopped.
    const std::string bytes = serializeTrace(sampleTrace());
    const TailFile file("tailer_test_resume.lag");
    file.writePrefix(bytes, bytes.size() / 3);
    {
        TraceTailer dying(file.path);
        dying.poll();
        EXPECT_FALSE(dying.decoded().complete());
    }
    file.writePrefix(bytes, bytes.size());
    TraceTailer resumed(file.path);
    EXPECT_EQ(resumed.poll(), TailStatus::Complete);
    EXPECT_EQ(serializeTrace(resumed.decoded().snapshot()), bytes);
}

} // namespace
} // namespace lag::trace
