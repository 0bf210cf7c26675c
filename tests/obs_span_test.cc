/**
 * @file
 * Span recorder tests: the disabled path records nothing, the
 * enabled path publishes name/arg/duration, concurrent recording
 * and draining is race-free (this file carries the `engine` label
 * so the TSan leg covers it), a full ring overwrites its oldest
 * spans instead of blocking or dropping new ones, a walk racing a
 * wrapping ring reads only whole spans, and the Chrome-trace export
 * of real recorded spans passes the strict JSON + trace-shape
 * checker.
 *
 * Span rings are process-global, so tests count only their own
 * uniquely-named spans and never assume the rings start empty.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/flightrec.hh"
#include "obs/json_check.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"

namespace
{

using namespace lag;

/** Spans named @p name still in any thread's ring. */
std::size_t
countSpans(std::string_view name)
{
    std::size_t count = 0;
    obs::forEachSpan([&](const obs::SpanBuffer &,
                         const obs::SpanEvent &event) {
        if (event.name == name)
            ++count;
    });
    return count;
}

/** A copy of the first span named @p name, if any ring holds one. */
std::optional<obs::SpanEvent>
findSpan(std::string_view name)
{
    std::optional<obs::SpanEvent> found;
    obs::forEachSpan([&](const obs::SpanBuffer &,
                         const obs::SpanEvent &event) {
        if (!found && event.name == name)
            found = event;
    });
    return found;
}

/** The ring of the thread with id @p tid. */
const obs::SpanBuffer *
bufferOf(std::uint32_t tid)
{
    for (const obs::SpanBuffer *buffer = obs::firstSpanBuffer();
         buffer != nullptr; buffer = buffer->next()) {
        if (buffer->tid() == tid)
            return buffer;
    }
    return nullptr;
}

/** RAII guard so a failing test cannot leak spans-enabled state. */
struct SpansOn
{
    SpansOn() { obs::setSpansEnabled(true); }
    ~SpansOn() { obs::setSpansEnabled(false); }
};

TEST(ObsSpan, DisabledRecordsNothing)
{
    obs::setSpansEnabled(false);
    {
        LAG_SPAN("test.span.disabled");
    }
    EXPECT_EQ(countSpans("test.span.disabled"), 0u);
}

TEST(ObsSpan, EnabledPublishesNameArgAndDuration)
{
    const SpansOn on;
    {
        LAG_SPAN_ARG("test.span.basic", "bytes", 42);
    }
    const std::optional<obs::SpanEvent> event =
        findSpan("test.span.basic");
    ASSERT_TRUE(event.has_value());
    EXPECT_STREQ(event->argKey, "bytes");
    EXPECT_EQ(event->argValue, 42u);
    EXPECT_GE(event->durNs, 0);
    EXPECT_GE(event->startNs, 0);
}

TEST(ObsSpan, InternedNamePinsDynamicStrings)
{
    const std::string dynamic = "test.span.interned";
    const char *first = obs::internedName(dynamic);
    const char *second = obs::internedName(dynamic);
    EXPECT_EQ(first, second) << "same name must intern to one pointer";
    EXPECT_EQ(std::string_view(first), dynamic);
}

TEST(ObsSpan, ConcurrentRecordAndDrain)
{
    constexpr int kWriters = 4;
    constexpr int kSpansPerWriter = 1000;
    const SpansOn on;

    std::atomic<bool> stop{false};
    // Drainer: continuously walk the rings while writers record —
    // the stamped slots must make this race-free (the TSan engine
    // leg proves it).
    std::thread drainer([&stop] {
        std::size_t seen = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            obs::forEachSpan([&](const obs::SpanBuffer &,
                                 const obs::SpanEvent &event) {
                if (event.name != nullptr && event.durNs >= 0)
                    ++seen;
            });
        }
        EXPECT_GT(seen, 0u);
    });

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([] {
            for (int i = 0; i < kSpansPerWriter; ++i) {
                LAG_SPAN_ARG("test.span.concurrent", "i", i);
            }
        });
    }
    for (std::thread &writer : writers)
        writer.join();
    stop.store(true, std::memory_order_relaxed);
    drainer.join();

    // Each writer thread owns a fresh ring that never wraps, so
    // every span must be visible after the joins.
    EXPECT_EQ(countSpans("test.span.concurrent"),
              static_cast<std::size_t>(kWriters) * kSpansPerWriter);
}

TEST(ObsSpan, ChromeTraceExportIsValid)
{
    const SpansOn on;
    // A name that needs JSON escaping, pinned via the intern table.
    const char *awkward =
        obs::internedName("test.span \"quoted\\path\"");
    {
        obs::Span span(awkward, "items", 3);
    }
    {
        LAG_SPAN("test.span.golden");
    }
    const std::string json = obs::chromeTraceJson();
    const auto result = obs::checkChromeTrace(json);
    EXPECT_TRUE(result.ok)
        << "at byte " << result.errorOffset << ": " << result.message;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("test.span.golden"), std::string::npos);
    // The quote and backslash must arrive escaped.
    EXPECT_NE(json.find("test.span \\\"quoted\\\\path\\\""),
              std::string::npos)
        << json;
    // Thread-name metadata rides along for the timeline labels.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(ObsSpan, FullRingKeepsTheNewestSpans)
{
    const SpansOn on;
    const obs::TraceContext ctx = obs::mintTraceContext();
    constexpr std::size_t kFlood = obs::kSpanCapacity + 64;
    std::uint32_t tid = 0;
    // A fresh thread gets a fresh ring: wrap it, then record one
    // span under a request context, as a long-lived worker would.
    std::thread flooder([&] {
        tid = currentThreadId();
        for (std::size_t i = 0; i < kFlood; ++i) {
            LAG_SPAN_ARG("test.span.flood", "i", i);
        }
        obs::TraceContextScope scope(ctx);
        LAG_SPAN("test.span.after-flood");
    });
    flooder.join();

    const std::string tree = obs::spanTreeJson(ctx);
    EXPECT_NE(tree.find("test.span.after-flood"), std::string::npos)
        << tree;

    // The ring holds exactly the newest kSpanCapacity spans: the
    // first 65 flood spans (64 + room for the last one) are gone.
    const obs::SpanBuffer *buffer = bufferOf(tid);
    ASSERT_NE(buffer, nullptr);
    EXPECT_EQ(buffer->recorded(), kFlood + 1);
    EXPECT_EQ(buffer->overwritten(), 65u);
    std::uint64_t oldest = kFlood;
    std::size_t floods = 0;
    buffer->forEach([&](const obs::SpanEvent &event) {
        if (std::string_view(event.name) != "test.span.flood")
            return;
        ++floods;
        oldest = std::min(oldest, event.argValue);
    });
    EXPECT_EQ(floods, obs::kSpanCapacity - 1);
    EXPECT_EQ(oldest, 65u);
}

/** Names and arg keys of the wrap test's two span kinds: a torn read
 * would pair a name with the other kind's key or trace. */
constexpr const char *kWrapA = "test.span.wrap-a";
constexpr const char *kWrapB = "test.span.wrap-b";

TEST(ObsSpan, WalksRacingAWrappingRingReadWholeSpans)
{
    const SpansOn on;
    const obs::TraceContext ctx_a = obs::mintTraceContext();
    const obs::TraceContext ctx_b = obs::mintTraceContext();
    std::atomic<std::uint64_t> written{0};
    std::atomic<bool> readerDone{false};

    // Writer: alternate the two kinds until the ring has wrapped
    // twice and the reader has finished its walks.
    std::thread writer([&] {
        for (std::uint64_t i = 0;
             i < 2 * obs::kSpanCapacity ||
             !readerDone.load(std::memory_order_relaxed);
             ++i) {
            const bool a = i % 2 == 0;
            obs::TraceContextScope scope(a ? ctx_a : ctx_b);
            obs::Span span(a ? kWrapA : kWrapB, a ? "a" : "b", i);
            written.store(i + 1, std::memory_order_relaxed);
        }
    });

    // Reader: start once the ring is about to wrap, then export
    // while the writer keeps overwriting.
    while (written.load(std::memory_order_relaxed) <
           obs::kSpanCapacity - 1024)
        std::this_thread::yield();
    std::size_t chrome_spans = 0;
    std::size_t tree_spans = 0;
    for (int round = 0; round < 3; ++round) {
        std::istringstream lines(obs::chromeTraceJson());
        for (std::string line; std::getline(lines, line);) {
            const bool is_a = line.find(kWrapA) != std::string::npos;
            const bool is_b = line.find(kWrapB) != std::string::npos;
            if (!is_a && !is_b)
                continue;
            ++chrome_spans;
            EXPECT_EQ(line.find("\"dur\":-"), std::string::npos)
                << line;
            EXPECT_NE(line.find(is_a ? "{\"a\":" : "{\"b\":"),
                      std::string::npos)
                << line;
            EXPECT_NE(line.find(obs::traceIdHex(is_a ? ctx_a : ctx_b)),
                      std::string::npos)
                << line;
        }
        const std::string tree = obs::spanTreeJson(ctx_a);
        EXPECT_TRUE(obs::checkJson(tree).ok);
        std::size_t at = 0;
        while ((at = tree.find("{\"name\": ", at)) != std::string::npos) {
            at += 9;
            ++tree_spans;
            EXPECT_EQ(tree.compare(at, 18, "\"test.span.wrap-a\""), 0)
                << tree.substr(at, 40);
        }
        EXPECT_EQ(tree.find("\"dur_ns\": -"), std::string::npos);
    }
    readerDone.store(true, std::memory_order_relaxed);
    writer.join();
    EXPECT_GT(chrome_spans, 0u);
    EXPECT_GT(tree_spans, 0u);
}

} // namespace
