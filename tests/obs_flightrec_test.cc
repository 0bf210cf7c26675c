/**
 * @file
 * Flight-recorder tests: configure-once semantics, the bounded
 * request/event rings (wrap, most-recent-first reads), live JSON
 * and crash-dump output both passing the strict flightrec shape
 * checker and showing each thread's newest spans, the
 * /debugz/requests trace filter, and the per-request span tree
 * (containment nesting across scopes).
 *
 * The recorder is a process-wide singleton configured on first call,
 * so every test funnels through configuredRecorder() — whichever
 * test runs first (or alone, under ctest's per-case processes) arms
 * the same small rings.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flightrec.hh"
#include "obs/json_check.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"
#include "util/shutdown.hh"
#include "util/thread_name.hh"

namespace
{

using namespace lag;

/** The crash-dump path, one per process: ctest runs the dumping
 * cases as concurrent processes in one directory, and each removes
 * its dump when done. */
const std::string &
dumpPath()
{
    static const std::string path = "lagalyzer-flightrec-test-" +
                                    std::to_string(::getpid()) +
                                    ".flightrec";
    return path;
}

/** Configure (first call wins) and return the recorder. */
obs::FlightRecorder &
configuredRecorder()
{
    obs::FlightRecorderOptions options;
    options.eventCapacity = 8;
    options.requestCapacity = 4;
    options.dumpPath = dumpPath();
    obs::FlightRecorder::instance().configure(options);
    return obs::FlightRecorder::instance();
}

/** RAII guard so a failing test cannot leak spans-enabled state. */
struct SpansOn
{
    SpansOn() { obs::setSpansEnabled(true); }
    ~SpansOn() { obs::setSpansEnabled(false); }
};

obs::RequestSummary
makeRequest(const std::string &target,
            const obs::TraceContext &ctx, int status = 200)
{
    obs::RequestSummary summary;
    summary.method = "GET";
    summary.target = target;
    summary.trace = ctx;
    summary.startNs = processElapsedNs();
    summary.durUs = 42;
    summary.status = status;
    return summary;
}

TEST(Flightrec, ConfigureFirstCallWins)
{
    obs::FlightRecorder &rec = configuredRecorder();
    EXPECT_TRUE(rec.armed());
    EXPECT_EQ(obs::armedFlightRecorder(), &rec);
    EXPECT_EQ(rec.dumpPath(), dumpPath());

    // A second configure with different options must be ignored:
    // rings never reallocate under concurrent writers.
    obs::FlightRecorderOptions other;
    other.requestCapacity = 999;
    other.dumpPath = "somewhere-else.flightrec";
    rec.configure(other);
    EXPECT_EQ(rec.dumpPath(), dumpPath());
}

TEST(Flightrec, RequestRingKeepsMostRecentFirst)
{
    obs::FlightRecorder &rec = configuredRecorder();
    for (int i = 0; i < 6; ++i)
        rec.recordRequest(makeRequest(
            "/ring-wrap-" + std::to_string(i),
            obs::mintTraceContext()));

    const std::vector<obs::RequestSummary> recent =
        rec.recentRequests();
    ASSERT_EQ(recent.size(), 4u); // ring capacity
    EXPECT_EQ(recent[0].target, "/ring-wrap-5");
    EXPECT_EQ(recent[1].target, "/ring-wrap-4");
    EXPECT_EQ(recent[3].target, "/ring-wrap-2");
    EXPECT_EQ(recent[0].status, 200);
    EXPECT_TRUE(recent[0].trace.active());
}

TEST(Flightrec, RequestsJsonFilterSelectsOneTraceWithItsSpans)
{
    obs::FlightRecorder &rec = configuredRecorder();
    const SpansOn on;

    const obs::TraceContext wanted = obs::mintTraceContext();
    const obs::TraceContext other = obs::mintTraceContext();
    {
        obs::TraceContextScope scope(wanted);
        LAG_SPAN("test.flightrec.filtered-span");
    }
    rec.recordRequest(makeRequest("/filter-wanted", wanted));
    rec.recordRequest(makeRequest("/filter-other", other, 404));

    const std::string all = rec.requestsJson(nullptr);
    EXPECT_TRUE(obs::checkJson(all).ok) << all;
    EXPECT_NE(all.find("/filter-wanted"), std::string::npos);
    EXPECT_NE(all.find("/filter-other"), std::string::npos);

    const std::string filtered = rec.requestsJson(&wanted);
    EXPECT_TRUE(obs::checkJson(filtered).ok) << filtered;
    EXPECT_NE(filtered.find("/filter-wanted"), std::string::npos);
    EXPECT_EQ(filtered.find("/filter-other"), std::string::npos);
    EXPECT_NE(filtered.find(obs::traceIdHex(wanted)),
              std::string::npos);
    // The filtered view carries the request's span tree.
    EXPECT_NE(filtered.find("\"spans\""), std::string::npos);
    EXPECT_NE(filtered.find("test.flightrec.filtered-span"),
              std::string::npos);
}

TEST(Flightrec, EventRingWrapsAndLiveJsonStaysValid)
{
    obs::FlightRecorder &rec = configuredRecorder();
    for (int i = 0; i < 20; ++i)
        rec.recordEvent("test-flightrec-wrap-event",
                        "detail-a", "detail-b");
    rec.recordEvent("test-flightrec-last-event");

    const std::string live = rec.liveJson();
    const obs::JsonCheckResult result = obs::checkFlightrec(live);
    EXPECT_TRUE(result.ok)
        << result.message << " at byte " << result.errorOffset
        << "\n" << live;
    EXPECT_NE(live.find("test-flightrec-last-event"),
              std::string::npos);
    EXPECT_NE(live.find("\"flightrec\""), std::string::npos);
}

TEST(Flightrec, SpanTreeNestsByContainment)
{
    configuredRecorder();
    const SpansOn on;
    const obs::TraceContext ctx = obs::mintTraceContext();
    {
        obs::TraceContextScope scope(ctx);
        LAG_SPAN("test.flightrec.tree-outer");
        {
            LAG_SPAN("test.flightrec.tree-inner");
        }
    }

    const std::string json = obs::spanTreeJson(ctx);
    EXPECT_TRUE(obs::checkJson(json).ok) << json;
    EXPECT_NE(json.find(obs::traceIdHex(ctx)), std::string::npos);
    const std::size_t outer =
        json.find("test.flightrec.tree-outer");
    const std::size_t inner =
        json.find("test.flightrec.tree-inner");
    ASSERT_NE(outer, std::string::npos);
    ASSERT_NE(inner, std::string::npos);
    // The outer span sorts first (earlier start) at depth 0; the
    // contained span nests at depth 1.
    EXPECT_LT(outer, inner);
    EXPECT_NE(json.find("\"depth\": 0"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"depth\": 1"), std::string::npos)
        << json;

    const std::string text = obs::spanTreeText(ctx);
    EXPECT_NE(text.find("test.flightrec.tree-outer"),
              std::string::npos);
    EXPECT_NE(text.find("  test.flightrec.tree-inner"),
              std::string::npos);
}

TEST(Flightrec, SpansReachTheRingEvenWithoutContext)
{
    configuredRecorder();
    const SpansOn on;
    {
        LAG_SPAN("test.flightrec.ringfeed");
    }
    const std::string live =
        obs::FlightRecorder::instance().liveJson();
    EXPECT_NE(live.find("test.flightrec.ringfeed"),
              std::string::npos)
        << live;
}

/** Occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++count;
    return count;
}

TEST(Flightrec, LiveJsonAndCrashDumpShowEachThreadsNewestSpans)
{
    obs::FlightRecorder &rec = configuredRecorder();
    const SpansOn on;
    std::thread recorder([] {
        for (int i = 0; i < 10; ++i) {
            LAG_SPAN("test.flightrec.older");
        }
        for (std::size_t i = 0; i < obs::FlightRecorder::kSpansPerThread;
             ++i) {
            LAG_SPAN("test.flightrec.newest");
        }
    });
    recorder.join();

    const std::string live = rec.liveJson();
    EXPECT_TRUE(obs::checkFlightrec(live).ok);
    EXPECT_EQ(countOf(live, "test.flightrec.newest"),
              obs::FlightRecorder::kSpansPerThread);
    EXPECT_EQ(countOf(live, "test.flightrec.older"), 0u);

    ASSERT_TRUE(rec.dumpToPath(0));
    std::ifstream in(rec.dumpPath(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string dump = buffer.str();
    std::remove(rec.dumpPath());
    EXPECT_TRUE(obs::checkFlightrec(dump).ok);
    EXPECT_EQ(countOf(dump, "test.flightrec.newest"),
              obs::FlightRecorder::kSpansPerThread);
    EXPECT_EQ(countOf(dump, "test.flightrec.older"), 0u);
}

TEST(Flightrec, DumpToPathWritesValidCrashDump)
{
    obs::FlightRecorder &rec = configuredRecorder();
    const obs::TraceContext ctx = obs::mintTraceContext();
    rec.recordRequest(makeRequest("/crash-dump-req", ctx, 500));
    noteFatal("test-fatal-cause", "detail-one", "detail-two");

    ASSERT_TRUE(rec.dumpToPath(6));

    std::ifstream in(rec.dumpPath(), std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string dump = buffer.str();
    std::remove(rec.dumpPath());

    const obs::JsonCheckResult result = obs::checkFlightrec(dump);
    EXPECT_TRUE(result.ok)
        << result.message << " at byte " << result.errorOffset
        << "\n" << dump;
    EXPECT_NE(dump.find("\"signal\": 6"), std::string::npos);
    EXPECT_NE(dump.find("/crash-dump-req"), std::string::npos);
    EXPECT_NE(dump.find(obs::traceIdHex(ctx)), std::string::npos);
    EXPECT_NE(dump.find("test-fatal-cause"), std::string::npos);
}

} // namespace
