/**
 * @file
 * MetricsRegistry unit tests: histogram bucket-edge semantics
 * (zero, inclusive bounds, overflow), gauge high-water tracking,
 * dump determinism (sorted, stable) and JSON validity of the
 * --metrics-out format, plus the strict JSON checker itself.
 *
 * The registry is the process-wide singleton — instruments from
 * other tests in this binary coexist, so every test uses its own
 * `test.`-prefixed names and asserts on those, never on the whole
 * dump.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/json_check.hh"
#include "obs/metrics.hh"

namespace
{

using lag::obs::metrics;

TEST(ObsCounter, AccumulatesDeltas)
{
    auto &counter = metrics().counter("test.counter.acc");
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    // Find-or-create returns the same instrument.
    EXPECT_EQ(&metrics().counter("test.counter.acc"), &counter);
    EXPECT_EQ(metrics().counter("test.counter.acc").value(), 42u);
}

TEST(ObsGauge, TracksLevelAndHighWater)
{
    auto &gauge = metrics().gauge("test.gauge.hw");
    gauge.set(5);
    gauge.set(3);
    EXPECT_EQ(gauge.value(), 3);
    EXPECT_EQ(gauge.max(), 5);
    gauge.updateMax(10); // raise the mark without moving the level
    EXPECT_EQ(gauge.value(), 3);
    EXPECT_EQ(gauge.max(), 10);
    gauge.updateMax(2); // never lowers
    EXPECT_EQ(gauge.max(), 10);
}

TEST(ObsHistogram, BucketEdges)
{
    auto &hist = metrics().histogram("test.hist.edges", {10, 100});
    hist.record(0);   // below everything: first bucket
    hist.record(10);  // == first bound: still first bucket (inclusive)
    hist.record(11);  // just past: second bucket
    hist.record(100); // == last bound: last real bucket, NOT overflow
    hist.record(101); // past every bound: overflow
    EXPECT_EQ(hist.bucketCount(0), 2u);
    EXPECT_EQ(hist.bucketCount(1), 2u);
    EXPECT_EQ(hist.bucketCount(2), 1u); // overflow slot
    EXPECT_EQ(hist.count(), 5u);
    EXPECT_EQ(hist.sum(), 0 + 10 + 11 + 100 + 101);
}

TEST(ObsHistogram, ReRegistrationReturnsSameInstrument)
{
    auto &first = metrics().histogram("test.hist.rereg", {1, 2, 3});
    auto &second = metrics().histogram("test.hist.rereg", {1, 2, 3});
    EXPECT_EQ(&first, &second);
}

TEST(ObsSnapshot, LookupsDefaultToZeroWhenAbsent)
{
    metrics().counter("test.snap.present").add(7);
    metrics().gauge("test.snap.gauge").set(9);
    const auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counterValue("test.snap.present"), 7u);
    EXPECT_EQ(snap.counterValue("test.snap.no-such-name"), 0u);
    EXPECT_EQ(snap.gaugeMax("test.snap.gauge"), 9);
    EXPECT_EQ(snap.gaugeMax("test.snap.no-such-name"), 0);
}

TEST(ObsDump, TextIsSortedAndStable)
{
    metrics().counter("test.dump.zzz").add(1);
    metrics().counter("test.dump.aaa").add(2);
    const std::string text = metrics().dumpText();
    const auto a = text.find("test.dump.aaa");
    const auto z = text.find("test.dump.zzz");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    EXPECT_LT(a, z) << "dump must sort by name";
    // Deterministic: a second dump with no metric activity in
    // between is byte-identical.
    EXPECT_EQ(text, metrics().dumpText());
}

TEST(ObsDump, JsonIsWellFormed)
{
    // Exercise every instrument kind, then strict-check the dump.
    metrics().counter("test.dump.json.counter").add(3);
    metrics().gauge("test.dump.json.gauge").set(-4);
    metrics().histogram("test.dump.json.hist", {5, 50}).record(6);
    const std::string json = metrics().dumpJson();
    const auto result = lag::obs::checkJson(json);
    EXPECT_TRUE(result.ok) << "at byte " << result.errorOffset << ": "
                           << result.message << "\n"
                           << json;
    EXPECT_NE(json.find("\"test.dump.json.counter\": 3"),
              std::string::npos)
        << json;
}

TEST(ObsDump, JsonEscapesControlBytesInLabels)
{
    // A label value keeps \t and \r raw in the registry key; the
    // JSON dump writes them as short escapes.
    metrics().counter("test.dump.json.ctl", "v", "a\tb\rc").add(1);
    const std::string json = metrics().dumpJson();
    EXPECT_TRUE(lag::obs::checkJson(json).ok) << json;
    EXPECT_NE(json.find("\"test.dump.json.ctl{v=\\\"a\\tb\\rc\\\"}\": 1"),
              std::string::npos)
        << json;
}

TEST(ObsSummary, NamesNonzeroCounters)
{
    metrics().counter("test.summary.hits").add(12);
    const std::string line = metrics().summaryLine();
    EXPECT_NE(line.find("test.summary.hits=12"), std::string::npos)
        << line;
}

TEST(JsonCheck, AcceptsWellFormedValues)
{
    for (const char *text :
         {"{}", "[]", "null", "-12.5e3", "\"esc \\\" \\\\ \\u0041\"",
          "{\"a\": [1, 2.5, true, null, \"s\\n\"], \"b\": {}}"}) {
        EXPECT_TRUE(lag::obs::checkJson(text).ok) << text;
    }
}

TEST(JsonCheck, RejectsMalformedValues)
{
    for (const char *text :
         {"", "{", "[1 2]", "{\"a\":}", "{\"a\" 1}", "nope",
          "{} trailing", "\"unterminated", "{\"a\":1,}"}) {
        EXPECT_FALSE(lag::obs::checkJson(text).ok) << text;
    }
}

TEST(JsonCheck, ChromeShapeRequiresTraceEventsArray)
{
    EXPECT_TRUE(lag::obs::checkChromeTrace(
                    "{\"traceEvents\": [{\"ph\": \"X\"}]}")
                    .ok);
    // Well-formed JSON but not a Chrome trace.
    EXPECT_FALSE(lag::obs::checkChromeTrace("[1, 2]").ok);
    EXPECT_FALSE(
        lag::obs::checkChromeTrace("{\"traceEvents\": 3}").ok);
    EXPECT_FALSE(lag::obs::checkChromeTrace("{\"events\": []}").ok);
}

} // namespace
