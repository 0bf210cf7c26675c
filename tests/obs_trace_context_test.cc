/**
 * @file
 * Trace-context tests: minting (never-zero, unique), the hex
 * round-trip, scope install/restore, and context propagation
 * through every engine fan-out path (ThreadPool::submit, nested
 * submits, parallelFor) so spans recorded on pool workers carry the
 * submitting request's id all the way into the Chrome-trace export.
 *
 * Span rings are process-global, so tests use uniquely named spans
 * and never assume the rings start empty.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "engine/pool.hh"
#include "obs/chrome_trace.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"

namespace
{

using namespace lag;

/** RAII guard so a failing test cannot leak spans-enabled state. */
struct SpansOn
{
    SpansOn() { obs::setSpansEnabled(true); }
    ~SpansOn() { obs::setSpansEnabled(false); }
};

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

TEST(TraceContext, MintedIdsAreActiveAndUnique)
{
    std::set<std::string> seen;
    for (int i = 0; i < 100; ++i) {
        const obs::TraceContext ctx = obs::mintTraceContext();
        EXPECT_TRUE(ctx.active());
        seen.insert(obs::traceIdHex(ctx));
    }
    EXPECT_EQ(seen.size(), 100u);
}

TEST(TraceContext, HexRoundTrip)
{
    const obs::TraceContext ctx = obs::mintTraceContext();
    const std::string hex = obs::traceIdHex(ctx);
    EXPECT_EQ(hex.size(), 32u);
    for (const char c : hex)
        EXPECT_TRUE((c >= '0' && c <= '9') ||
                    (c >= 'a' && c <= 'f'))
            << hex;

    obs::TraceContext parsed;
    ASSERT_TRUE(obs::parseTraceIdHex(hex, parsed));
    EXPECT_EQ(parsed, ctx);

    // Anything that is not exactly 32 hex chars is rejected.
    EXPECT_FALSE(obs::parseTraceIdHex("", parsed));
    EXPECT_FALSE(obs::parseTraceIdHex(hex.substr(1), parsed));
    EXPECT_FALSE(obs::parseTraceIdHex(hex + "0", parsed));
    std::string bad = hex;
    bad[7] = 'z';
    EXPECT_FALSE(obs::parseTraceIdHex(bad, parsed));
}

TEST(TraceContext, ScopeInstallsAndRestores)
{
    EXPECT_FALSE(obs::currentTraceContext().active());
    const obs::TraceContext outer = obs::mintTraceContext();
    {
        obs::TraceContextScope outer_scope(outer);
        EXPECT_EQ(obs::currentTraceContext(), outer);
        const obs::TraceContext inner = obs::mintTraceContext();
        {
            obs::TraceContextScope inner_scope(inner);
            EXPECT_EQ(obs::currentTraceContext(), inner);
        }
        EXPECT_EQ(obs::currentTraceContext(), outer);
    }
    EXPECT_FALSE(obs::currentTraceContext().active());
}

TEST(TraceContext, SubmitPropagatesContextToWorkers)
{
    const obs::TraceContext ctx = obs::mintTraceContext();
    std::atomic<bool> matched{false};
    std::atomic<bool> inactive{false};
    {
        engine::ThreadPool pool(2);
        {
            obs::TraceContextScope scope(ctx);
            pool.submit([&matched, ctx] {
                matched.store(obs::currentTraceContext() == ctx);
            });
        }
        // Without a context at submit time the worker sees none.
        pool.submit([&inactive] {
            inactive.store(!obs::currentTraceContext().active());
        });
    } // the destructor drains both tasks
    EXPECT_TRUE(matched.load());
    EXPECT_TRUE(inactive.load());
}

TEST(TraceContext, ParallelForInheritsContext)
{
    engine::ThreadPool pool(3);
    const obs::TraceContext ctx = obs::mintTraceContext();
    constexpr std::size_t kCount = 64;
    std::vector<int> matched(kCount, 0);
    {
        obs::TraceContextScope scope(ctx);
        engine::parallelFor(pool, kCount,
                            [&matched, ctx](std::size_t i) {
                                matched[i] =
                                    obs::currentTraceContext() ==
                                    ctx;
                            });
    }
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(matched[i], 1) << i;
}

TEST(TraceContext, NestedSubmitInheritsContextTransitively)
{
    const obs::TraceContext ctx = obs::mintTraceContext();
    std::atomic<int> matched{0};
    const auto probe = [&matched, ctx] {
        if (obs::currentTraceContext() == ctx)
            matched.fetch_add(1);
    };

    // The inner tasks are submitted from inside the worker running
    // the outer one, after the submitting scope has closed, so the
    // context must flow through that second-generation submit too.
    {
        engine::ThreadPool pool(2);
        obs::TraceContextScope scope(ctx);
        pool.submit([&pool, probe] {
            probe();
            pool.submit(probe);
            pool.submit([&pool, probe] {
                probe();
                pool.submit(probe);
            });
        });
    } // the destructor drains the nested submissions too
    EXPECT_EQ(matched.load(), 4);
}

TEST(TraceContext, SpansStampTheActiveContext)
{
    const SpansOn on;
    const obs::TraceContext ctx = obs::mintTraceContext();
    {
        obs::TraceContextScope scope(ctx);
        LAG_SPAN("test.trace_context.stamped");
    }
    {
        LAG_SPAN("test.trace_context.unstamped");
    }

    const std::optional<obs::SpanEvent> stamped =
        findSpan("test.trace_context.stamped");
    ASSERT_TRUE(stamped.has_value());
    EXPECT_EQ(stamped->traceHi, ctx.hi);
    EXPECT_EQ(stamped->traceLo, ctx.lo);

    const std::optional<obs::SpanEvent> unstamped =
        findSpan("test.trace_context.unstamped");
    ASSERT_TRUE(unstamped.has_value());
    EXPECT_EQ(unstamped->traceHi, 0u);
    EXPECT_EQ(unstamped->traceLo, 0u);
}

TEST(TraceContext, ChromeTraceExportCarriesTraceIds)
{
    const SpansOn on;
    const obs::TraceContext ctx = obs::mintTraceContext();
    {
        obs::TraceContextScope scope(ctx);
        LAG_SPAN("test.trace_context.export");
        engine::ThreadPool pool(2);
        pool.submit([] { LAG_SPAN("test.trace_context.pooled"); });
    }

    const std::string json = obs::chromeTraceJson();
    const std::string hex = obs::traceIdHex(ctx);
    // Both the local span and the pool-worker span carry the same
    // request id in their args.
    const std::size_t first =
        json.find("\"trace\":\"" + hex + "\"");
    EXPECT_NE(first, std::string::npos);
    EXPECT_NE(json.find("\"trace\":\"" + hex + "\"", first + 1),
              std::string::npos);

    // Spans recorded with no context carry no trace arg at all:
    // find the unstamped event and check its object.
    const std::size_t at =
        json.find("test.trace_context.unstamped");
    if (at != std::string::npos) {
        const std::size_t close = json.find('}', at);
        ASSERT_NE(close, std::string::npos);
        EXPECT_EQ(
            json.substr(at, close - at).find("\"trace\""),
            std::string::npos);
    }
}

} // namespace
