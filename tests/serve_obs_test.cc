/**
 * @file
 * Serve-layer observability tests — the request-scoped tracing
 * tentpole end to end: a cold store load under a minted trace
 * context must stamp the engine-pool spans it causes with that
 * request's id (visible in the Chrome-trace export), /metricsz must
 * negotiate Prometheus exposition that the strict checker accepts,
 * the X-Lag-Trace-Id response header must correlate with
 * /debugz/requests, and requests over --slow-request-ms must be
 * flagged in the flight recorder.
 *
 * The flight recorder and span buffers are process-global; tests
 * arm/enable them up front and never assume they start empty.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "app/study.hh"
#include "engine/pool.hh"
#include "obs/chrome_trace.hh"
#include "obs/flightrec.hh"
#include "obs/json_check.hh"
#include "obs/metrics.hh"
#include "obs/prom_check.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"
#include "serve/client.hh"
#include "serve/http.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "serve/store.hh"
#include "scratch_dir.hh"

namespace lag::serve
{
namespace
{

using test::ScratchDir;

/** A tiny quick study (first 2 apps, 2 sessions each) with a
 * private cache dir. */
app::StudyConfig
tinyStudy(const std::string &cache_dir)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(5);
    config.apps.resize(2);
    config.sessionsPerApp = 2;
    config.cacheDir = cache_dir;
    return config;
}

/** RAII guard so a failing test cannot leak spans-enabled state. */
struct SpansOn
{
    SpansOn() { obs::setSpansEnabled(true); }
    ~SpansOn() { obs::setSpansEnabled(false); }
};

/** Arm the process-wide flight recorder (first call wins; live
 * rings only, no dump file). */
void
armRecorder()
{
    obs::FlightRecorder::instance().configure(
        obs::FlightRecorderOptions{});
}

/**
 * A live server whose store was loaded cold under a minted trace
 * context — the "one request caused all this engine work" shape the
 * tracing tentpole must attribute.
 */
struct ObsServer
{
    engine::ThreadPool pool;
    HotStore store;
    obs::TraceContext loadTrace;
    HttpServer server;

    explicit ObsServer(const app::StudyConfig &config,
                       ServerConfig server_config = {},
                       std::size_t workers = 2)
        : pool(workers), store(config, pool),
          server(server_config, loadedRoutes(), pool)
    {
        server.start();
    }

    ~ObsServer() { server.stop(); }

    Router
    loadedRoutes()
    {
        loadTrace = obs::mintTraceContext();
        {
            obs::TraceContextScope scope(loadTrace);
            store.load();
        }
        Router router;
        store.installRoutes(router);
        return router;
    }

    /** GET @p target; asserts transport success only — bodies here
     * are JSON *or* Prometheus text, checked per test. */
    ClientResult
    get(const std::string &target)
    {
        ClientOptions options;
        options.port = server.port();
        const ClientResult result =
            httpRequest(options, "GET", target);
        EXPECT_TRUE(result.ok) << target << ": " << result.error;
        return result;
    }
};

TEST(ServeObs, ColdLoadStampsEngineSpansWithTheRequestTrace)
{
    armRecorder();
    const SpansOn on;
    const ScratchDir cache_dir("lagalyzer-cache-serve-obs-trace");
    ObsServer live(tinyStudy(cache_dir.path));
    const obs::TraceContext ctx = live.loadTrace;

    // Walk every thread's span buffer: the load's own span must be
    // stamped, and so must spans recorded on *other* threads — the
    // engine-pool workers the load fanned out to.
    bool load_span_stamped = false;
    std::set<std::uint32_t> stamped_threads;
    obs::forEachSpan([&](const obs::SpanBuffer &buffer,
                         const obs::SpanEvent &event) {
        if (event.traceHi != ctx.hi || event.traceLo != ctx.lo)
            return;
        stamped_threads.insert(buffer.tid());
        if (std::string_view(event.name) == "serve.store.load")
            load_span_stamped = true;
    });
    EXPECT_TRUE(load_span_stamped);
    // The loading thread plus at least one pool worker.
    EXPECT_GE(stamped_threads.size(), 2u);

    // And the attribution survives into the Chrome-trace export:
    // multiple events carry the id as a "trace" arg.
    const std::string json = obs::chromeTraceJson();
    const std::string needle =
        "\"trace\":\"" + obs::traceIdHex(ctx) + "\"";
    const std::size_t first = json.find(needle);
    EXPECT_NE(first, std::string::npos);
    EXPECT_NE(json.find(needle, first + 1), std::string::npos);
}

TEST(ServeObs, MetricsEndpointServesPromOnRequest)
{
    armRecorder();
    const ScratchDir cache_dir("lagalyzer-cache-serve-obs-prom");
    ObsServer live(tinyStudy(cache_dir.path));

    // Default stays the bespoke JSON dump.
    const ClientResult as_json = live.get("/metricsz");
    EXPECT_EQ(as_json.status, 200);
    EXPECT_EQ(as_json.header("content-type"), "application/json");
    EXPECT_TRUE(obs::checkJson(as_json.body).ok);

    // ?format=prom switches to exposition text the strict checker
    // (the same one `trace_check --prom` runs) accepts.
    ClientResult prom = live.get("/metricsz?format=prom");
    EXPECT_EQ(prom.status, 200);
    EXPECT_EQ(prom.header("content-type"),
              "text/plain; version=0.0.4; charset=utf-8");
    const obs::PromCheckResult check = obs::checkProm(prom.body);
    EXPECT_TRUE(check.ok) << "line " << check.line << ": "
                          << check.message << "\n"
                          << prom.body;

    // The request counter and the per-route latency histograms
    // appear once a request has fully retired (they are recorded
    // after the response goes out, so poll briefly).
    bool routed = false;
    for (int attempt = 0; attempt < 200 && !routed; ++attempt) {
        prom = live.get("/metricsz?format=prom");
        routed = prom.body.find(
                     "lag_serve_route_latency_us_bucket{route=") !=
                 std::string::npos;
        if (!routed)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(routed) << prom.body;
    EXPECT_NE(prom.body.find("lag_serve_requests_total"),
              std::string::npos)
        << prom.body;
}

TEST(ServeObs, MetricsAcceptHeaderNegotiatesProm)
{
    // Content negotiation is pure dispatch logic — no live server
    // or loaded store needed.
    const ScratchDir cache_dir("lagalyzer-cache-serve-obs-accept");
    engine::ThreadPool pool(2);
    HotStore store(tinyStudy(cache_dir.path), pool);
    Router router;
    store.installRoutes(router);

    HttpRequest request;
    request.method = "GET";
    request.path = "/metricsz";
    request.headers.emplace_back("accept", "text/plain");
    const HttpResponse negotiated = router.dispatch(request);
    EXPECT_EQ(negotiated.status, 200);
    EXPECT_EQ(negotiated.contentType,
              "text/plain; version=0.0.4; charset=utf-8");
    EXPECT_TRUE(obs::checkProm(negotiated.body).ok)
        << negotiated.body;

    // No Accept preference: JSON.
    request.headers.clear();
    const HttpResponse plain = router.dispatch(request);
    EXPECT_EQ(plain.contentType, "application/json");
    EXPECT_TRUE(obs::checkJson(plain.body).ok);

    // Explicit ?format=prom wins regardless of Accept.
    request.headers.emplace_back("accept", "application/json");
    request.query.emplace_back("format", "prom");
    const HttpResponse forced = router.dispatch(request);
    EXPECT_EQ(forced.contentType,
              "text/plain; version=0.0.4; charset=utf-8");
    EXPECT_TRUE(obs::checkProm(forced.body).ok);
}

TEST(ServeObs, TraceHeaderCorrelatesWithDebugRequests)
{
    armRecorder();
    const SpansOn on;
    const ScratchDir cache_dir("lagalyzer-cache-serve-obs-debug");
    ObsServer live(tinyStudy(cache_dir.path));

    // Every response names its request's trace id.
    const ClientResult health = live.get("/healthz");
    EXPECT_EQ(health.status, 200);
    const std::string trace(health.header("x-lag-trace-id"));
    ASSERT_EQ(trace.size(), 32u) << trace;
    obs::TraceContext parsed;
    ASSERT_TRUE(obs::parseTraceIdHex(trace, parsed));

    // The request lands in /debugz/requests. Its summary is
    // recorded just after the response is written, so poll.
    std::string body;
    for (int attempt = 0; attempt < 200; ++attempt) {
        const ClientResult debug = live.get("/debugz/requests");
        EXPECT_EQ(debug.status, 200);
        body = debug.body;
        if (body.find(trace) != std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(obs::checkJson(body).ok) << body;
    EXPECT_NE(body.find(trace), std::string::npos) << body;
    EXPECT_NE(body.find("/healthz"), std::string::npos) << body;

    // The ?trace= filter narrows to that request and attaches its
    // span tree — the serve.request span is stamped with this id.
    const ClientResult filtered =
        live.get("/debugz/requests?trace=" + trace);
    EXPECT_EQ(filtered.status, 200);
    EXPECT_TRUE(obs::checkJson(filtered.body).ok) << filtered.body;
    EXPECT_NE(filtered.body.find(trace), std::string::npos);
    EXPECT_NE(filtered.body.find("\"spans\""), std::string::npos)
        << filtered.body;
    EXPECT_NE(filtered.body.find("serve.request"),
              std::string::npos)
        << filtered.body;

    // Malformed filter values are a client error, not a crash.
    EXPECT_EQ(live.get("/debugz/requests?trace=xyz").status, 400);

    // The live flight-recorder view is well-formed too.
    const ClientResult rec = live.get("/debugz/flightrecorder");
    EXPECT_EQ(rec.status, 200);
    const obs::JsonCheckResult shape =
        obs::checkFlightrec(rec.body);
    EXPECT_TRUE(shape.ok)
        << shape.message << " at byte " << shape.errorOffset;
}

TEST(ServeObs, LatestRequestKeepsItsSpanTreeAfterTheWorkerRingWraps)
{
    armRecorder();
    const SpansOn on;
    const ScratchDir cache_dir("lagalyzer-cache-serve-obs-wrap");
    ObsServer live(tinyStudy(cache_dir.path), {}, /*workers=*/1);

    // The one worker records pool.idle, pool.task and serve.request
    // for each request, so ~22k requests fill its 64 Ki-span ring.
    // Keep going (bounded) until the worker's ring has wrapped.
    const auto worker_ring_wrapped = [] {
        bool wrapped = false;
        obs::forEachSpan(
            [&](const obs::SpanBuffer &buffer,
                const obs::SpanEvent &event) {
                if (std::string_view(event.name) == "serve.request" &&
                    buffer.overwritten() > 0)
                    wrapped = true;
            },
            /*newest=*/4);
        return wrapped;
    };
    std::string trace;
    int requests = 0;
    while (requests < 22000 ||
           (requests < 40000 &&
            (requests % 500 != 0 || !worker_ring_wrapped()))) {
        const ClientResult health = live.get("/healthz");
        ASSERT_EQ(health.status, 200);
        trace = std::string(health.header("x-lag-trace-id"));
        ++requests;
    }
    ASSERT_TRUE(worker_ring_wrapped()) << requests << " requests";

    // The newest request's tree still has its serve.request span.
    const ClientResult tree =
        live.get("/debugz/requests?trace=" + trace);
    EXPECT_EQ(tree.status, 200);
    EXPECT_TRUE(obs::checkJson(tree.body).ok) << tree.body;
    EXPECT_NE(tree.body.find("\"name\": \"serve.request\""),
              std::string::npos)
        << tree.body;
}

TEST(ServeObs, SlowRequestsAreFlaggedInTheFlightRecorder)
{
    armRecorder();
    engine::ThreadPool pool(2);
    Router router;
    router.addExact("GET", "/slowz", [](const HttpRequest &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        HttpResponse response;
        response.body = "{\"ok\":1}";
        return response;
    });
    ServerConfig config;
    config.slowRequestMs = 1;
    HttpServer server(config, std::move(router), pool);
    server.start();

    ClientOptions options;
    options.port = server.port();
    const ClientResult result =
        httpRequest(options, "GET", "/slowz");
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.status, 200);

    // The summary (slow=true) and the slow-request marker are
    // recorded after the response goes out; poll for both.
    bool flagged = false;
    bool marked = false;
    for (int attempt = 0; attempt < 200 && !(flagged && marked);
         ++attempt) {
        flagged = false;
        for (const obs::RequestSummary &request :
             obs::FlightRecorder::instance().recentRequests()) {
            if (request.target == "/slowz" && request.slow)
                flagged = true;
        }
        marked = obs::FlightRecorder::instance().liveJson().find(
                     "slow-request") != std::string::npos;
        if (!(flagged && marked))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(flagged);
    EXPECT_TRUE(marked);
    server.stop();
}

} // namespace
} // namespace lag::serve
