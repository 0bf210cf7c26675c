/**
 * @file
 * Follow-mode HotStore tests: IngestPipeline updates flow through
 * applyIngest into the same emitters the batch path uses, so once a
 * source completes, `/v1/patterns` serves byte-for-byte the batch
 * answer — while partial sessions are queryable along the way. Also
 * covers `/v1/ingest` (strict JSON, all_complete transition), the
 * follow-mode refresh no-op, and readers plus refreshes racing the
 * epochs' publishes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "app/study.hh"
#include "core/aggregate.hh"
#include "core/figure_json.hh"
#include "engine/incremental.hh"
#include "engine/ingest.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "obs/json_check.hh"
#include "obs/metrics.hh"
#include "serve/router.hh"
#include "serve/store.hh"
#include "scratch_dir.hh"

namespace lag::serve
{
namespace
{

using test::ScratchDir;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
writeBytes(const std::string &path, const std::string &bytes,
           std::size_t n)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(n));
}

HttpRequest
getRequest(std::string path,
           std::vector<std::pair<std::string, std::string>> query = {})
{
    HttpRequest request;
    request.method = "GET";
    request.path = std::move(path);
    request.query = std::move(query);
    return request;
}

TEST(ServeIngest, FollowModeConvergesToBatchPatterns)
{
    const ScratchDir cache("lagalyzer-cache-test-serve-ingest");
    const ScratchDir live("lagalyzer-serve-ingest-live");

    app::StudyConfig config = app::StudyConfig::quickStudy(3);
    config.apps.resize(2);
    config.sessionsPerApp = 1;
    config.cacheDir = cache.path;
    config.jobs = 2;
    app::Study study(config);
    const auto tracePaths = study.ensureTraces();

    // Batch reference: the exact `/v1/patterns` bytes each app must
    // serve once its single session has fully streamed in.
    std::vector<std::string> appNames;
    std::vector<std::string> expected;
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        const core::Session session = study.loadSession(a, 0);
        const engine::SessionAnalysis analysis =
            engine::analyzeSession(session,
                                   config.perceptibleThreshold);
        appNames.push_back(session.meta().appName);
        expected.push_back(core::patternsJson(
            session.meta().appName,
            core::mergeAnalyses({analysis.patternSummary}),
            "episodes", 0));
    }

    engine::ThreadPool pool(config.jobs);
    HotStore store(config, pool);
    store.startFollow();
    EXPECT_EQ(store.appCount(), 0u);

    engine::IngestOptions options;
    options.perceptibleThreshold = config.perceptibleThreshold;
    engine::IngestPipeline pipeline(
        pool, options,
        [&store](std::vector<engine::IngestUpdate> updates) {
            store.applyIngest(std::move(updates));
        });

    Router router;
    store.installRoutes(router);
    installIngestRoute(router, pipeline);

    // Nothing has streamed yet: the store is up (not 503) but knows
    // no app; the ingest status is valid JSON with zero sources.
    {
        const HttpResponse response = router.dispatch(getRequest(
            "/v1/patterns", {{"app", appNames[0]}}));
        EXPECT_EQ(response.status, 404);
        const HttpResponse ingest =
            router.dispatch(getRequest("/v1/ingest"));
        EXPECT_EQ(ingest.status, 200);
        EXPECT_TRUE(obs::checkJson(ingest.body).ok)
            << ingest.body;
        EXPECT_NE(ingest.body.find("\"all_complete\":false"),
                  std::string::npos);
    }

    // Stream app 1 completely but only half of app 0: the complete
    // app must already serve the batch bytes while its neighbour is
    // still partial.
    const std::string bytes0 = slurp(tracePaths[0][0]);
    const std::string bytes1 = slurp(tracePaths[1][0]);
    const std::string dest0 = live.path + "/session0.lag";
    const std::string dest1 = live.path + "/session1.lag";
    writeBytes(dest0, bytes0, bytes0.size() / 2);
    writeBytes(dest1, bytes1, bytes1.size());
    EXPECT_EQ(pipeline.scanDirectory(live.path), 2u);
    for (int i = 0; i < 10 && !pipeline.allComplete(); ++i)
        pipeline.runEpoch();
    EXPECT_FALSE(pipeline.allComplete());

    {
        const HttpResponse response = router.dispatch(getRequest(
            "/v1/patterns", {{"app", appNames[1]}}));
        EXPECT_EQ(response.status, 200);
        EXPECT_EQ(response.body, expected[1])
            << "complete app must serve batch bytes mid-follow";

        // The partial app either has not published yet (404) or
        // serves a valid partial-session answer — never an error.
        const HttpResponse partial = router.dispatch(getRequest(
            "/v1/patterns", {{"app", appNames[0]}}));
        EXPECT_TRUE(partial.status == 200 || partial.status == 404);
        if (partial.status == 200) {
            EXPECT_TRUE(obs::checkJson(partial.body).ok);
        }
    }

    // Finish app 0 and drain.
    writeBytes(dest0, bytes0, bytes0.size());
    for (int i = 0; i < 10 && !pipeline.allComplete(); ++i)
        pipeline.runEpoch();
    ASSERT_TRUE(pipeline.allComplete());
    EXPECT_EQ(store.appCount(), 2u);

    for (std::size_t a = 0; a < appNames.size(); ++a) {
        const HttpResponse response = router.dispatch(getRequest(
            "/v1/patterns", {{"app", appNames[a]}}));
        EXPECT_EQ(response.status, 200);
        EXPECT_EQ(response.body, expected[a])
            << "follow-mode /v1/patterns diverges from batch for "
            << appNames[a];
    }

    // The companion endpoints answer over the same live state.
    for (const char *path : {"/v1/cdf", "/v1/apps"}) {
        HttpRequest request = getRequest(path);
        if (std::string_view(path) == "/v1/cdf")
            request.query = {{"app", appNames[0]}};
        const HttpResponse response = router.dispatch(request);
        EXPECT_EQ(response.status, 200) << path;
        EXPECT_TRUE(obs::checkJson(response.body).ok) << path;
    }

    const HttpResponse ingest =
        router.dispatch(getRequest("/v1/ingest"));
    EXPECT_EQ(ingest.status, 200);
    EXPECT_TRUE(obs::checkJson(ingest.body).ok) << ingest.body;
    EXPECT_NE(ingest.body.find("\"all_complete\":true"),
              std::string::npos);
    EXPECT_NE(ingest.body.find(dest0), std::string::npos);

    // refresh() is a declared no-op in follow mode: nothing to diff
    // against a result cache that is not in play.
    HttpRequest refresh;
    refresh.method = "POST";
    refresh.path = "/v1/refresh";
    const HttpResponse response = router.dispatch(refresh);
    EXPECT_EQ(response.status, 200);
    EXPECT_TRUE(obs::checkJson(response.body).ok);
    EXPECT_NE(response.body.find("\"recomputed\""),
              std::string::npos);
}

TEST(ServeIngest, OneEpochRebuildsEachTouchedAppOnce)
{
    // One epoch publishes all four sessions of one app as a single
    // batch; the store must merge them into that app exactly once
    // and still serve the batch answer.
    const ScratchDir cache("lagalyzer-cache-test-serve-batch");
    const ScratchDir live("lagalyzer-serve-ingest-batch");

    app::StudyConfig config = app::StudyConfig::quickStudy(3);
    config.apps.resize(1);
    config.sessionsPerApp = 4;
    config.cacheDir = cache.path;
    config.jobs = 2;
    app::Study study(config);
    const auto tracePaths = study.ensureTraces();

    // Batch reference over the sessions in index order, which is
    // also the path order the store merges live sessions in.
    std::vector<engine::SessionAnalysis> analyses;
    for (std::uint32_t s = 0; s < config.sessionsPerApp; ++s) {
        analyses.push_back(engine::analyzeSession(
            study.loadSession(0, s), config.perceptibleThreshold));
        const std::string bytes = slurp(tracePaths[0][s]);
        writeBytes(live.path + "/session" + std::to_string(s) + ".lag",
                   bytes, bytes.size());
    }
    std::vector<core::PatternSetSummary> summaries;
    for (const engine::SessionAnalysis &analysis : analyses)
        summaries.push_back(analysis.patternSummary);
    const std::string name = config.apps[0].name;
    const std::string expectedPatterns = core::patternsJson(
        name, core::mergeAnalyses(summaries), "episodes", 0);
    std::vector<const engine::SessionAnalysis *> borrowed;
    for (const engine::SessionAnalysis &analysis : analyses)
        borrowed.push_back(&analysis);
    const std::string expectedCdf = core::cdfJson(
        name, engine::averageSessionAnalyses(name, borrowed)
                  .cdfEpisodesAtPatternPercent);

    engine::ThreadPool pool(config.jobs);
    HotStore store(config, pool);
    store.startFollow();
    engine::IngestOptions options;
    options.perceptibleThreshold = config.perceptibleThreshold;
    std::size_t batches = 0;
    engine::IngestPipeline pipeline(
        pool, options,
        [&store, &batches](std::vector<engine::IngestUpdate> updates) {
            ++batches;
            store.applyIngest(std::move(updates));
        });
    Router router;
    store.installRoutes(router);

    const auto counter = [](std::string_view metric) {
        return obs::metrics().snapshot().counterValue(metric);
    };
    const std::uint64_t rebuildsBefore =
        counter("serve.ingest.app_rebuilds");
    const std::uint64_t appliedBefore =
        counter("serve.ingest.applied");

    EXPECT_EQ(pipeline.scanDirectory(live.path), 4u);
    EXPECT_EQ(pipeline.runEpoch(), 4u);
    ASSERT_TRUE(pipeline.allComplete());
    EXPECT_EQ(batches, 1u);
    EXPECT_EQ(counter("serve.ingest.applied") - appliedBefore, 4u);
    EXPECT_EQ(counter("serve.ingest.app_rebuilds") - rebuildsBefore,
              1u)
        << "one epoch must rebuild its one touched app once";

    const HttpResponse patterns =
        router.dispatch(getRequest("/v1/patterns", {{"app", name}}));
    EXPECT_EQ(patterns.status, 200);
    EXPECT_EQ(patterns.body, expectedPatterns);
    const HttpResponse cdf =
        router.dispatch(getRequest("/v1/cdf", {{"app", name}}));
    EXPECT_EQ(cdf.status, 200);
    EXPECT_EQ(cdf.body, expectedCdf);

    // Nothing advanced: no publish, no rebuild.
    EXPECT_EQ(pipeline.runEpoch(), 0u);
    EXPECT_EQ(batches, 1u);
    EXPECT_EQ(counter("serve.ingest.app_rebuilds") - rebuildsBefore,
              1u);
}

TEST(ServeIngest, ReadersAndRefreshRaceEpochPublishes)
{
    // Readers render and POST /v1/refresh while epochs publish. Every
    // handler renders from one published generation with no lock
    // held, and refresh sizes its span from a generation, never from
    // state an ingest publish is changing — so nothing races (this
    // test runs under TSan), every body is strict JSON, a complete
    // /v1/ingest status is never ahead of its answers, and the final
    // answer is the batch one.
    const ScratchDir cache("lagalyzer-cache-test-serve-race");
    const ScratchDir live("lagalyzer-serve-ingest-race");

    app::StudyConfig config = app::StudyConfig::quickStudy(3);
    config.apps.resize(2);
    config.sessionsPerApp = 1;
    config.cacheDir = cache.path;
    config.jobs = 2;
    app::Study study(config);
    const auto tracePaths = study.ensureTraces();

    std::vector<std::string> appNames;
    std::vector<std::string> expected;
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        const core::Session session = study.loadSession(a, 0);
        const engine::SessionAnalysis analysis =
            engine::analyzeSession(session,
                                   config.perceptibleThreshold);
        appNames.push_back(session.meta().appName);
        expected.push_back(core::patternsJson(
            session.meta().appName,
            core::mergeAnalyses({analysis.patternSummary}),
            "episodes", 0));
    }

    engine::ThreadPool pool(config.jobs);
    HotStore store(config, pool);
    store.startFollow();
    engine::IngestOptions options;
    options.perceptibleThreshold = config.perceptibleThreshold;
    // A slow publish, as a paper-size finish is, holds open the
    // window in which a status could run ahead of its answer.
    engine::IngestPipeline pipeline(
        pool, options,
        [&store](std::vector<engine::IngestUpdate> updates) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            store.applyIngest(std::move(updates));
        });
    Router router;
    store.installRoutes(router);

    HttpRequest refresh;
    refresh.method = "POST";
    refresh.path = "/v1/refresh";
    const std::vector<HttpRequest> requests = {
        getRequest("/v1/apps"),
        getRequest("/v1/patterns", {{"app", appNames[0]}}),
        getRequest("/v1/figures/fig3"),
        // Location shares come from the samples, which a trace
        // carries last: this body moves until the final epoch.
        getRequest("/v1/figures/fig6"), refresh};

    std::atomic<std::size_t> answers{0};
    // Per reader, each (request, body) read after /v1/ingest already
    // said complete; every one must be the final answer.
    std::vector<std::vector<std::pair<std::size_t, std::string>>>
        afterComplete(3);
    // jthreads: stopped and joined on every way out of the test.
    std::vector<std::jthread> readers;
    for (std::size_t r = 0; r < afterComplete.size(); ++r) {
        readers.emplace_back([&, r](const std::stop_token &stop) {
            while (!stop.stop_requested()) {
                const bool complete = pipeline.allComplete();
                for (std::size_t i = 0; i < requests.size(); ++i) {
                    const HttpResponse response =
                        router.dispatch(requests[i]);
                    // 404 only while app 0 has not published yet.
                    EXPECT_TRUE(response.status == 200 ||
                                response.status == 404)
                        << requests[i].path << ": " << response.status;
                    EXPECT_TRUE(obs::checkJson(response.body).ok)
                        << requests[i].path << ": " << response.body;
                    if (complete)
                        afterComplete[r].emplace_back(i, response.body);
                    answers.fetch_add(1);
                }
            }
        });
    }

    // Both sessions grow in eight steps, one epoch each, then drain;
    // every reader gets a turn between two publishes.
    const auto letReadersRun = [&] {
        const std::size_t seen = answers.load();
        while (answers.load() < seen + readers.size() * requests.size())
            std::this_thread::yield();
    };
    const std::vector<std::string> bytes = {slurp(tracePaths[0][0]),
                                            slurp(tracePaths[1][0])};
    const std::vector<std::string> dests = {
        live.path + "/session0.lag", live.path + "/session1.lag"};
    constexpr std::size_t kSteps = 8;
    for (std::size_t step = 1; step <= kSteps; ++step) {
        for (std::size_t i = 0; i < dests.size(); ++i)
            writeBytes(dests[i], bytes[i],
                       bytes[i].size() * step / kSteps);
        pipeline.scanDirectory(live.path);
        pipeline.runEpoch();
        letReadersRun();
    }
    for (int i = 0; i < 10 && !pipeline.allComplete(); ++i) {
        pipeline.runEpoch();
        letReadersRun();
    }
    readers.clear(); // stop and join
    ASSERT_TRUE(pipeline.allComplete());
    EXPECT_GT(answers.load(), 0u);
    for (const auto &seen : afterComplete) {
        for (const auto &[i, body] : seen) {
            EXPECT_EQ(body, router.dispatch(requests[i]).body)
                << requests[i].path
                << ": /v1/ingest said complete before this answer";
        }
    }

    for (std::size_t a = 0; a < appNames.size(); ++a) {
        const HttpResponse response = router.dispatch(getRequest(
            "/v1/patterns", {{"app", appNames[a]}}));
        EXPECT_EQ(response.status, 200);
        EXPECT_EQ(response.body, expected[a])
            << "follow-mode /v1/patterns diverges from batch for "
            << appNames[a];
    }
}

} // namespace
} // namespace lag::serve
