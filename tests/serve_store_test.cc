/**
 * @file
 * serve store tests: every /v1 response a live lagd-shaped server
 * returns must be byte-identical to the batch reference — a cold
 * full `aggregateFromCache` over a private cache, fed through the
 * same core/figure_json emitters — and `POST /v1/refresh` must
 * recompute exactly the apps whose `.ares` bytes changed, provable
 * through `serve.refresh.recomputed` and the engine's
 * `cache.aggregate.*` counters. The digests load() takes from the
 * bytes in hand must equal the ones refresh() reads from disk.
 * Everything the server says must be strict JSON.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "app/study.hh"
#include "core/figure_json.hh"
#include "engine/incremental.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "obs/json_check.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "serve/store.hh"
#include "util/json.hh"
#include "scratch_dir.hh"

namespace lag::serve
{
namespace
{

namespace fs = std::filesystem;
using test::ScratchDir;

/** A tiny quick study (first @p apps apps, 2 sessions each) with a
 * private cache dir — small enough that the full load and the cold
 * reference both run in seconds. */
app::StudyConfig
tinyStudy(const std::string &cache_dir, std::size_t apps = 2)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(5);
    config.apps.resize(apps);
    config.sessionsPerApp = 2;
    config.cacheDir = cache_dir;
    return config;
}

/** @p text as a JSON string literal, quotes included. */
std::string
jsonQuoted(std::string_view text)
{
    std::string out;
    appendJsonString(out, text);
    return out;
}

/** Percent-encode anything a query value cannot carry raw. */
std::string
urlEncode(const std::string &text)
{
    static const char hex[] = "0123456789ABCDEF";
    std::string out;
    for (const char c : text) {
        const bool plain = (c >= 'a' && c <= 'z') ||
                           (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9') || c == '-' ||
                           c == '_' || c == '.' || c == '~';
        if (plain) {
            out.push_back(c);
        } else {
            out.push_back('%');
            out.push_back(hex[(static_cast<unsigned char>(c) >> 4)]);
            out.push_back(hex[(static_cast<unsigned char>(c) & 0xf)]);
        }
    }
    return out;
}

/** Pointers to every element of @p items, in order — the borrowed
 * form the emitters take. */
template <typename T>
std::vector<const T *>
borrow(const std::vector<T> &items)
{
    std::vector<const T *> out;
    for (const T &item : items)
        out.push_back(&item);
    return out;
}

/** The batch side of the equivalence: a cold full aggregation over
 * a fresh, private result cache (so it never reads the served
 * `.ares` entries) pushed through the same emitters the server
 * uses. */
struct Reference
{
    std::vector<std::string> names;
    std::vector<engine::AppAggregate> apps;
    std::vector<core::AppFigureData> figures;

    Reference(const app::StudyConfig &config,
              engine::ThreadPool &pool)
    {
        app::Study study(config);
        study.validate();
        for (const app::AppParams &params : config.apps)
            names.push_back(params.name);
        const ScratchDir fresh("lagalyzer-cache-test-serve-ref");
        const engine::ResultCache cache(fresh.path,
                                        config.fingerprint());
        engine::StudyAggregate aggregate =
            engine::aggregateFromCache(
                cache, names, config.sessionsPerApp,
                config.perceptibleThreshold, pool,
                [&study](std::size_t a, std::uint32_t s) {
                    return study.loadSession(a, s);
                });
        apps = std::move(aggregate.apps);
        for (std::size_t a = 0; a < names.size(); ++a)
            figures.push_back(engine::averageSessionAnalyses(
                names[a], borrow(aggregate.grid[a])));
    }
};

/** A live server over a freshly loaded HotStore. */
struct LiveServer
{
    engine::ThreadPool pool{2};
    HotStore store;
    HttpServer server;

    explicit LiveServer(const app::StudyConfig &config)
        : store(config, pool),
          server(ServerConfig{}, routedStore(), pool)
    {
        server.start();
    }

    ~LiveServer() { server.stop(); }

    Router
    routedStore()
    {
        store.load();
        Router router;
        store.installRoutes(router);
        return router;
    }

    /** GET @p target; asserts transport success and strict JSON. */
    ClientResult
    get(const std::string &target)
    {
        ClientOptions options;
        options.port = server.port();
        const ClientResult result =
            httpRequest(options, "GET", target);
        EXPECT_TRUE(result.ok) << target << ": " << result.error;
        EXPECT_TRUE(obs::checkJson(result.body).ok)
            << target << ": " << result.body;
        return result;
    }

    ClientResult
    post(const std::string &target)
    {
        ClientOptions options;
        options.port = server.port();
        const ClientResult result =
            httpRequest(options, "POST", target);
        EXPECT_TRUE(result.ok) << target << ": " << result.error;
        EXPECT_TRUE(obs::checkJson(result.body).ok)
            << target << ": " << result.body;
        return result;
    }
};

TEST(ServeStore, ResponsesByteIdenticalToBatchReference)
{
    const ScratchDir cache_dir("lagalyzer-cache-serve-equiv-test");
    const app::StudyConfig config = tinyStudy(cache_dir.path);

    LiveServer live(config);
    const Reference reference(config, live.pool);

    // /v1/apps
    {
        const ClientResult result = live.get("/v1/apps");
        EXPECT_EQ(result.status, 200);
        EXPECT_EQ(result.body,
                  appsJson(config.sessionsPerApp, borrow(reference.apps)));
    }

    for (std::size_t a = 0; a < reference.names.size(); ++a) {
        const std::string app = urlEncode(reference.names[a]);

        // /v1/patterns: every sort key, unlimited and limited.
        for (const std::string_view sort : core::kPatternSortKeys) {
            for (const std::size_t limit : {std::size_t{0},
                                            std::size_t{3}}) {
                std::string target = "/v1/patterns?app=" + app +
                                     "&sort=" + std::string(sort);
                if (limit != 0)
                    target += "&limit=" + std::to_string(limit);
                const ClientResult result = live.get(target);
                EXPECT_EQ(result.status, 200) << target;
                EXPECT_EQ(result.body,
                          core::patternsJson(reference.names[a],
                                             reference.apps[a].merged,
                                             sort, limit))
                    << target;
            }
        }

        // Default sort is "episodes", default limit is "all".
        {
            const ClientResult result =
                live.get("/v1/patterns?app=" + app);
            EXPECT_EQ(result.body,
                      core::patternsJson(reference.names[a],
                                         reference.apps[a].merged,
                                         "episodes", 0));
        }

        // /v1/cdf
        {
            const ClientResult result =
                live.get("/v1/cdf?app=" + app);
            EXPECT_EQ(result.status, 200);
            EXPECT_EQ(result.body,
                      core::cdfJson(
                          reference.names[a],
                          reference.figures[a]
                              .cdfEpisodesAtPatternPercent));
        }

        // /v1/episodes for every merged pattern of this app.
        for (const core::MergedPattern &pattern :
             reference.apps[a].merged.patterns) {
            const std::string target =
                "/v1/episodes?app=" + app + "&pattern=" +
                core::patternKeyHex(pattern.key);
            const ClientResult result = live.get(target);
            EXPECT_EQ(result.status, 200) << target;
            EXPECT_EQ(result.body,
                      core::episodesJson(
                          reference.names[a], pattern,
                          reference.apps[a].merged.sessionCount))
                << target;
        }
    }

    // /v1/figures/<id> for every figure and table.
    for (const std::string &id : core::figureIds()) {
        const ClientResult result = live.get("/v1/figures/" + id);
        EXPECT_EQ(result.status, 200) << id;
        EXPECT_EQ(result.body,
                  core::figureJson(id, borrow(reference.figures)))
            << id;
    }

    // Health and metrics are strict JSON too (checked in get()).
    EXPECT_EQ(live.get("/healthz").status, 200);
    EXPECT_EQ(live.get("/metricsz").status, 200);

    // Error paths the querier hits in practice.
    EXPECT_EQ(live.get("/v1/patterns?app=no-such-app").status, 404);
    EXPECT_EQ(live.get("/v1/patterns?app=" +
                       urlEncode(reference.names[0]) +
                       "&sort=bogus")
                  .status,
              400);
    EXPECT_EQ(live.get("/v1/patterns?app=" +
                       urlEncode(reference.names[0]) +
                       "&limit=three")
                  .status,
              400);
    EXPECT_EQ(live.get("/v1/cdf").status, 404);
    EXPECT_EQ(live.get("/v1/episodes?app=" +
                       urlEncode(reference.names[0]))
                  .status,
              400);
    EXPECT_EQ(live.get("/v1/episodes?app=" +
                       urlEncode(reference.names[0]) +
                       "&pattern=zzzz")
                  .status,
              400);
    EXPECT_EQ(live.get("/v1/episodes?app=" +
                       urlEncode(reference.names[0]) +
                       "&pattern=ffffffffffffffff")
                  .status,
              404);
    EXPECT_EQ(live.get("/v1/figures/fig99").status, 404);
}

TEST(ServeStore, RefreshRecomputesExactlyTheDirtiedApp)
{
    const ScratchDir cache_dir("lagalyzer-cache-serve-refresh-test");
    const app::StudyConfig config = tinyStudy(cache_dir.path);

    LiveServer live(config);
    const engine::ResultCache cache(config.cacheDir,
                                    config.fingerprint());

    const auto counters = [] {
        const obs::MetricsSnapshot snap = obs::metrics().snapshot();
        return std::make_tuple(
            snap.counterValue("serve.refresh.recomputed"),
            snap.counterValue("cache.aggregate.recomputed"),
            snap.counterValue("cache.aggregate.cached"));
    };

    // A no-op refresh: nothing changed, nothing recomputed.
    const auto before_noop = counters();
    {
        const ClientResult result = live.post("/v1/refresh");
        EXPECT_EQ(result.status, 200);
        EXPECT_EQ(result.body, "{\"recomputed\":[],\"unchanged\":" +
                                   std::to_string(
                                       config.apps.size()) +
                                   "}");
    }
    const auto after_noop = counters();
    EXPECT_EQ(std::get<0>(after_noop), std::get<0>(before_noop));
    EXPECT_EQ(std::get<1>(after_noop), std::get<1>(before_noop));
    EXPECT_EQ(std::get<2>(after_noop), std::get<2>(before_noop));

    // Dirty exactly app 0: delete its cache entries. The digest
    // treats present-vs-absent as a change, so refresh must
    // re-aggregate app 0 (recomputing every session) and must not
    // touch app 1 at all.
    const std::string &dirty = config.apps[0].name;
    for (std::uint32_t s = 0; s < config.sessionsPerApp; ++s)
        ASSERT_TRUE(fs::remove(cache.entryPath(dirty, s)))
            << cache.entryPath(dirty, s);

    const auto before = counters();
    {
        const ClientResult result = live.post("/v1/refresh");
        EXPECT_EQ(result.status, 200);
        EXPECT_EQ(result.body,
                  "{\"recomputed\":[" + jsonQuoted(dirty) +
                      "],\"unchanged\":" +
                      std::to_string(config.apps.size() - 1) + "}");
    }
    const auto after = counters();
    // One app recomputed...
    EXPECT_EQ(std::get<0>(after), std::get<0>(before) + 1);
    // ...all of its sessions from scratch...
    EXPECT_EQ(std::get<1>(after),
              std::get<1>(before) + config.sessionsPerApp);
    // ...and zero sessions of any other app even re-read.
    EXPECT_EQ(std::get<2>(after), std::get<2>(before));

    // Post-refresh responses are byte-identical to a cold full
    // batch aggregation — the invalidation lost nothing.
    const Reference reference(config, live.pool);
    for (std::size_t a = 0; a < reference.names.size(); ++a) {
        const ClientResult result = live.get(
            "/v1/patterns?app=" + urlEncode(reference.names[a]) +
            "&sort=total_lag");
        EXPECT_EQ(result.status, 200);
        EXPECT_EQ(result.body,
                  core::patternsJson(reference.names[a],
                                     reference.apps[a].merged,
                                     "total_lag", 0));
    }
    const ClientResult apps = live.get("/v1/apps");
    EXPECT_EQ(apps.body,
              appsJson(config.sessionsPerApp, borrow(reference.apps)));

    // And a second refresh right after is a no-op again.
    const ClientResult again = live.post("/v1/refresh");
    EXPECT_EQ(again.body, "{\"recomputed\":[],\"unchanged\":" +
                              std::to_string(config.apps.size()) +
                              "}");
}

/** Flip the low bit of byte @p at of the file at @p path. */
void
flipByte(const std::string &path, std::size_t at)
{
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    ASSERT_LT(at, bytes.size()) << path;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ServeStore, InHandDigestsEqualFileDigests)
{
    const ScratchDir cache_dir("lagalyzer-cache-serve-digest-test");
    const app::StudyConfig config = tinyStudy(cache_dir.path, 3);
    const engine::ResultCache cache(config.cacheDir,
                                    config.fingerprint());

    // Warm every entry, then delete one and damage another, so the
    // load below sees hits, a missing entry and an invalid one.
    {
        engine::ThreadPool pool(2);
        HotStore warm(config, pool);
        warm.load();
    }
    ASSERT_TRUE(fs::remove(cache.entryPath(config.apps[0].name, 1)));
    const std::string damaged = cache.entryPath(config.apps[1].name, 0);
    flipByte(damaged, fs::file_size(damaged) / 2);

    LiveServer live(config);
    const std::string none = "{\"recomputed\":[],\"unchanged\":3}";
    EXPECT_EQ(live.post("/v1/refresh").body, none)
        << "a digest taken from the bytes in hand must equal the one "
           "read back from disk";

    // One payload byte in app 0, one header byte (the payload
    // checksum) in app 2: exactly those two apps are recomputed, and
    // within them only the damaged sessions.
    flipByte(cache.entryPath(config.apps[0].name, 0), 100);
    flipByte(cache.entryPath(config.apps[2].name, 1), 13);
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    EXPECT_EQ(live.post("/v1/refresh").body,
              "{\"recomputed\":[" + jsonQuoted(config.apps[0].name) +
                  "," + jsonQuoted(config.apps[2].name) +
                  "],\"unchanged\":1}");
    const obs::MetricsSnapshot after = obs::metrics().snapshot();
    EXPECT_EQ(after.counterValue("serve.refresh.recomputed"),
              before.counterValue("serve.refresh.recomputed") + 2);
    EXPECT_EQ(after.counterValue("cache.aggregate.recomputed"),
              before.counterValue("cache.aggregate.recomputed") + 2);

    // The repaired entries' in-hand digests match the disk again.
    EXPECT_EQ(live.post("/v1/refresh").body, none);
}

TEST(ServeStore, UnwritableAnalysisCacheStillServes)
{
    // The analysis directory is a regular file, so every .ares store
    // fails (a chmod would not stop a test that runs as root).
    const ScratchDir blocked_dir("lagalyzer-cache-serve-blocked-test");
    const ScratchDir writable_dir("lagalyzer-cache-serve-writable-test");
    const app::StudyConfig blocked = tinyStudy(blocked_dir.path);
    const app::StudyConfig writable = tinyStudy(writable_dir.path);

    // aggregateFromCache still returns every analysis, each equal to
    // a fresh one, and counts every failed store.
    {
        engine::ThreadPool pool(2);
        app::Study study(blocked);
        // After validate(), which clears a stale analysis directory.
        study.validate();
        std::ofstream(blocked.cacheDir + "/analysis") << "not a directory";
        const engine::ResultCache cache(blocked.cacheDir,
                                        blocked.fingerprint());
        std::vector<std::string> names;
        for (const app::AppParams &params : blocked.apps)
            names.push_back(params.name);
        const obs::MetricsSnapshot before = obs::metrics().snapshot();
        const engine::StudyAggregate aggregate =
            engine::aggregateFromCache(
                cache, names, blocked.sessionsPerApp,
                blocked.perceptibleThreshold, pool,
                [&study](std::size_t a, std::uint32_t s) {
                    return study.loadSession(a, s);
                });
        const obs::MetricsSnapshot after = obs::metrics().snapshot();
        const std::size_t entries = names.size() * blocked.sessionsPerApp;
        EXPECT_EQ(after.counterValue("cache.store.failures"),
                  before.counterValue("cache.store.failures") + entries);
        ASSERT_EQ(aggregate.grid.size(), names.size());
        for (std::size_t a = 0; a < names.size(); ++a) {
            ASSERT_EQ(aggregate.grid[a].size(), blocked.sessionsPerApp);
            for (std::uint32_t s = 0; s < blocked.sessionsPerApp; ++s) {
                EXPECT_EQ(engine::serializeSessionAnalysis(
                              aggregate.grid[a][s]),
                          engine::serializeSessionAnalysis(
                              engine::analyzeSession(
                                  study.loadSession(a, s),
                                  blocked.perceptibleThreshold)))
                    << names[a] << " session " << s;
            }
        }
    }

    // A server over the blocked cache answers byte for byte what one
    // over a writable cache does.
    LiveServer served(blocked);
    LiveServer reference(writable);
    std::vector<std::string> targets = {"/v1/apps"};
    for (const app::AppParams &params : blocked.apps) {
        targets.push_back("/v1/patterns?app=" + urlEncode(params.name));
        targets.push_back("/v1/cdf?app=" + urlEncode(params.name));
    }
    for (const std::string &id : core::figureIds())
        targets.push_back("/v1/figures/" + id);
    for (const std::string &target : targets) {
        const ClientResult got = served.get(target);
        EXPECT_EQ(got.status, 200) << target;
        EXPECT_EQ(got.body, reference.get(target).body) << target;
    }
}

} // namespace
} // namespace lag::serve
