#include "store.hh"

#include <algorithm>
#include <charconv>
#include <utility>

#include "obs/flightrec.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace lag::serve
{

namespace
{

obs::Counter &
refreshRecomputedCounter()
{
    static obs::Counter &counter =
        obs::metrics().counter("serve.refresh.recomputed");
    return counter;
}

} // namespace

std::string
appsJson(const std::vector<std::string> &names,
         std::uint32_t sessions_per_app,
         const std::vector<core::MergedPatternSet> &merged)
{
    lag_assert(names.size() == merged.size(),
               "appsJson: names/merged size mismatch");
    std::string out = "{\"sessions_per_app\":";
    appendJsonNumber(out, std::uint64_t{sessions_per_app});
    out += ",\"apps\":[";
    for (std::size_t a = 0; a < names.size(); ++a) {
        if (a > 0)
            out += ',';
        out += "{\"name\":";
        appendJsonString(out, names[a]);
        out += ",\"patterns\":";
        appendJsonNumber(out, std::uint64_t{merged[a].patterns.size()});
        out += ",\"recurring\":";
        appendJsonNumber(out, std::uint64_t{merged[a].recurringCount()});
        out += '}';
    }
    out += "]}";
    return out;
}

std::string
refreshJson(const RefreshResult &result)
{
    std::string out = "{\"recomputed\":[";
    for (std::size_t i = 0; i < result.recomputedApps.size(); ++i) {
        if (i > 0)
            out += ',';
        appendJsonString(out, result.recomputedApps[i]);
    }
    out += "],\"unchanged\":";
    appendJsonNumber(out, std::uint64_t{result.unchanged});
    out += '}';
    return out;
}

HotStore::HotStore(app::StudyConfig config, engine::ThreadPool &pool)
    : study_(std::move(config)),
      cache_(study_.config().cacheDir,
             study_.config().fingerprint()),
      pool_(pool)
{
    appNames_.reserve(study_.config().apps.size());
    for (const app::AppParams &params : study_.config().apps)
        appNames_.push_back(params.name);
}

void
HotStore::load()
{
    LAG_SPAN_ARG("serve.store.load", "apps", appNames_.size());
    study_.validate();

    engine::StudyAggregate aggregate = engine::aggregateFromCache(
        cache_, appNames_, study_.config().sessionsPerApp,
        study_.config().perceptibleThreshold, pool_,
        [this](std::size_t a, std::uint32_t s) {
            return study_.loadSession(a, s);
        });

    // Every app was finished on the pool; the lock only covers the
    // hand-over.
    MutexLock lock(mutex_);
    merged_ = std::move(aggregate.merged);
    figures_ = std::move(aggregate.figures);
    digests_ = std::move(aggregate.digests);
    loaded_ = true;
}

void
HotStore::startFollow()
{
    MutexLock lock(mutex_);
    lag_assert(!loaded_, "startFollow() after load()");
    // Live mode starts empty: the config's app list describes the
    // batch study, not what will stream in. Apps materialize as
    // ingest updates arrive.
    appNames_.clear();
    merged_.clear();
    figures_.clear();
    digests_.clear();
    liveSessions_.clear();
    followMode_ = true;
    loaded_ = true;
}

void
HotStore::applyIngest(std::vector<engine::IngestUpdate> updates)
{
    LAG_SPAN_ARG("serve.store.apply_ingest", "updates",
                 updates.size());
    static obs::Counter &applied =
        obs::metrics().counter("serve.ingest.applied");
    static obs::Counter &rebuilds =
        obs::metrics().counter("serve.ingest.app_rebuilds");

    MutexLock lock(mutex_);
    lag_assert(followMode_, "applyIngest() outside follow mode");
    std::vector<std::size_t> touched;
    for (engine::IngestUpdate &update : updates) {
        const auto found = std::find(appNames_.begin(),
                                     appNames_.end(), update.appName);
        const auto a =
            static_cast<std::size_t>(found - appNames_.begin());
        if (found == appNames_.end()) {
            appNames_.push_back(update.appName);
            merged_.emplace_back();
            figures_.emplace_back();
            digests_.emplace_back();
            liveSessions_.emplace_back();
        }
        liveSessions_[a][update.path] = std::move(update.analysis);
        if (std::find(touched.begin(), touched.end(), a) ==
            touched.end())
            touched.push_back(a);
    }
    // Rebuild each touched app once, from every live session's v2
    // summary — same merge/average functions as the batch path, so
    // completion implies byte-equal query responses. The live
    // analyses are borrowed, not copied.
    for (const std::size_t a : touched) {
        std::vector<const core::PatternSetSummary *> summaries;
        std::vector<const engine::SessionAnalysis *> sessions;
        summaries.reserve(liveSessions_[a].size());
        sessions.reserve(liveSessions_[a].size());
        for (const auto &[path, analysis] : liveSessions_[a]) {
            summaries.push_back(&analysis.patternSummary);
            sessions.push_back(&analysis);
        }
        merged_[a] = core::mergeAnalyses(summaries);
        figures_[a] =
            engine::averageSessionAnalyses(appNames_[a], sessions);
    }
    applied.add(updates.size());
    rebuilds.add(touched.size());
}

RefreshResult
HotStore::refresh()
{
    LAG_SPAN_ARG("serve.store.refresh", "apps", appNames_.size());
    RefreshResult result;

    MutexLock lock(mutex_);
    lag_assert(loaded_, "refresh() before load()");
    if (followMode_) {
        // Live apps have no cache digests to diff; every source is
        // already refreshed per epoch by the ingest pipeline.
        result.unchanged = appNames_.size();
        return result;
    }
    for (std::size_t a = 0; a < appNames_.size(); ++a) {
        const std::uint64_t digest = cache_.appDigest(
            appNames_[a], study_.config().sessionsPerApp);
        if (digest == digests_[a]) {
            ++result.unchanged;
            continue;
        }
        engine::AppAggregate aggregate =
            engine::aggregateAppFromCache(
                cache_, appNames_[a], a,
                study_.config().sessionsPerApp,
                study_.config().perceptibleThreshold,
                [this](std::size_t app, std::uint32_t s) {
                    return study_.loadSession(app, s);
                });
        merged_[a] = std::move(aggregate.merged);
        figures_[a] = std::move(aggregate.figures);
        digests_[a] = aggregate.digest;
        refreshRecomputedCounter().add(1);
        result.recomputedApps.push_back(appNames_[a]);
    }
    return result;
}

std::size_t
HotStore::appCount() const
{
    MutexLock lock(mutex_);
    return appNames_.size();
}

std::ptrdiff_t
HotStore::appIndex(const HttpRequest &request) const
{
    const std::string *app = request.queryParam("app");
    if (app == nullptr)
        return -1;
    for (std::size_t a = 0; a < appNames_.size(); ++a) {
        if (appNames_[a] == *app)
            return static_cast<std::ptrdiff_t>(a);
    }
    return -1;
}

HttpResponse
HotStore::handleApps(const HttpRequest &)
{
    MutexLock lock(mutex_);
    if (!loaded_)
        return errorResponse(503, "store not loaded");
    HttpResponse response;
    response.body = appsJson(
        appNames_, study_.config().sessionsPerApp, merged_);
    return response;
}

HttpResponse
HotStore::handlePatterns(const HttpRequest &request)
{
    std::string sort = "episodes";
    if (const std::string *s = request.queryParam("sort"))
        sort = *s;
    std::size_t limit = 0;
    if (const std::string *l = request.queryParam("limit")) {
        const auto *first = l->data();
        const auto *last = first + l->size();
        const auto parsed = std::from_chars(first, last, limit);
        if (parsed.ec != std::errc{} || parsed.ptr != last)
            return errorResponse(400, "malformed limit");
    }

    MutexLock lock(mutex_);
    if (!loaded_)
        return errorResponse(503, "store not loaded");
    const std::ptrdiff_t a = appIndex(request);
    if (a < 0)
        return errorResponse(404, "unknown app");
    HttpResponse response;
    response.body = core::patternsJson(
        appNames_[static_cast<std::size_t>(a)],
        merged_[static_cast<std::size_t>(a)], sort, limit);
    if (response.body.empty())
        return errorResponse(400, "unknown sort key");
    return response;
}

HttpResponse
HotStore::handleCdf(const HttpRequest &request)
{
    MutexLock lock(mutex_);
    if (!loaded_)
        return errorResponse(503, "store not loaded");
    const std::ptrdiff_t a = appIndex(request);
    if (a < 0)
        return errorResponse(404, "unknown app");
    HttpResponse response;
    response.body = core::cdfJson(
        appNames_[static_cast<std::size_t>(a)],
        figures_[static_cast<std::size_t>(a)]
            .cdfEpisodesAtPatternPercent);
    return response;
}

HttpResponse
HotStore::handleEpisodes(const HttpRequest &request)
{
    const std::string *pattern = request.queryParam("pattern");
    if (pattern == nullptr)
        return errorResponse(400, "missing pattern parameter");
    std::uint64_t key = 0;
    if (!core::parsePatternKeyHex(*pattern, key))
        return errorResponse(400, "malformed pattern key");

    MutexLock lock(mutex_);
    if (!loaded_)
        return errorResponse(503, "store not loaded");
    const std::ptrdiff_t a = appIndex(request);
    if (a < 0)
        return errorResponse(404, "unknown app");
    const core::MergedPatternSet &merged =
        merged_[static_cast<std::size_t>(a)];
    for (const core::MergedPattern &p : merged.patterns) {
        if (p.key == key) {
            HttpResponse response;
            response.body = core::episodesJson(
                appNames_[static_cast<std::size_t>(a)], p,
                merged.sessionCount);
            return response;
        }
    }
    return errorResponse(404, "unknown pattern");
}

HttpResponse
HotStore::handleFigure(const HttpRequest &request)
{
    constexpr std::string_view prefix = "/v1/figures/";
    const std::string_view id =
        std::string_view(request.path).substr(prefix.size());

    MutexLock lock(mutex_);
    if (!loaded_)
        return errorResponse(503, "store not loaded");
    HttpResponse response;
    response.body = core::figureJson(id, figures_);
    if (response.body.empty())
        return errorResponse(404, "unknown figure id");
    return response;
}

HttpResponse
HotStore::handleHealth(const HttpRequest &)
{
    MutexLock lock(mutex_);
    HttpResponse response;
    response.body = "{\"status\":\"";
    response.body += loaded_ ? "ok" : "loading";
    response.body += "\",\"apps\":";
    response.body += std::to_string(appNames_.size());
    response.body += "}";
    return response;
}

HttpResponse
HotStore::handleMetrics(const HttpRequest &request)
{
    HttpResponse response;
    // Prometheus exposition on request — ?format=prom wins, and a
    // text/plain Accept (what prometheus scrapers send) selects it
    // too. Default stays the bespoke JSON dump.
    const std::string *format = request.queryParam("format");
    const bool wantProm =
        (format != nullptr && *format == "prom") ||
        (format == nullptr &&
         request.header("accept").find("text/plain") !=
             std::string_view::npos);
    if (wantProm) {
        response.contentType =
            "text/plain; version=0.0.4; charset=utf-8";
        response.body = obs::metrics().dumpProm();
    } else {
        response.body = obs::metrics().dumpJson();
    }
    return response;
}

HttpResponse
HotStore::handleDebugRequests(const HttpRequest &request)
{
    HttpResponse response;
    const std::string *trace = request.queryParam("trace");
    if (trace != nullptr) {
        obs::TraceContext ctx;
        if (!obs::parseTraceIdHex(*trace, ctx))
            return errorResponse(400, "malformed trace id");
        response.body =
            obs::FlightRecorder::instance().requestsJson(&ctx);
    } else {
        response.body =
            obs::FlightRecorder::instance().requestsJson(nullptr);
    }
    return response;
}

HttpResponse
HotStore::handleDebugFlightrec(const HttpRequest &)
{
    HttpResponse response;
    response.body = obs::FlightRecorder::instance().liveJson();
    return response;
}

HttpResponse
HotStore::handleRefresh(const HttpRequest &)
{
    HttpResponse response;
    response.body = refreshJson(refresh());
    return response;
}

void
HotStore::installRoutes(Router &router)
{
    const auto bind = [this](HttpResponse (HotStore::*method)(
                          const HttpRequest &)) {
        return [this, method](const HttpRequest &request) {
            return (this->*method)(request);
        };
    };
    router.addExact("GET", "/healthz",
                    bind(&HotStore::handleHealth));
    router.addExact("GET", "/metricsz",
                    bind(&HotStore::handleMetrics));
    router.addExact("GET", "/debugz/requests",
                    bind(&HotStore::handleDebugRequests));
    router.addExact("GET", "/debugz/flightrecorder",
                    bind(&HotStore::handleDebugFlightrec));
    router.addExact("GET", "/v1/apps", bind(&HotStore::handleApps));
    router.addExact("GET", "/v1/patterns",
                    bind(&HotStore::handlePatterns));
    router.addExact("GET", "/v1/cdf", bind(&HotStore::handleCdf));
    router.addExact("GET", "/v1/episodes",
                    bind(&HotStore::handleEpisodes));
    router.addPrefix("GET", "/v1/figures/",
                     bind(&HotStore::handleFigure));
    router.addExact("POST", "/v1/refresh",
                    bind(&HotStore::handleRefresh));
}

void
installIngestRoute(Router &router, engine::IngestPipeline &pipeline)
{
    router.addExact("GET", "/v1/ingest",
                    [&pipeline](const HttpRequest &) {
                        HttpResponse response;
                        response.body = pipeline.statusJson();
                        return response;
                    });
}

} // namespace lag::serve
