#include "store.hh"

#include <algorithm>
#include <charconv>
#include <utility>

#include "obs/flightrec.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"
#include "util/hash.hh"
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
appsJson(std::uint32_t sessions_per_app,
         const std::vector<const engine::AppAggregate *> &apps)
{
    std::string out = "{\"sessions_per_app\":";
    appendJsonNumber(out, std::uint64_t{sessions_per_app});
    out += ",\"apps\":[";
    for (std::size_t a = 0; a < apps.size(); ++a) {
        if (a > 0)
            out += ',';
        out += "{\"name\":";
        appendJsonString(out, apps[a]->figures.name);
        out += ",\"patterns\":";
        appendJsonNumber(out,
                         std::uint64_t{apps[a]->merged.patterns.size()});
        out += ",\"recurring\":";
        appendJsonNumber(out,
                         std::uint64_t{apps[a]->merged.recurringCount()});
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
}

std::shared_ptr<const HotStore::Served>
HotStore::snapshot() const
{
    MutexLock lock(servedMutex_);
    return served_;
}

void
HotStore::publish(
    std::vector<std::shared_ptr<const engine::AppAggregate>> apps)
{
    std::shared_ptr<const Served> next =
        std::make_shared<const Served>(Served{std::move(apps)});
    {
        MutexLock lock(servedMutex_);
        served_.swap(next);
    }
    // `next` now holds the previous generation: freed here, outside
    // the pointer lock, unless a reader still renders from it.
}

void
HotStore::load()
{
    const app::StudyConfig &config = study_.config();
    LAG_SPAN_ARG("serve.store.load", "apps", config.apps.size());
    study_.validate();

    std::vector<std::string> names;
    names.reserve(config.apps.size());
    for (const app::AppParams &params : config.apps)
        names.push_back(params.name);
    engine::StudyAggregate aggregate = engine::aggregateFromCache(
        cache_, names, config.sessionsPerApp,
        config.perceptibleThreshold, pool_,
        [this](std::size_t a, std::uint32_t s) {
            return study_.loadSession(a, s);
        });

    // Every app was finished on the pool; the lock only covers the
    // publish.
    std::vector<std::shared_ptr<const engine::AppAggregate>> apps;
    apps.reserve(aggregate.apps.size());
    for (engine::AppAggregate &app : aggregate.apps)
        apps.push_back(
            std::make_shared<const engine::AppAggregate>(std::move(app)));
    MutexLock lock(mutex_);
    publish(std::move(apps));
}

void
HotStore::startFollow()
{
    MutexLock lock(mutex_);
    lag_assert(snapshot() == nullptr, "startFollow() after load()");
    // Live mode starts empty: the config's app list describes the
    // batch study, not what will stream in. Apps materialize as
    // ingest updates arrive.
    followMode_ = true;
    publish({});
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
        const auto found = std::find_if(
            liveApps_.begin(), liveApps_.end(),
            [&](const LiveApp &live) {
                return live.name == update.appName;
            });
        const auto a =
            static_cast<std::size_t>(found - liveApps_.begin());
        if (found == liveApps_.end())
            liveApps_.push_back(LiveApp{update.appName, {}});
        Fnv1aHasher digest;
        digest.addString(update.path);
        digest.addValue(update.epoch);
        liveApps_[a].sessions[update.path] =
            LiveSession{std::move(update.analysis), digest.digest()};
        if (std::find(touched.begin(), touched.end(), a) ==
            touched.end())
            touched.push_back(a);
    }
    // Finish each touched app once, from every live session's v2
    // summary — the batch path's finish, so completion implies
    // byte-equal query responses. The live analyses are borrowed,
    // not copied; untouched apps keep their published pointer (and
    // so their digest), while a touched app's digest moves with the
    // epoch of its updated session.
    std::vector<std::shared_ptr<const engine::AppAggregate>> apps =
        snapshot()->apps;
    apps.resize(liveApps_.size());
    for (const std::size_t a : touched) {
        std::vector<const engine::SessionAnalysis *> sessions;
        std::vector<std::uint64_t> digests;
        sessions.reserve(liveApps_[a].sessions.size());
        digests.reserve(liveApps_[a].sessions.size());
        for (const auto &[path, live] : liveApps_[a].sessions) {
            sessions.push_back(&live.analysis);
            digests.push_back(live.digest);
        }
        apps[a] = std::make_shared<const engine::AppAggregate>(
            engine::finishApp(liveApps_[a].name, sessions, digests));
    }
    publish(std::move(apps));
    applied.add(updates.size());
    rebuilds.add(touched.size());
}

RefreshResult
HotStore::refresh()
{
    MutexLock lock(mutex_);
    const std::shared_ptr<const Served> current = snapshot();
    lag_assert(current != nullptr, "refresh() before load()");
    LAG_SPAN_ARG("serve.store.refresh", "apps", current->apps.size());
    RefreshResult result;
    if (followMode_) {
        // Live apps have no cache digests to diff; every source is
        // already refreshed per epoch by the ingest pipeline.
        result.unchanged = current->apps.size();
        return result;
    }
    const app::StudyConfig &config = study_.config();
    // Served apps are in study order (load() publishes them so).
    std::vector<std::size_t> changed;
    for (std::size_t a = 0; a < current->apps.size(); ++a) {
        const engine::AppAggregate &app = *current->apps[a];
        if (cache_.appDigest(app.figures.name, config.sessionsPerApp) ==
            app.digest) {
            ++result.unchanged;
            continue;
        }
        changed.push_back(a);
        result.recomputedApps.push_back(app.figures.name);
    }
    if (changed.empty())
        return result;

    // The batch aggregation over the changed apps alone; its loader
    // maps an index into their names back to the study's.
    engine::StudyAggregate aggregate = engine::aggregateFromCache(
        cache_, result.recomputedApps, config.sessionsPerApp,
        config.perceptibleThreshold, pool_,
        [this, &changed](std::size_t local, std::uint32_t s) {
            return study_.loadSession(changed[local], s);
        });
    std::vector<std::shared_ptr<const engine::AppAggregate>> apps =
        current->apps;
    for (std::size_t i = 0; i < changed.size(); ++i)
        apps[changed[i]] = std::make_shared<const engine::AppAggregate>(
            std::move(aggregate.apps[i]));
    refreshRecomputedCounter().add(changed.size());
    publish(std::move(apps));
    return result;
}

std::size_t
HotStore::appCount() const
{
    const std::shared_ptr<const Served> served = snapshot();
    return served ? served->apps.size() : study_.config().apps.size();
}

std::optional<std::uint64_t>
HotStore::appDigest(std::string_view name) const
{
    const std::shared_ptr<const Served> served = snapshot();
    if (served == nullptr)
        return std::nullopt;
    for (const auto &app : served->apps) {
        if (app->figures.name == name)
            return app->digest;
    }
    return std::nullopt;
}

HotStore::View
HotStore::resolve(const HttpRequest &request, bool per_app) const
{
    View out;
    out.served = snapshot();
    if (out.served == nullptr) {
        out.error = errorResponse(503, "store not loaded");
        return out;
    }
    if (!per_app)
        return out;
    if (const std::string *app = request.queryParam("app")) {
        for (const auto &candidate : out.served->apps) {
            if (candidate->figures.name == *app) {
                out.app = candidate.get();
                break;
            }
        }
    }
    if (out.app == nullptr)
        out.error = errorResponse(404, "unknown app");
    return out;
}

HttpResponse
HotStore::handleApps(const HttpRequest &request)
{
    View view = resolve(request, false);
    if (view.error)
        return std::move(*view.error);
    std::vector<const engine::AppAggregate *> apps;
    apps.reserve(view.served->apps.size());
    for (const auto &app : view.served->apps)
        apps.push_back(app.get());
    HttpResponse response;
    response.body = appsJson(study_.config().sessionsPerApp, apps);
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

    View view = resolve(request, true);
    if (view.error)
        return std::move(*view.error);
    HttpResponse response;
    response.body = core::patternsJson(view.app->figures.name,
                                       view.app->merged, sort, limit);
    if (response.body.empty())
        return errorResponse(400, "unknown sort key");
    return response;
}

HttpResponse
HotStore::handleCdf(const HttpRequest &request)
{
    View view = resolve(request, true);
    if (view.error)
        return std::move(*view.error);
    HttpResponse response;
    response.body =
        core::cdfJson(view.app->figures.name,
                      view.app->figures.cdfEpisodesAtPatternPercent);
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

    View view = resolve(request, true);
    if (view.error)
        return std::move(*view.error);
    const core::MergedPatternSet &merged = view.app->merged;
    for (const core::MergedPattern &p : merged.patterns) {
        if (p.key == key) {
            HttpResponse response;
            response.body = core::episodesJson(
                view.app->figures.name, p, merged.sessionCount);
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

    View view = resolve(request, false);
    if (view.error)
        return std::move(*view.error);
    std::vector<const core::AppFigureData *> figures;
    figures.reserve(view.served->apps.size());
    for (const auto &app : view.served->apps)
        figures.push_back(&app->figures);
    HttpResponse response;
    response.body = core::figureJson(id, figures);
    if (response.body.empty())
        return errorResponse(404, "unknown figure id");
    return response;
}

HttpResponse
HotStore::handleHealth(const HttpRequest &)
{
    const std::shared_ptr<const Served> served = snapshot();
    HttpResponse response;
    response.body = "{\"status\":\"";
    response.body += served ? "ok" : "loading";
    response.body += "\",\"apps\":";
    response.body += std::to_string(
        served ? served->apps.size() : study_.config().apps.size());
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
