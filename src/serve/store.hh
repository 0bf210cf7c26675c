/**
 * @file
 * lagd's hot state: every app's merged pattern set and figure
 * inputs, loaded once from the result cache and invalidated per
 * app by content fingerprint.
 *
 * load() runs the full engine::aggregateFromCache fan-out, which
 * finishes every app on the pool — merge, figure inputs and the app
 * digest of its contributing `.ares` entries, taken from the bytes
 * the workers already hold. refresh() re-reads only the digests
 * from disk (ResultCache::appDigest: entry headers, one checksum
 * pass, no decode) and re-aggregates only the apps whose digest
 * moved, through engine::aggregateAppFromCache — the same per-app
 * finish — so a `POST /v1/refresh` after one app's entries changed
 * touches exactly that app, provable via the
 * `serve.refresh.recomputed` counter and the engine's
 * `cache.aggregate.*` counters.
 *
 * Every response body comes out of the shared core/figure_json
 * emitters, the same functions the batch reference path uses — the
 * "server output is byte-identical to batch output" criterion is
 * structural, not maintained.
 *
 * Locking: one Mutex at LockRank::Serve guards the app states.
 * load() takes it only to move the finished per-app vectors in.
 * refresh() holds it across the re-aggregation (which acquires
 * engine ranks beneath it — the reason Serve sits above every
 * other rank); readers therefore always see a complete generation,
 * never a half-refreshed one.
 */

#ifndef LAG_SERVE_STORE_HH
#define LAG_SERVE_STORE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "app/study.hh"
#include "core/figure_json.hh"
#include "engine/incremental.hh"
#include "engine/ingest.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "http.hh"
#include "router.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace lag::serve
{

/**
 * `/v1/apps` body for the given study shape. Free function so the
 * equivalence tests can derive the reference bytes from a batch
 * aggregate with the exact same code.
 */
std::string appsJson(const std::vector<std::string> &names,
                     std::uint32_t sessions_per_app,
                     const std::vector<core::MergedPatternSet> &merged);

/** What one refresh() pass did. */
struct RefreshResult
{
    /** Apps whose digest moved and were re-aggregated. */
    std::vector<std::string> recomputedApps;

    /** Apps whose digest was unchanged (left untouched). */
    std::size_t unchanged = 0;
};

/** `POST /v1/refresh` body for @p result. */
std::string refreshJson(const RefreshResult &result);

/** In-memory query state over one study's result cache. */
class HotStore
{
  public:
    /** @param config the study to serve; @param pool the engine
     * pool used by the initial full load (refresh is serial). */
    HotStore(app::StudyConfig config, engine::ThreadPool &pool);

    /**
     * Full load: validate the study cache, then aggregate and finish
     * every app from the result cache on the pool (simulating and
     * analyzing misses). Call once before serving.
     */
    void load();

    /**
     * Re-check every app's digest; re-aggregate the changed ones
     * serially (safe from a pool worker — see
     * engine::aggregateAppFromCache). Bumps
     * `serve.refresh.recomputed` once per recomputed app. No-op in
     * follow mode (there is no batch cache to diff against).
     */
    RefreshResult refresh();

    /**
     * Switch to live-ingest mode instead of load(): start with zero
     * apps and populate them from applyIngest() updates as traces
     * stream in. Queries work immediately (404 until the first
     * epoch publishes an app).
     */
    void startFollow();

    /**
     * Merge one epoch's published (partial- or complete-session)
     * analyses into the hot state: each update's analysis is moved
     * in and replaces that trace file's previous contribution, then
     * every touched app's MergedPatternSet and figure inputs are
     * rebuilt once, from borrowed live analyses, via
     * core::mergeAnalyses / engine::averageSessionAnalyses — the
     * exact functions the batch path uses, which is what makes the
     * served bytes equal the batch answer once every source
     * completes. Bumps `serve.ingest.applied` per update and
     * `serve.ingest.app_rebuilds` per rebuilt app. Called by the
     * IngestPipeline's publish callback (no ingest lock held).
     */
    void applyIngest(std::vector<engine::IngestUpdate> updates);

    /** Register every endpoint on @p router:
     * GET /healthz, /metricsz (JSON, or Prometheus text via
     * ?format=prom / Accept: text/plain), /debugz/requests,
     * /debugz/flightrecorder, /v1/apps, /v1/patterns, /v1/cdf,
     * /v1/episodes, /v1/figures/<id>; POST /v1/refresh. */
    void installRoutes(Router &router);

    /** App count (for startup logging). */
    std::size_t appCount() const;

  private:
    /** Resolve ?app= to an index; -1 when absent/unknown. */
    std::ptrdiff_t
    appIndex(const HttpRequest &request) const
        LAG_REQUIRES(mutex_);

    HttpResponse handleApps(const HttpRequest &request);
    HttpResponse handlePatterns(const HttpRequest &request);
    HttpResponse handleCdf(const HttpRequest &request);
    HttpResponse handleEpisodes(const HttpRequest &request);
    HttpResponse handleFigure(const HttpRequest &request);
    HttpResponse handleHealth(const HttpRequest &request);
    HttpResponse handleMetrics(const HttpRequest &request);
    HttpResponse handleRefresh(const HttpRequest &request);
    HttpResponse handleDebugRequests(const HttpRequest &request);
    HttpResponse handleDebugFlightrec(const HttpRequest &request);

    app::Study study_;
    engine::ResultCache cache_;
    engine::ThreadPool &pool_;
    std::vector<std::string> appNames_;

    mutable Mutex mutex_{LockRank::Serve, "serve-hot-store"};
    /** Per app (same index as appNames_), everything queries read,
     * in the shapes appsJson and figureJson take, plus the cache
     * digest each generation was built from. */
    std::vector<core::MergedPatternSet> merged_ LAG_GUARDED_BY(mutex_);
    std::vector<core::AppFigureData> figures_ LAG_GUARDED_BY(mutex_);
    std::vector<std::uint64_t> digests_ LAG_GUARDED_BY(mutex_);
    bool loaded_ LAG_GUARDED_BY(mutex_) = false;
    bool followMode_ LAG_GUARDED_BY(mutex_) = false;

    /** Follow mode: per app, each followed trace file's latest
     * analysis (keyed by path — ordered, so rebuild order and thus
     * merged output is deterministic). */
    std::vector<std::map<std::string, engine::SessionAnalysis>>
        liveSessions_ LAG_GUARDED_BY(mutex_);
};

/** Register `GET /v1/ingest` (IngestPipeline::statusJson) on
 * @p router. @p pipeline must outlive the router. */
void installIngestRoute(Router &router,
                        engine::IngestPipeline &pipeline);

} // namespace lag::serve

#endif // LAG_SERVE_STORE_HH
