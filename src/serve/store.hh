/**
 * @file
 * lagd's hot state: every app's merged pattern set, figure inputs
 * and cache digest, published as one immutable generation.
 *
 * There is one way the served state changes: a writer builds the
 * apps it changed, each finished by engine::finishApp, and swaps in
 * a new generation by pointer (publish()). A generation shares every
 * untouched app's pointer with the one before it. The three writers:
 *
 *  - load() runs the full engine::aggregateFromCache fan-out on the
 *    pool and publishes every app;
 *  - refresh() re-reads only the digests from disk
 *    (ResultCache::appDigest: entry headers, one checksum pass, no
 *    decode) and re-aggregates only the apps whose digest moved,
 *    through one engine::aggregateFromCache over their names (inline
 *    on the pool worker serving the request), so a
 *    `POST /v1/refresh` after one app's entries changed touches
 *    exactly that app,
 *    provable via the `serve.refresh.recomputed` counter and the
 *    engine's `cache.aggregate.*` counters;
 *  - applyIngest() (follow mode) re-finishes each app an ingest
 *    epoch touched from its live sessions.
 *
 * Every response body comes out of the shared core/figure_json
 * emitters, the same functions the batch reference path uses — the
 * "server output is byte-identical to batch output" criterion is
 * structural, not maintained.
 *
 * Locking: a handler copies the published pointer once — under
 * servedMutex_ (LockRank::ServeSnapshot), held for that copy alone —
 * and renders from that generation with no lock held. No one mutates
 * a published generation, so a reader always sees a complete one,
 * never a half-refreshed one, and never waits for a refresh or an
 * epoch. mutex_ (LockRank::Serve) only serialises the writers —
 * their read-modify-publish of the generation — and guards the
 * follow-mode live sessions; readers never take it. refresh() holds
 * it across the re-aggregation, which acquires engine ranks beneath
 * it: the reason Serve sits above every other rank.
 *
 * The pointer is not a std::atomic<std::shared_ptr>: libstdc++ 12's
 * load() releases its internal lock bit with a relaxed store, so the
 * next store's write of the pointer is not ordered after a reader's
 * read of it, which ThreadSanitizer reports as a data race.
 */

#ifndef LAG_SERVE_STORE_HH
#define LAG_SERVE_STORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
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
 * `/v1/apps` body for the given study shape. @p apps points at
 * finished apps owned elsewhere (each non-null), in app order. Free
 * function so the equivalence tests can derive the reference bytes
 * from a batch aggregate with the exact same code.
 */
std::string appsJson(std::uint32_t sessions_per_app,
                     const std::vector<const engine::AppAggregate *> &apps);

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
     * pool that load() and refresh() aggregate on. */
    HotStore(app::StudyConfig config, engine::ThreadPool &pool);

    /**
     * Full load: validate the study cache, then aggregate and finish
     * every app from the result cache on the pool (simulating and
     * analyzing misses). Call once before serving.
     */
    void load();

    /**
     * Re-check every app's digest; re-aggregate the changed ones in
     * one engine::aggregateFromCache (which runs inline when called
     * from a worker of the pool, as the `/v1/refresh` handler is).
     * Bumps `serve.refresh.recomputed` once per recomputed app.
     * No-op in follow mode (there is no batch cache to diff
     * against).
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
     * every touched app is finished once, from borrowed live
     * analyses, via engine::finishApp — the batch path's per-app
     * finish, which is what makes the served bytes equal the batch
     * answer once every source completes — and published. Bumps
     * `serve.ingest.applied` per update and
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

    /** Served app count; the configured one before load() (for
     * startup logging). */
    std::size_t appCount() const;

  private:
    /** One published generation: every app's finished state, in app
     * order (an app's name is its `figures.name`). Never mutated
     * once published. */
    struct Served
    {
        std::vector<std::shared_ptr<const engine::AppAggregate>> apps;
    };

    /** What a /v1 handler renders from: one generation and, for a
     * per-app endpoint, the app ?app= names in it — or the answer it
     * gives instead (@ref error): 503 before the first publish, 404
     * when ?app= is absent or names no served app. */
    struct View
    {
        std::shared_ptr<const Served> served;
        const engine::AppAggregate *app = nullptr;
        std::optional<HttpResponse> error;
    };

    /** The published generation (null before the first publish). */
    std::shared_ptr<const Served> snapshot() const;

    /** Take the published generation once and, when @p per_app,
     * resolve ?app= in it. */
    View resolve(const HttpRequest &request, bool per_app) const;

    /** Make @p apps the generation every later reader sees. */
    void
    publish(std::vector<std::shared_ptr<const engine::AppAggregate>> apps)
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

    /** Follow mode: one app's followed trace files, each file's
     * latest analysis keyed by path — ordered, so the finish order
     * and thus the served bytes are deterministic. */
    struct LiveApp
    {
        std::string name;
        std::map<std::string, engine::SessionAnalysis> sessions;
    };

    app::Study study_;
    engine::ResultCache cache_;
    engine::ThreadPool &pool_;

    /** Guards only the published pointer: held to copy or swap it,
     * never across a render, an aggregation or a free. */
    mutable Mutex servedMutex_{LockRank::ServeSnapshot,
                               "serve-snapshot"};
    /** The generation readers see; null until load() or
     * startFollow() publishes the first one. */
    std::shared_ptr<const Served> served_ LAG_GUARDED_BY(servedMutex_);

    Mutex mutex_{LockRank::Serve, "serve-hot-store"};
    bool followMode_ LAG_GUARDED_BY(mutex_) = false;
    /** Follow mode: per app, in the served generation's app order. */
    std::vector<LiveApp> liveApps_ LAG_GUARDED_BY(mutex_);
};

/** Register `GET /v1/ingest` (IngestPipeline::statusJson) on
 * @p router. @p pipeline must outlive the router. */
void installIngestRoute(Router &router,
                        engine::IngestPipeline &pipeline);

} // namespace lag::serve

#endif // LAG_SERVE_STORE_HH
