/**
 * @file
 * Incremental cross-session aggregation from the result cache.
 *
 * The paper's core claim is that LagAlyzer "integrates multiple
 * traces in its analysis" (§VI); at study scale that means
 * answering cross-session aggregates — the per-app MergedPatternSet
 * and the Table III / Figure 3–8 rollup inputs — over dozens of
 * sessions. The decode-and-mine path pays a full trace decode plus
 * pattern mining per session per run. This layer answers the same
 * queries from cached `.ares` entries instead: a v2 SessionAnalysis
 * carries per-pattern summaries (core::PatternSetSummary), so a
 * warm cache rebuilds every aggregate without the trace decoder
 * running at all — provable via the `trace.decode.bytes` counter.
 *
 * Determinism contract: every per-session task writes only its own
 * [app][session] grid slot, cache entries are byte-identical to
 * fresh computations (result_cache.hh), and each app is finished —
 * merged, figure-averaged and digested — by one task that reads
 * only its own grid row in session order and writes only its own
 * app slot — so the output is byte-identical to the decode-and-mine
 * path at any worker count, on any mix of cache hits and misses.
 */

#ifndef LAG_ENGINE_INCREMENTAL_HH
#define LAG_ENGINE_INCREMENTAL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/aggregate.hh"
#include "core/figure_json.hh"
#include "core/session.hh"
#include "pool.hh"
#include "result_cache.hh"
#include "util/types.hh"

namespace lag::engine
{

/**
 * Produces one session on a cache miss (decode its trace, or
 * re-simulate when the trace itself is gone); @c app_index indexes
 * the app names handed to aggregateFromCache(). Called from pool
 * workers; must be safe for concurrent distinct (app, session)
 * pairs — app::Study::loadSession satisfies this.
 */
using SessionLoader = std::function<core::Session(
    std::size_t app_index, std::uint32_t session_index)>;

/** One app's finished cross-session state: its merge, figure
 * inputs and app digest. An app's name is its `figures.name`. */
struct AppAggregate
{
    /** Cross-session pattern merge; byte-identical to
     * core::minePatternsAcrossSessions over the app's sessions. */
    core::MergedPatternSet merged;

    /** Figure inputs (averageSessionAnalyses). */
    core::AppFigureData figures;

    /** appDigestOf() over the entry digests the cache reported while
     * loading or storing each session — equal to
     * ResultCache::appDigest() of the entries this state came from. */
    std::uint64_t digest = 0;
};

/** Everything the study harnesses aggregate across sessions. */
struct StudyAggregate
{
    /** Per-session analyses indexed [app][session]; byte-identical
     * (via serializeSessionAnalysis) to analyzing each decoded
     * session directly. */
    std::vector<std::vector<SessionAnalysis>> grid;

    /** Per-app finished state, in app order (finishApp). */
    std::vector<AppAggregate> apps;

    /** Sessions answered from `.ares` entries alone. */
    std::size_t sessionsFromCache = 0;

    /** Sessions that fell back to load + analyze (+ store). */
    std::size_t sessionsRecomputed = 0;
};

/**
 * Finish one app from borrowed analyses (each pointer non-null) and
 * their entry digests, both in session order: the cross-session
 * merge (core::mergeAnalyses), the figure inputs
 * (averageSessionAnalyses) and the app digest (appDigestOf). The one
 * per-app finish of the batch aggregation (which lagd's load and
 * refresh both run) and of live ingest — which is what makes their
 * bytes agree. Live ingest has no cache entries and passes no
 * digests.
 */
AppAggregate
finishApp(std::string name,
          const std::vector<const SessionAnalysis *> &sessions,
          std::span<const std::uint64_t> entry_digests);

/**
 * Rebuild every cross-session aggregate for a
 * @p app_names.size() x @p sessions_per_app study grid from
 * @p cache, falling back per session to @p load_session + analyze
 * on a miss (storing the result back for the next run). Per-session
 * cache loads and recomputations fan out over @p pool, one
 * parallelFor task (span `aggregate`) per session; then one
 * parallelFor task per app (span `cache.aggregate.merge` around
 * them all) finishes each app with finishApp(). Called from a worker
 * of @p pool (lagd's `/v1/refresh` handler), both loops run inline
 * on that worker (parallelFor). Instrumented with the
 * `cache.aggregate` span and the `cache.aggregate.cached` /
 * `cache.aggregate.recomputed` counters.
 */
StudyAggregate
aggregateFromCache(const ResultCache &cache,
                   const std::vector<std::string> &app_names,
                   std::uint32_t sessions_per_app,
                   DurationNs perceptible_threshold, ThreadPool &pool,
                   const SessionLoader &load_session);

/**
 * Session-average one app's analyses into the figure inputs
 * (core::AppFigureData): trigger/location/state shares and the CDF
 * grid average over sessions (counts accumulate), exactly the
 * arithmetic the bench harnesses' analyzeStudy() has always used —
 * bench and serve now share this one implementation, so figure
 * bytes agree between the batch and the server by construction.
 * @p sessions points at analyses owned elsewhere (each non-null).
 */
core::AppFigureData
averageSessionAnalyses(
    std::string name,
    const std::vector<const SessionAnalysis *> &sessions);

} // namespace lag::engine

#endif // LAG_ENGINE_INCREMENTAL_HH
