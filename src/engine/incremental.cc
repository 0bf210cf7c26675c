#include "incremental.hh"

#include <atomic>
#include <utility>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/logging.hh"

namespace lag::engine
{

namespace
{

/** Aggregation instruments; looked up once, then pure atomics. */
struct AggregateMetrics
{
    obs::Counter &cached =
        obs::metrics().counter("cache.aggregate.cached");
    obs::Counter &recomputed =
        obs::metrics().counter("cache.aggregate.recomputed");
};

AggregateMetrics &
aggregateMetrics()
{
    static AggregateMetrics metrics;
    return metrics;
}

/** Borrow each analysis, in session order — what finishApp()
 * takes. */
std::vector<const SessionAnalysis *>
borrowAll(const std::vector<SessionAnalysis> &sessions)
{
    std::vector<const SessionAnalysis *> borrowed;
    borrowed.reserve(sessions.size());
    for (const SessionAnalysis &analysis : sessions)
        borrowed.push_back(&analysis);
    return borrowed;
}

} // namespace

AppAggregate
finishApp(std::string name,
          const std::vector<const SessionAnalysis *> &sessions,
          std::span<const std::uint64_t> entry_digests)
{
    std::vector<const core::PatternSetSummary *> summaries;
    summaries.reserve(sessions.size());
    for (const SessionAnalysis *analysis : sessions)
        summaries.push_back(&analysis->patternSummary);
    AppAggregate out;
    out.merged = core::mergeAnalyses(summaries);
    out.digest = appDigestOf(name, entry_digests);
    out.figures = averageSessionAnalyses(std::move(name), sessions);
    return out;
}

StudyAggregate
aggregateFromCache(const ResultCache &cache,
                   const std::vector<std::string> &app_names,
                   std::uint32_t sessions_per_app,
                   DurationNs perceptible_threshold, ThreadPool &pool,
                   const SessionLoader &load_session)
{
    LAG_SPAN_ARG("cache.aggregate", "sessions",
                 app_names.size() * sessions_per_app);
    lag_assert(load_session != nullptr,
               "aggregateFromCache needs a session loader");

    const std::size_t apps = app_names.size();
    StudyAggregate out;
    out.grid.assign(apps, std::vector<SessionAnalysis>(sessions_per_app));
    std::vector<std::vector<std::uint64_t>> entry_digests(
        apps, std::vector<std::uint64_t>(sessions_per_app));

    // Counted from pool workers; only read after parallelFor
    // returned, so relaxed ordering suffices.
    std::atomic<std::size_t> from_cache{0};

    const std::size_t total = apps * sessions_per_app;
    parallelFor(pool, total, [&](std::size_t k) {
        const std::size_t a = k / sessions_per_app;
        const auto s = static_cast<std::uint32_t>(k % sessions_per_app);
        LAG_SPAN_ARG("aggregate", "item", s);
        // The cache entry on a hit, else load + analyze + store back;
        // either way the entry's digest as loaded or stored.
        std::uint64_t &digest = entry_digests[a][s];
        if (auto hit = cache.load(app_names[a], s, &digest)) {
            out.grid[a][s] = std::move(*hit);
            from_cache.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        const core::Session session = load_session(a, s);
        out.grid[a][s] = analyzeSession(session, perceptible_threshold);
        digest = cache.store(app_names[a], s, out.grid[a][s]);
    });

    out.sessionsFromCache =
        from_cache.load(std::memory_order_relaxed);
    out.sessionsRecomputed = total - out.sessionsFromCache;
    aggregateMetrics().cached.add(out.sessionsFromCache);
    aggregateMetrics().recomputed.add(out.sessionsRecomputed);

    // One task per app: each reads only its own grid row, in
    // session order, and writes only its own slots, so scheduling
    // can never leak into the result — byte-identical at any
    // worker count.
    LAG_SPAN_ARG("cache.aggregate.merge", "apps", apps);
    out.apps.resize(apps);
    parallelFor(pool, apps, [&](std::size_t a) {
        out.apps[a] = finishApp(app_names[a], borrowAll(out.grid[a]),
                                entry_digests[a]);
    });
    return out;
}

core::AppFigureData
averageSessionAnalyses(
    std::string name,
    const std::vector<const SessionAnalysis *> &sessions)
{
    core::AppFigureData result;
    result.name = std::move(name);
    result.cdfEpisodesAtPatternPercent.assign(101, 0.0);

    // The accumulation order and the per-session /n division are
    // the historical bench::analyzeStudy arithmetic, kept verbatim:
    // figure bytes must not move under this refactor.
    std::vector<core::OverviewRow> rows;
    const auto n = static_cast<double>(sessions.size());
    for (const SessionAnalysis *session : sessions) {
        const SessionAnalysis &sa = *session;
        rows.push_back(sa.overview);
        const auto cdf = core::resampleCdf(sa.cdf);

        const auto add_shares = [&](core::TriggerShares &dst,
                                    const core::TriggerShares &src) {
            dst.input += src.input / n;
            dst.output += src.output / n;
            dst.async += src.async / n;
            dst.unspecified += src.unspecified / n;
            dst.episodeCount += src.episodeCount;
        };
        add_shares(result.triggers.all, sa.triggers.all);
        add_shares(result.triggers.perceptible,
                   sa.triggers.perceptible);

        const auto add_location = [&](core::LocationShares &dst,
                                      const core::LocationShares &src) {
            dst.appFraction += src.appFraction / n;
            dst.libraryFraction += src.libraryFraction / n;
            dst.gcFraction += src.gcFraction / n;
            dst.nativeFraction += src.nativeFraction / n;
            dst.sampleCount += src.sampleCount;
            dst.episodeCount += src.episodeCount;
        };
        add_location(result.location.all, sa.location.all);
        add_location(result.location.perceptible,
                     sa.location.perceptible);

        result.concurrency.meanRunnableAll +=
            sa.concurrency.meanRunnableAll / n;
        result.concurrency.meanRunnablePerceptible +=
            sa.concurrency.meanRunnablePerceptible / n;
        result.concurrency.samplesAll += sa.concurrency.samplesAll;
        result.concurrency.samplesPerceptible +=
            sa.concurrency.samplesPerceptible;

        const auto add_states = [&](core::GuiStateShares &dst,
                                    const core::GuiStateShares &src) {
            dst.blocked += src.blocked / n;
            dst.waiting += src.waiting / n;
            dst.sleeping += src.sleeping / n;
            dst.runnable += src.runnable / n;
            dst.sampleCount += src.sampleCount;
        };
        add_states(result.states.all, sa.states.all);
        add_states(result.states.perceptible,
                   sa.states.perceptible);

        result.occurrence.always += sa.occurrence.always / n;
        result.occurrence.sometimes += sa.occurrence.sometimes / n;
        result.occurrence.once += sa.occurrence.once / n;
        result.occurrence.never += sa.occurrence.never / n;
        result.occurrence.patternCount +=
            sa.occurrence.patternCount;

        for (int x = 0; x <= 100; ++x) {
            result.cdfEpisodesAtPatternPercent
                [static_cast<std::size_t>(x)] +=
                cdf[static_cast<std::size_t>(x)] / n;
        }
    }
    result.overview = core::meanOverview(rows);
    return result;
}

} // namespace lag::engine
