/**
 * @file
 * Performance of the analysis pipeline (google-benchmark).
 *
 * The paper reports: "The fully automated analysis of about 7.5
 * hours of interactive sessions (roughly 250'000 episodes) took 15
 * minutes (including the generation of MATLAB graphs)" — about 280
 * episodes analyzed per second. These microbenchmarks measure the
 * stages of our pipeline (trace decode, session build, pattern
 * mining, the full analysis suite, sketch rendering) and report
 * episodes/second for comparison.
 *
 * Before the microbenchmarks, main() times one full quick study
 * end-to-end twice — once on a single worker, once on the engine's
 * default (or `--jobs N`) worker count — and prints one JSON line
 * comparing serial and parallel wall time. Set
 * LAGALYZER_SKIP_SPEEDUP=1 to skip that (it simulates traces).
 *
 * More JSON lines quantify the zero-copy decode and the session
 * build: `decode_mb_per_s` (readTraceFile's mmap path, with
 * per-decode allocation counts and bytes), `session_build_ms`
 * (the one-pass flat build, with its allocations), `render` (the
 * fixture's full /v1/patterns body: MB/s and allocations per
 * render), `cache_load` (verify + deserialize MB/s of the fixture's
 * `.ares` entry and the merge of four copies of its summary),
 * `ingest` (live-ingest throughput and per-epoch cost),
 * plus `obs_pipeline` (pool task count, cache hit rate, queue-depth
 * high-water mark from the always-on metrics registry). `--smoke`
 * prints only those lines with few iterations — that mode backs the
 * `perf` CTest label.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "app/study.hh"
#include "study_util.hh"
#include "core/aggregate.hh"
#include "core/concurrency.hh"
#include "core/figure_json.hh"
#include "core/location.hh"
#include "core/overview.hh"
#include "core/pattern.hh"
#include "core/pattern_stats.hh"
#include "core/triggers.hh"
#include "engine/ingest.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "serve/store.hh"
#include "trace/io.hh"
#include "viz/sketch.hh"

namespace
{

/**
 * Process-wide allocation counters. The container runs this bench
 * on a single core, so wall time can't show the zero-copy wins
 * directly; heap traffic (allocation count and bytes, a proxy
 * for bytes copied) is the hardware-independent measure the JSON
 * lines report.
 * @{
 */
std::atomic<std::uint64_t> g_allocCount{0};
std::atomic<std::uint64_t> g_allocBytes{0};

struct AllocSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

AllocSnapshot
allocNow()
{
    return {g_allocCount.load(std::memory_order_relaxed),
            g_allocBytes.load(std::memory_order_relaxed)};
}

AllocSnapshot
allocSince(const AllocSnapshot &start)
{
    const AllocSnapshot now = allocNow();
    return {now.count - start.count, now.bytes - start.bytes};
}
/** @} */

} // namespace

// The counting operator new below wraps malloc, so the matching
// operator delete must call free. GCC's new/delete pairing
// heuristic cannot see through replaced global operators and would
// flag every inlined delete site in this TU as a mismatch.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(size, std::memory_order_relaxed);
    if (void *ptr = std::malloc(size == 0 ? 1 : size))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

namespace
{

using namespace lag;

/** One cached 60 s GanttProject session (trace bytes + session). */
struct Fixture
{
    std::string bytes;
    core::Session session;
    std::size_t episodes;

    Fixture()
        : bytes([] {
              app::AppParams params =
                  app::catalogApp("GanttProject");
              params.sessionLength = secToNs(60);
              return trace::serializeTrace(
                  app::runSession(params, 0).trace);
          }()),
          session(core::Session::fromTrace(
              trace::deserializeTrace(bytes))),
          episodes(session.episodes().size())
    {
    }

    static const Fixture &
    get()
    {
        static const Fixture fixture;
        return fixture;
    }
};

void
BM_TraceDecode(benchmark::State &state)
{
    const Fixture &f = Fixture::get();
    std::optional<trace::Trace> t;
    for (auto _ : state) {
        // Free the previous iteration's records untimed: this
        // measures decoding, not the allocator tearing them down.
        state.PauseTiming();
        t.reset();
        state.ResumeTiming();
        t.emplace(trace::deserializeTrace(f.bytes));
        benchmark::DoNotOptimize(t->events.data());
    }
    state.counters["episodes/s"] = benchmark::Counter(
        static_cast<double>(f.episodes * state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceDecode)->Unit(benchmark::kMillisecond);

void
BM_SessionBuild(benchmark::State &state)
{
    const Fixture &f = Fixture::get();
    std::optional<core::Session> s;
    for (auto _ : state) {
        // Decode, and free the previous session, untimed.
        state.PauseTiming();
        s.reset();
        trace::Trace t = trace::deserializeTrace(f.bytes);
        state.ResumeTiming();
        s.emplace(core::Session::fromTrace(std::move(t)));
        benchmark::DoNotOptimize(s->episodes().data());
    }
    state.counters["episodes/s"] = benchmark::Counter(
        static_cast<double>(f.episodes * state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SessionBuild)->Unit(benchmark::kMillisecond);

void
BM_PatternMining(benchmark::State &state)
{
    const Fixture &f = Fixture::get();
    const core::PatternMiner miner(msToNs(100));
    for (auto _ : state) {
        core::PatternSet set = miner.mine(f.session);
        benchmark::DoNotOptimize(set.patterns.data());
    }
    state.counters["episodes/s"] = benchmark::Counter(
        static_cast<double>(f.episodes * state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PatternMining)->Unit(benchmark::kMillisecond);

void
BM_FullAnalysisSuite(benchmark::State &state)
{
    const Fixture &f = Fixture::get();
    const core::PatternMiner miner(msToNs(100));
    for (auto _ : state) {
        const core::PatternSet set = miner.mine(f.session);
        const auto overview =
            core::computeOverview(f.session, set, msToNs(100));
        const auto triggers =
            core::analyzeTriggers(f.session, msToNs(100));
        const auto location =
            core::analyzeLocation(f.session, msToNs(100));
        const auto concurrency =
            core::analyzeConcurrency(f.session, msToNs(100));
        const auto states =
            core::analyzeGuiStates(f.session, msToNs(100));
        const auto occurrence = core::occurrenceShares(set);
        const auto cdf = core::patternCdf(set);
        benchmark::DoNotOptimize(overview.tracedCount);
        benchmark::DoNotOptimize(triggers.all.input);
        benchmark::DoNotOptimize(location.all.gcFraction);
        benchmark::DoNotOptimize(concurrency.meanRunnableAll);
        benchmark::DoNotOptimize(states.all.blocked);
        benchmark::DoNotOptimize(occurrence.always);
        benchmark::DoNotOptimize(cdf.size());
    }
    // The paper's pipeline: ~250k episodes in 15 min = ~280/s.
    state.counters["episodes/s"] = benchmark::Counter(
        static_cast<double>(f.episodes * state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["paper_episodes/s"] = 280;
}
BENCHMARK(BM_FullAnalysisSuite)->Unit(benchmark::kMillisecond);

void
BM_SketchRender(benchmark::State &state)
{
    const Fixture &f = Fixture::get();
    // Slowest episode, like the examples render.
    const core::Episode *slowest = &f.session.episodes()[0];
    for (const auto &episode : f.session.episodes()) {
        if (episode.duration() > slowest->duration())
            slowest = &episode;
    }
    for (auto _ : state) {
        const viz::SvgDocument doc =
            viz::renderEpisodeSketch(f.session, *slowest);
        benchmark::DoNotOptimize(doc.finish().size());
    }
}
BENCHMARK(BM_SketchRender)->Unit(benchmark::kMillisecond);

void
BM_SessionSimulation(benchmark::State &state)
{
    // Measurement-side throughput: simulate 10 s of CrosswordSage.
    app::AppParams params = app::catalogApp("CrosswordSage");
    params.sessionLength = secToNs(10);
    for (auto _ : state) {
        auto result = app::runSession(
            params, static_cast<std::uint32_t>(state.iterations()));
        benchmark::DoNotOptimize(result.trace.events.data());
    }
    state.counters["sim_s/s"] = benchmark::Counter(
        10.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SessionSimulation)->Unit(benchmark::kMillisecond);

/** Wall time of @p fn in milliseconds. */
template <typename Fn>
double
timedMs(const Fn &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

/**
 * Trace decode throughput of readTraceFile (the mmap zero-copy
 * path) as one JSON line, with heap traffic per decode: only the
 * decoded structures are allocated, never a copy of the file.
 */
void
reportDecodeThroughput(const Fixture &f, int iterations)
{
    const std::string path = "lagalyzer-perf-decode.trace";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(f.bytes.data(),
                  static_cast<std::streamsize>(f.bytes.size()));
    }

    const double mb =
        static_cast<double>(f.bytes.size()) / (1024.0 * 1024.0);
    const AllocSnapshot start = allocNow();
    const double ms = timedMs([&] {
        for (int i = 0; i < iterations; ++i) {
            trace::Trace t = trace::readTraceFile(path);
            benchmark::DoNotOptimize(t.events.data());
        }
    }) / iterations;
    AllocSnapshot allocs = allocSince(start);
    allocs.count /= static_cast<std::uint64_t>(iterations);
    allocs.bytes /= static_cast<std::uint64_t>(iterations);
    std::filesystem::remove(path);

    std::printf(
        "{\"bench\":\"decode_mb_per_s\",\"file_mb\":%.2f,"
        "\"mapped_mb_per_s\":%.1f,\"mapped_allocs\":%llu,"
        "\"mapped_alloc_bytes\":%llu}\n",
        mb, ms > 0.0 ? mb / (ms / 1000.0) : 0.0,
        static_cast<unsigned long long>(allocs.count),
        static_cast<unsigned long long>(allocs.bytes));
    std::fflush(stdout);
}

/**
 * Session build time and heap traffic as one JSON line: the one-pass
 * flat build from already decoded traces (decoding stays off the
 * clock).
 */
void
reportSessionBuild(const Fixture &f, int iterations)
{
    std::vector<trace::Trace> traces;
    traces.reserve(static_cast<std::size_t>(iterations));
    for (int i = 0; i < iterations; ++i)
        traces.push_back(trace::deserializeTrace(f.bytes));

    const AllocSnapshot start = allocNow();
    const double ms = timedMs([&] {
        for (trace::Trace &t : traces) {
            core::Session s = core::Session::fromTrace(std::move(t));
            benchmark::DoNotOptimize(s.episodes().data());
        }
    }) / iterations;
    AllocSnapshot allocs = allocSince(start);
    allocs.count /= static_cast<std::uint64_t>(iterations);
    allocs.bytes /= static_cast<std::uint64_t>(iterations);

    std::printf(
        "{\"bench\":\"session_build_ms\",\"build_ms\":%.2f,"
        "\"allocs\":%llu,\"alloc_bytes\":%llu}\n",
        ms, static_cast<unsigned long long>(allocs.count),
        static_cast<unsigned long long>(allocs.bytes));
    std::fflush(stdout);
}

/**
 * `/v1/patterns` render cost as one JSON line: the fixture session's
 * full pattern list (mined, merged as a one-session app) rendered by
 * core::patternsJson, with MB/s and heap allocations per render.
 * The same render of the first half of the patterns reports
 * `half_allocs`: the body is reserved once, so the count is a
 * constant, not a function of the pattern count.
 */
void
reportRender(const Fixture &f, int iterations)
{
    const core::PatternMiner miner(msToNs(100));
    const core::MergedPatternSet merged =
        core::mergePatternSets({miner.mine(f.session)});
    core::MergedPatternSet half;
    half.sessionCount = merged.sessionCount;
    half.patterns.assign(
        merged.patterns.begin(),
        merged.patterns.begin() +
            static_cast<std::ptrdiff_t>(merged.patterns.size() / 2));

    const auto allocsPerRender = [&](const core::MergedPatternSet &set,
                                     std::size_t &body_bytes) {
        const AllocSnapshot start = allocNow();
        for (int i = 0; i < iterations; ++i) {
            const std::string body =
                core::patternsJson("GanttProject", set, "episodes", 0);
            body_bytes = body.size();
            benchmark::DoNotOptimize(body.data());
        }
        return allocSince(start).count /
               static_cast<std::uint64_t>(iterations);
    };
    std::size_t half_bytes = 0;
    const std::uint64_t half_allocs = allocsPerRender(half, half_bytes);
    std::size_t bytes = 0;
    std::uint64_t allocs = 0;
    const double ms = timedMs([&] {
        allocs = allocsPerRender(merged, bytes);
    }) / iterations;

    const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
    std::printf("{\"bench\":\"render\",\"patterns\":%zu,"
                "\"body_mb\":%.3f,\"render_ms\":%.3f,"
                "\"render_mb_per_s\":%.1f,\"allocs\":%llu,"
                "\"half_allocs\":%llu}\n",
                merged.patterns.size(), mb, ms,
                ms > 0.0 ? mb / (ms / 1000.0) : 0.0,
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(half_allocs));
    std::fflush(stdout);
}

/**
 * Warm-start cost of one `.ares` entry as one JSON line: the smoke
 * fixture's analysis serialized once, then verified (payload CRC32C)
 * and deserialized per iteration (`load_mb_per_s`, no file I/O), and
 * core::mergeAnalyses over four copies of its pattern summary — the
 * merge of a four-session app (`merge_ms`).
 */
void
reportCacheLoad(const Fixture &f, int iterations)
{
    const engine::SessionAnalysis analysis =
        engine::analyzeSession(f.session, msToNs(100));
    const std::string entry = engine::serializeSessionAnalysis(analysis);
    const double load_ms = timedMs([&] {
        for (int i = 0; i < iterations; ++i) {
            const engine::SessionAnalysis loaded =
                engine::deserializeSessionAnalysis(entry);
            benchmark::DoNotOptimize(loaded.patternKeys.data());
        }
    }) / iterations;
    const std::vector<const core::PatternSetSummary *> four(
        4, &analysis.patternSummary);
    const double merge_ms = timedMs([&] {
        for (int i = 0; i < iterations; ++i) {
            const core::MergedPatternSet merged = core::mergeAnalyses(four);
            benchmark::DoNotOptimize(merged.patterns.data());
        }
    }) / iterations;

    const double mb = static_cast<double>(entry.size()) / (1024.0 * 1024.0);
    std::printf("{\"bench\":\"cache_load\",\"entry_bytes\":%zu,"
                "\"patterns\":%zu,\"load_ms\":%.4f,"
                "\"load_mb_per_s\":%.1f,\"merge_ms\":%.4f}\n",
                entry.size(), analysis.patternSummary.patterns.size(),
                load_ms, load_ms > 0.0 ? mb / (load_ms / 1000.0) : 0.0,
                merge_ms);
    std::fflush(stdout);
}

/** One full study pass (simulate + analyze) on @p jobs workers. */
double
timedStudyPass(app::StudyConfig config, std::uint32_t jobs)
{
    std::filesystem::remove_all(config.cacheDir);
    config.jobs = jobs;
    app::Study study(config);
    const auto start = std::chrono::steady_clock::now();
    study.ensureTraces();
    const auto analyses = bench::analyzeStudy(study);
    benchmark::DoNotOptimize(analyses.size());
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

/**
 * Serial vs parallel wall time of a full quick study, reported as
 * one JSON line. The cache directory is private to this comparison
 * and cleared before each pass so both sides do the same work.
 */
void
reportStudySpeedup(std::uint32_t jobs)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(5);
    config.cacheDir = "lagalyzer-cache-perf-compare";
    if (jobs == 0)
        jobs = app::defaultJobs();

    const double serial_s = timedStudyPass(config, 1);
    const double parallel_s = timedStudyPass(config, jobs);
    std::filesystem::remove_all(config.cacheDir);

    std::printf("{\"bench\":\"study_speedup\","
                "\"workload\":\"quickStudy(5)\","
                "\"serial_s\":%.3f,\"parallel_s\":%.3f,"
                "\"jobs\":%u,\"speedup\":%.2f}\n",
                serial_s, parallel_s, jobs,
                parallel_s > 0.0 ? serial_s / parallel_s : 0.0);
    std::fflush(stdout);
}

/**
 * Incremental aggregation vs full recompute on a warm analysis
 * cache, as one JSON line. A cold pass populates a private trace +
 * analysis cache; a recompute pass over an emptied analysis cache
 * decodes and re-analyzes every session; a warm incremental pass
 * must answer purely from `.ares` entries. The trace decoder's byte
 * counter is sampled around the warm pass and reported — under
 * `--incremental-smoke` a nonzero delta fails the run, proving the
 * decoder never touched a trace on the warm path. Returns false on
 * that violation.
 */
bool
reportIncrementalSpeedup(std::uint32_t jobs, bool enforce)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(5);
    config.cacheDir = "lagalyzer-cache-perf-incremental";
    config.jobs = jobs;
    std::filesystem::remove_all(config.cacheDir);

    // Cold: simulate + analyze, populating both caches.
    const double cold_s = timedMs([&] {
        app::Study study(config);
        const auto analyses = bench::analyzeStudy(study);
        benchmark::DoNotOptimize(analyses.size());
    }) / 1000.0;

    // Recompute: warm trace cache, but an empty analysis cache, so
    // every session is decoded and re-analyzed — what every run paid
    // before the incremental path.
    std::filesystem::remove_all(config.cacheDir + "/analysis");
    const double recompute_s = timedMs([&] {
        app::Study study(config);
        const auto analyses = bench::analyzeStudy(study);
        benchmark::DoNotOptimize(analyses.size());
    }) / 1000.0;

    // Warm incremental: .ares entries only; the decoder must idle.
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    const std::uint64_t decode_before =
        before.counterValue("trace.decode.bytes");
    const double warm_s = timedMs([&] {
        app::Study study(config);
        const auto analyses = bench::analyzeStudy(study);
        benchmark::DoNotOptimize(analyses.size());
    }) / 1000.0;
    const obs::MetricsSnapshot after = obs::metrics().snapshot();
    const std::uint64_t decoded_bytes =
        after.counterValue("trace.decode.bytes") - decode_before;
    const std::uint64_t from_cache =
        after.counterValue("cache.aggregate.cached") -
        before.counterValue("cache.aggregate.cached");
    const std::uint64_t recomputed =
        after.counterValue("cache.aggregate.recomputed") -
        before.counterValue("cache.aggregate.recomputed");
    std::filesystem::remove_all(config.cacheDir);

    std::printf(
        "{\"bench\":\"incremental_speedup\","
        "\"workload\":\"quickStudy(5)\",\"cold_s\":%.3f,"
        "\"recompute_s\":%.3f,\"warm_s\":%.3f,"
        "\"warm_decode_bytes\":%llu,\"warm_from_cache\":%llu,"
        "\"warm_recomputed\":%llu,\"speedup\":%.2f}\n",
        cold_s, recompute_s, warm_s,
        static_cast<unsigned long long>(decoded_bytes),
        static_cast<unsigned long long>(from_cache),
        static_cast<unsigned long long>(recomputed),
        warm_s > 0.0 ? recompute_s / warm_s : 0.0);
    std::fflush(stdout);

    if (enforce && (decoded_bytes != 0 || recomputed != 0)) {
        std::fprintf(stderr,
                     "incremental smoke FAILED: warm pass decoded "
                     "%llu trace byte(s) and recomputed %llu "
                     "session(s); expected a pure cache aggregation\n",
                     static_cast<unsigned long long>(decoded_bytes),
                     static_cast<unsigned long long>(recomputed));
        return false;
    }
    return true;
}

/** What streaming the fixture through one pipeline cost. */
struct IngestRun
{
    std::uint64_t records = 0;
    std::uint64_t recomputed = 0; ///< ingest.recomputed_episodes
    std::uint64_t epochs = 0;
    std::size_t published = 0;
    double wallMs = 0.0;  ///< the whole stream, writes included
    double totalMs = 0.0; ///< epochs only
    double maxEpochMs = 0.0;

    double
    meanEpochMs() const
    {
        return epochs > 0 ? totalMs / static_cast<double>(epochs) : 0.0;
    }
};

/** Stream the fixture trace into a fresh IngestPipeline in @p chunks
 * appends, cutting an epoch after every chunk (then until the source
 * completes) — the `lagd --follow` hot loop without sockets. */
IngestRun
streamFixture(const Fixture &f, engine::ThreadPool &pool, int chunks)
{
    const std::string path = "lagalyzer-perf-ingest.lag";
    std::filesystem::remove(path);

    IngestRun run;
    engine::IngestOptions options;
    engine::IngestPipeline pipeline(
        pool, options,
        [&run](std::vector<engine::IngestUpdate> updates) {
            run.published += updates.size();
        });
    pipeline.addSource(path);
    const obs::MetricsSnapshot before = obs::metrics().snapshot();

    const auto epoch = [&] {
        const double ms = timedMs([&] { pipeline.runEpoch(); });
        run.totalMs += ms;
        run.maxEpochMs = std::max(run.maxEpochMs, ms);
    };
    const std::size_t chunk =
        f.bytes.size() / static_cast<std::size_t>(chunks) + 1;
    run.wallMs = timedMs([&] {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        for (std::size_t offset = 0; offset < f.bytes.size();) {
            const std::size_t n =
                std::min(chunk, f.bytes.size() - offset);
            out.write(f.bytes.data() + offset,
                      static_cast<std::streamsize>(n));
            out.flush();
            offset += n;
            epoch();
        }
        while (!pipeline.allComplete())
            epoch();
    });
    std::filesystem::remove(path);

    run.epochs = pipeline.epoch();
    const obs::MetricsSnapshot after = obs::metrics().snapshot();
    run.records = after.counterValue("ingest.records") -
                  before.counterValue("ingest.records");
    run.recomputed =
        after.counterValue("ingest.recomputed_episodes") -
        before.counterValue("ingest.recomputed_episodes");
    return run;
}

/**
 * Live-ingest throughput and per-epoch cost as one JSON line.
 * `ingest_mlines_per_s` is decoded records per wall second (in
 * millions) when the fixture streams in @p chunks appends, the
 * streaming analogue of the batch decode line above;
 * `ingest_lag_ms` is that run's worst epoch turnaround (poll +
 * append + fold + publish), i.e. how stale a live dashboard can
 * observe the store; `recomputed_episodes` counts the episodes its
 * epochs recomputed instead of folding once. `epoch_cost` streams
 * the same file in 16 and in 256 appends. An epoch that costs what
 * it adds has a fixed part (poll, pool hand-off, a finish linear in
 * the session's patterns and episodes) plus a part proportional to
 * its new records, so its mean falls with more appends; re-analyzing
 * the whole session each epoch would keep the mean about the same
 * and make the total grow with the append count.
 */
void
reportIngestThroughput(const Fixture &f, std::uint32_t jobs,
                       int chunks)
{
    if (jobs == 0)
        jobs = app::defaultJobs();
    engine::ThreadPool pool(jobs);
    const IngestRun main_run = streamFixture(f, pool, chunks);
    const IngestRun few = streamFixture(f, pool, 16);
    const IngestRun many = streamFixture(f, pool, 256);

    const double total_s = main_run.wallMs / 1000.0;
    std::printf(
        "{\"bench\":\"ingest\",\"file_mb\":%.2f,\"records\":%llu,"
        "\"epochs\":%llu,\"published\":%llu,"
        "\"ingest_mlines_per_s\":%.3f,\"ingest_lag_ms\":%.2f,"
        "\"recomputed_episodes\":%llu,\"jobs\":%u,"
        "\"epoch_cost\":[",
        static_cast<double>(f.bytes.size()) / (1024.0 * 1024.0),
        static_cast<unsigned long long>(main_run.records),
        static_cast<unsigned long long>(main_run.epochs),
        static_cast<unsigned long long>(main_run.published),
        total_s > 0.0
            ? static_cast<double>(main_run.records) / total_s / 1e6
            : 0.0,
        main_run.maxEpochMs,
        static_cast<unsigned long long>(main_run.recomputed), jobs);
    const char *sep = "";
    for (const auto &[count, run] : {std::pair{16, few}, {256, many}}) {
        std::printf("%s{\"chunks\":%d,\"epochs\":%llu,"
                    "\"mean_epoch_ms\":%.3f,\"total_ms\":%.2f}",
                    sep, count,
                    static_cast<unsigned long long>(run.epochs),
                    run.meanEpochMs(), run.totalMs);
        sep = ",";
    }
    std::printf("]}\n");
    std::fflush(stdout);
}

/**
 * End-to-end lagd query latency as one JSON line. Boots an
 * in-process HotStore + HttpServer over a tiny private study on an
 * ephemeral port, then measures @p requests client-side round trips
 * (TCP connect + request + response) cycling through the endpoint
 * mix a dashboard would hit. p50/p99 are over individual requests.
 */
void
reportQueryLatency(std::uint32_t jobs, int requests)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(3);
    config.cacheDir = "lagalyzer-cache-perf-serve";
    config.jobs = jobs;
    config.apps.resize(3);
    config.sessionsPerApp = 2;
    std::filesystem::remove_all(config.cacheDir);

    engine::ThreadPool pool(config.jobs);
    serve::HotStore store(config, pool);
    store.load();
    serve::Router router;
    store.installRoutes(router);
    serve::HttpServer server(serve::ServerConfig{}, // port 0
                             std::move(router), pool);
    server.start();

    serve::ClientOptions client;
    client.port = server.port();
    const std::string &app_name = config.apps[0].name;
    const std::string targets[] = {
        "/healthz",
        "/v1/apps",
        "/v1/patterns?app=" + app_name +
            "&sort=total_lag&limit=10",
        "/v1/cdf?app=" + app_name,
        "/v1/figures/table3",
    };

    std::vector<double> latencies_us;
    latencies_us.reserve(static_cast<std::size_t>(requests));
    bool all_ok = true;
    for (int i = 0; i < requests; ++i) {
        const std::string &target =
            targets[static_cast<std::size_t>(i) % std::size(targets)];
        const auto start = std::chrono::steady_clock::now();
        const serve::ClientResult result =
            serve::httpRequest(client, "GET", target);
        const std::chrono::duration<double, std::micro> elapsed =
            std::chrono::steady_clock::now() - start;
        latencies_us.push_back(elapsed.count());
        all_ok = all_ok && result.ok && result.status == 200;
    }
    server.stop();
    std::filesystem::remove_all(config.cacheDir);

    std::sort(latencies_us.begin(), latencies_us.end());
    const auto percentile = [&](double p) {
        const auto rank = static_cast<std::size_t>(
            p * static_cast<double>(latencies_us.size() - 1));
        return latencies_us[rank];
    };
    std::printf("{\"bench\":\"query_latency\",\"requests\":%d,"
                "\"all_ok\":%s,\"query_p50_us\":%.1f,"
                "\"query_p99_us\":%.1f}\n",
                requests, all_ok ? "true" : "false",
                percentile(0.50), percentile(0.99));
    std::fflush(stdout);
}

/**
 * Engine self-observation totals for the whole bench run, as one
 * JSON line: how many tasks the pool ran, how much the result cache
 * saved (hit rate), the deepest queue backlog, and the decode volume
 * behind the numbers above. Reads the always-on metrics registry
 * (src/obs), so it reflects every pass that ran before it.
 */
void
reportObsMetrics()
{
    const obs::MetricsSnapshot snap = obs::metrics().snapshot();
    const std::uint64_t tasks = snap.counterValue("pool.task.count");
    const std::uint64_t hits = snap.counterValue("cache.hit");
    const std::uint64_t misses = snap.counterValue("cache.miss");
    const double hit_rate =
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;

    std::printf(
        "{\"bench\":\"obs_pipeline\",\"pool_tasks\":%llu,"
        "\"queue_depth_max\":%lld,"
        "\"cache_hits\":%llu,\"cache_misses\":%llu,"
        "\"cache_hit_rate\":%.3f,\"decode_count\":%llu,"
        "\"decode_bytes\":%llu}\n",
        static_cast<unsigned long long>(tasks),
        static_cast<long long>(snap.gaugeMax("pool.queue.depth")),
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses), hit_rate,
        static_cast<unsigned long long>(
            snap.counterValue("trace.decode.count")),
        static_cast<unsigned long long>(
            snap.counterValue("trace.decode.bytes")));
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint32_t jobs = lag::app::parseJobsOption(argc, argv);

    bool smoke = false;
    bool incremental_smoke = false;
    {
        int out = 1;
        for (int in = 1; in < argc; ++in) {
            if (std::string_view(argv[in]) == "--smoke")
                smoke = true;
            else if (std::string_view(argv[in]) ==
                     "--incremental-smoke")
                incremental_smoke = true;
            else
                argv[out++] = argv[in];
        }
        argc = out;
    }

    if (incremental_smoke) {
        // CI gate: the warm pass of a twice-run study must never
        // touch the trace decoder. Exits nonzero when it does.
        return reportIncrementalSpeedup(jobs, true) ? 0 : 1;
    }

    if (smoke) {
        // CI smoke (`ctest -L perf`): just the pipeline JSON lines,
        // few iterations, no study simulation, no microbenchmarks.
        const Fixture &f = Fixture::get();
        reportDecodeThroughput(f, 3);
        reportSessionBuild(f, 3);
        reportRender(f, 20);
        reportCacheLoad(f, 20);
        reportIngestThroughput(f, jobs, 16);
        reportQueryLatency(jobs, 40);
        reportObsMetrics();
        return 0;
    }

    const char *skip = std::getenv("LAGALYZER_SKIP_SPEEDUP");
    if (skip == nullptr || skip[0] == '\0' || skip[0] == '0') {
        reportStudySpeedup(jobs);
        reportIncrementalSpeedup(jobs, false);
    }

    const Fixture &f = Fixture::get();
    reportDecodeThroughput(f, 10);
    reportSessionBuild(f, 10);
    reportRender(f, 100);
    reportCacheLoad(f, 100);
    reportIngestThroughput(f, jobs, 64);
    reportQueryLatency(jobs, 200);
    reportObsMetrics();

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
