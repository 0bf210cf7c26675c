/**
 * @file
 * Tests for incremental cross-session aggregation from the result
 * cache: aggregateFromCache must be byte-identical to the direct
 * decode-and-mine path at any worker count on any mix of cache hits
 * and misses, every app must finish (merge, figures, digest) the
 * same at any worker count and per app, the digests load() and
 * store() report must equal the file digests, a fully warm cache
 * must never touch the trace decoder, old-version entries must read
 * as misses, hostile app names must stay inside the analysis
 * directory, and eviction must keep honest books when removal or
 * stat fails.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/study.hh"
#include "core/aggregate.hh"
#include "core/figure_json.hh"
#include "engine/incremental.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "obs/metrics.hh"
#include "scratch_dir.hh"

namespace lag::engine
{
namespace
{

namespace fs = std::filesystem;
using test::ScratchDir;

/** A tiny quick study (first 2 apps) with a private cache dir. */
app::StudyConfig
tinyStudy(const std::string &cache_dir)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(5);
    config.apps.resize(2);
    config.cacheDir = cache_dir;
    return config;
}

/** A hand-built analysis with a populated pattern summary. */
SessionAnalysis
sampleAnalysis()
{
    SessionAnalysis a;
    a.overview.tracedCount = 11;
    a.cdf = {{0.0, 0.0}, {1.0, 1.0}};
    a.patternKeys = {7ull};
    a.episodeDurations = {msToNs(3)};
    a.patternSummary.perceptibleThreshold = msToNs(100);
    core::PatternSummary p;
    p.signature = "L app.A.run";
    p.key = 7;
    p.episodeCount = 1;
    p.minLag = msToNs(3);
    p.maxLag = msToNs(3);
    p.totalLag = msToNs(3);
    a.patternSummary.patterns.push_back(std::move(p));
    return a;
}

/** Canonical dump of a merged set for equality comparison (every
 * field is integral or a string, so text equality is bit equality). */
std::string
dumpMerged(const core::MergedPatternSet &set)
{
    std::ostringstream out;
    out << set.sessionCount << '|' << set.perceptibleThreshold
        << '\n';
    for (const core::MergedPattern &p : set.patterns) {
        out << p.signature << '|' << p.key << '|';
        for (const std::size_t s : p.sessions)
            out << s << ',';
        out << '|';
        for (const std::size_t c : p.episodeCounts)
            out << c << ',';
        out << '|' << p.totalEpisodes << '|' << p.totalPerceptible
            << '|' << p.minLag << '|' << p.maxLag << '|' << p.totalLag
            << '|' << static_cast<int>(p.occurrence) << '|'
            << p.descendants << '|' << p.depth << '\n';
    }
    return out.str();
}

TEST(EngineIncremental, MatchesDirectAnalysisAcrossCacheStates)
{
    const ScratchDir dir("lagalyzer-cache-test-incr-equiv");
    app::Study study(tinyStudy(dir.path));
    const app::StudyConfig &config = study.config();
    const DurationNs threshold = config.perceptibleThreshold;
    study.ensureTraces();

    std::vector<std::string> names;
    for (const auto &app : config.apps)
        names.push_back(app.name);
    const std::size_t total = names.size() * config.sessionsPerApp;

    // Reference: decode every session and run the direct path.
    std::vector<std::vector<std::string>> reference_grid(
        names.size());
    std::vector<std::string> reference_merged;
    for (std::size_t a = 0; a < names.size(); ++a) {
        std::vector<core::Session> sessions;
        for (std::uint32_t s = 0; s < config.sessionsPerApp; ++s)
            sessions.push_back(study.loadSession(a, s));
        for (const core::Session &session : sessions) {
            reference_grid[a].push_back(serializeSessionAnalysis(
                analyzeSession(session, threshold)));
        }
        reference_merged.push_back(dumpMerged(
            core::minePatternsAcrossSessions(sessions, threshold)));
    }

    const ResultCache cache(config.cacheDir, config.fingerprint());
    const SessionLoader loader =
        [&study](std::size_t a, std::uint32_t s) {
            return study.loadSession(a, s);
        };

    const auto check = [&](std::uint32_t jobs,
                           const ResultCache &results,
                           std::size_t expect_cached,
                           std::size_t expect_recomputed,
                           const char *label) {
        ThreadPool pool(jobs);
        const StudyAggregate aggregate =
            aggregateFromCache(results, names, config.sessionsPerApp,
                               threshold, pool, loader);
        EXPECT_EQ(aggregate.sessionsFromCache, expect_cached)
            << label;
        EXPECT_EQ(aggregate.sessionsRecomputed, expect_recomputed)
            << label;
        ASSERT_EQ(aggregate.grid.size(), names.size()) << label;
        ASSERT_EQ(aggregate.apps.size(), names.size()) << label;
        for (std::size_t a = 0; a < names.size(); ++a) {
            ASSERT_EQ(aggregate.grid[a].size(),
                      config.sessionsPerApp)
                << label;
            for (std::size_t s = 0; s < aggregate.grid[a].size();
                 ++s) {
                EXPECT_EQ(
                    serializeSessionAnalysis(aggregate.grid[a][s]),
                    reference_grid[a][s])
                    << label << ": app " << a << " session " << s;
            }
            EXPECT_EQ(dumpMerged(aggregate.apps[a].merged),
                      reference_merged[a])
                << label << ": app " << a;
        }
    };

    // Cold cache, serial: every session recomputed (and stored).
    check(1, cache, 0, total, "cold/serial");
    // Warm cache, parallel: every session answered from disk.
    check(8, cache, total, 0, "warm/parallel");
    // Partially evicted: exactly the missing entry is recomputed.
    ASSERT_TRUE(fs::remove(cache.entryPath(names[1], 2)));
    check(8, cache, total - 1, 1, "partial/parallel");
    // A fresh cache directory recomputes everything, same bytes.
    const ScratchDir fresh("lagalyzer-cache-test-incr-fresh");
    check(4, ResultCache(fresh.path, config.fingerprint()), 0, total,
          "fresh cache");
}

/** Every served byte of one app's figure inputs: each figure and
 * table over the app alone, plus its CDF (to_chars is exact, so
 * equal text is equal doubles). */
std::string
dumpFigures(const core::AppFigureData &figures)
{
    std::string out = core::cdfJson(
        figures.name, figures.cdfEpisodesAtPatternPercent);
    for (const std::string &id : core::figureIds())
        out += '\n' + core::figureJson(id, {&figures});
    return out;
}

TEST(EngineIncremental, FinishedAppsIdenticalAtAnyJobsAndPerApp)
{
    const ScratchDir dir("lagalyzer-cache-test-incr-finish");
    app::Study study(tinyStudy(dir.path));
    const app::StudyConfig &config = study.config();
    study.ensureTraces();

    std::vector<std::string> names;
    for (const auto &app : config.apps)
        names.push_back(app.name);
    const ResultCache cache(config.cacheDir, config.fingerprint());
    const SessionLoader loader =
        [&study](std::size_t a, std::uint32_t s) {
            return study.loadSession(a, s);
        };
    const auto aggregate = [&](std::uint32_t jobs) {
        ThreadPool pool(jobs);
        return aggregateFromCache(cache, names, config.sessionsPerApp,
                                  config.perceptibleThreshold, pool,
                                  loader);
    };

    // Cold at one job (every digest comes from store()), then warm
    // at four (every digest comes from load()).
    const StudyAggregate serial = aggregate(1);
    const StudyAggregate parallel = aggregate(4);
    ASSERT_EQ(serial.sessionsRecomputed,
              names.size() * config.sessionsPerApp);
    ASSERT_EQ(parallel.sessionsFromCache,
              names.size() * config.sessionsPerApp);
    ASSERT_EQ(serial.apps.size(), names.size());
    ASSERT_EQ(parallel.apps.size(), names.size());

    // Each app alone, aggregated from inside a pool task (as lagd's
    // `/v1/refresh` does, inline on its HTTP worker), its loader
    // mapping the one local app index back to the study's.
    std::vector<AppAggregate> perApp(names.size());
    {
        ThreadPool pool(2);
        parallelFor(pool, names.size(), [&](std::size_t a) {
            perApp[a] = std::move(
                aggregateFromCache(
                    cache, {names[a]}, config.sessionsPerApp,
                    config.perceptibleThreshold, pool,
                    [&study, a](std::size_t, std::uint32_t s) {
                        return study.loadSession(a, s);
                    })
                    .apps.at(0));
        });
    }

    for (std::size_t a = 0; a < names.size(); ++a) {
        const AppAggregate &app = perApp[a];
        for (const StudyAggregate *study_aggregate :
             {&serial, &parallel}) {
            const AppAggregate &finished = study_aggregate->apps[a];
            EXPECT_EQ(dumpMerged(finished.merged),
                      dumpMerged(app.merged))
                << "app " << a;
            EXPECT_EQ(dumpFigures(finished.figures),
                      dumpFigures(app.figures))
                << "app " << a;
            EXPECT_EQ(finished.digest, app.digest) << "app " << a;
        }
        // The figure inputs are the session average of the grid row.
        std::vector<const SessionAnalysis *> row;
        for (const SessionAnalysis &analysis : parallel.grid[a])
            row.push_back(&analysis);
        EXPECT_EQ(dumpFigures(parallel.apps[a].figures),
                  dumpFigures(averageSessionAnalyses(names[a], row)))
            << "app " << a;
        // The digest in hand is the digest on disk.
        EXPECT_EQ(app.digest,
                  cache.appDigest(names[a], config.sessionsPerApp))
            << "app " << a;
    }
    EXPECT_NE(parallel.apps[0].digest, parallel.apps[1].digest);
}

TEST(EngineIncremental, LoadAndStoreReportTheEntryDigest)
{
    const ScratchDir dir("lagalyzer-cache-test-incr-digest");
    const ResultCache cache(dir.path, "fp");
    const std::uint64_t absent = cache.entryDigest("App", 0);

    const std::uint64_t stored =
        cache.store("App", 0, sampleAnalysis());
    EXPECT_EQ(stored, cache.entryDigest("App", 0));
    EXPECT_NE(stored, absent);
    std::uint64_t loaded = 0;
    ASSERT_TRUE(cache.load("App", 0, &loaded).has_value());
    EXPECT_EQ(loaded, stored);

    // Other content, other digest.
    SessionAnalysis other = sampleAnalysis();
    other.overview.tracedCount = 12;
    EXPECT_NE(cache.store("App", 1, other), stored);

    // Any damaged byte — header or payload — moves the file digest
    // and turns a load into a miss.
    const std::string path = cache.entryPath("App", 0);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    for (const std::size_t at : {std::size_t{0}, std::size_t{14},
                                 bytes.size() - 1}) {
        std::string damaged = bytes;
        damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
        {
            std::ofstream out(path,
                              std::ios::binary | std::ios::trunc);
            out.write(damaged.data(),
                      static_cast<std::streamsize>(damaged.size()));
        }
        EXPECT_NE(cache.entryDigest("App", 0), stored) << "byte " << at;
        EXPECT_NE(cache.entryDigest("App", 0), absent) << "byte " << at;
        EXPECT_FALSE(cache.load("App", 0).has_value()) << "byte " << at;
    }
}

TEST(EngineIncremental, WarmCacheNeverTouchesTheDecoder)
{
    const ScratchDir dir("lagalyzer-cache-test-incr-decoder");
    app::StudyConfig config = tinyStudy(dir.path);
    config.apps.resize(1);
    app::Study study(config);
    study.ensureTraces();

    std::vector<std::string> names{config.apps[0].name};
    const ResultCache cache(config.cacheDir, config.fingerprint());
    const SessionLoader loader =
        [&study](std::size_t a, std::uint32_t s) {
            return study.loadSession(a, s);
        };

    ThreadPool pool(4);
    // Cold pass populates every entry.
    aggregateFromCache(cache, names, config.sessionsPerApp,
                       config.perceptibleThreshold, pool, loader);

    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    const StudyAggregate warm = aggregateFromCache(
        cache, names, config.sessionsPerApp,
        config.perceptibleThreshold, pool, loader);
    const obs::MetricsSnapshot after = obs::metrics().snapshot();

    EXPECT_EQ(warm.sessionsFromCache, config.sessionsPerApp);
    EXPECT_EQ(warm.sessionsRecomputed, 0u);
    EXPECT_EQ(after.counterValue("trace.decode.bytes"),
              before.counterValue("trace.decode.bytes"))
        << "warm aggregation must not decode any trace";
    EXPECT_EQ(after.counterValue("trace.decode.count"),
              before.counterValue("trace.decode.count"));
}

TEST(EngineIncremental, OldVersionEntryReadsAsMiss)
{
    const ScratchDir dir("lagalyzer-cache-test-incr-version");
    const ResultCache cache(dir.path, "fp");
    cache.store("App", 0, sampleAnalysis());
    const std::string path = cache.entryPath("App", 0);
    ASSERT_TRUE(cache.load("App", 0).has_value());

    // Rewrite the version field (little-endian u32 after the 8-byte
    // magic) to v1. The checksum only covers the payload, so the
    // file is otherwise intact — the version check alone must turn
    // it into a miss, not an error.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = 1;
    bytes[9] = 0;
    bytes[10] = 0;
    bytes[11] = 0;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_FALSE(cache.load("App", 0).has_value());
}

TEST(EngineIncremental, HostileAppNamesStayInTheAnalysisDir)
{
    const ScratchDir dir("lagalyzer-cache-test-incr-hostile");
    const ResultCache cache(dir.path, "fp");

    const std::string hostile = "../../etc/pwn";
    const std::string path = cache.entryPath(hostile, 0);
    const std::string filename = fs::path(path).filename().string();
    // The whole name (not just a suffix) must live under analysis/:
    // no separators or dot-dot segments survive sanitization.
    EXPECT_EQ(fs::path(path).parent_path(),
              fs::path(dir.path) / "analysis");
    EXPECT_EQ(filename.find('/'), std::string::npos);
    EXPECT_EQ(filename.find(".."), std::string::npos);

    // Hostile names still round-trip...
    cache.store(hostile, 0, sampleAnalysis());
    EXPECT_TRUE(fs::exists(path));
    EXPECT_TRUE(cache.load(hostile, 0).has_value());

    // ...and two names with the same sanitized prefix cannot
    // collide: the raw name feeds the content hash.
    EXPECT_NE(cache.entryPath("a/b", 0), cache.entryPath("a.b", 0));
    cache.store("a/b", 0, sampleAnalysis());
    cache.store("a.b", 0, sampleAnalysis());
    EXPECT_TRUE(cache.load("a/b", 0).has_value());
    EXPECT_TRUE(cache.load("a.b", 0).has_value());

    // An empty name degrades to a readable placeholder.
    const std::string empty_name =
        fs::path(cache.entryPath("", 3)).filename().string();
    EXPECT_EQ(empty_name.rfind("app_s3_g", 0), 0u) << empty_name;
}

TEST(EngineIncremental, EvictBooksFailedRemovalsAsKept)
{
    const ScratchDir dir("lagalyzer-cache-test-incr-rmfail");
    const ResultCache cache(dir.path, "fp");
    for (std::uint32_t s = 0; s < 3; ++s)
        cache.store("App", s, sampleAnalysis());
    // A stale-generation entry that also refuses to go.
    const ResultCache stale(dir.path, "fp-old");
    stale.store("App", 0, sampleAnalysis());

    const auto entry_bytes = static_cast<std::uint64_t>(
        fs::file_size(cache.entryPath("App", 0)));

    // Budget for one entry, but every unlink fails: nothing may be
    // booked as removed and every byte must stay on the books.
    CacheEvictionPolicy policy;
    policy.maxBytes = entry_bytes;
    const CacheEvictionResult result = cache.evict(
        policy, [](const fs::path &) { return false; });

    EXPECT_EQ(result.removedFiles, 0u);
    EXPECT_EQ(result.removedBytes, 0u);
    EXPECT_EQ(result.keptFiles, 4u);
    EXPECT_EQ(result.keptBytes, 4 * entry_bytes);
    for (std::uint32_t s = 0; s < 3; ++s)
        EXPECT_TRUE(fs::exists(cache.entryPath("App", s)));
    EXPECT_TRUE(fs::exists(stale.entryPath("App", 0)));

    // A working remover under the same budget leaves one entry.
    const CacheEvictionResult cleaned = cache.evict(policy);
    EXPECT_EQ(cleaned.removedFiles, 3u);
    EXPECT_EQ(cleaned.keptFiles, 1u);
    EXPECT_EQ(cleaned.keptBytes, entry_bytes);
}

TEST(EngineIncremental, EvictKeepsEntriesItCannotStat)
{
    const ScratchDir dir("lagalyzer-cache-test-incr-statfail");
    const ResultCache cache(dir.path, "fp");
    cache.store("App", 0, sampleAnalysis());

    // A self-referential symlink with a live-generation name: every
    // stat on it fails with ELOOP. Before the fix a failed stat left
    // an epoch mtime, which any age budget read as "ancient" and
    // evicted; the entry must instead be kept and warned about.
    const std::string loop_name =
        fs::path(cache.entryPath("Loop", 7)).filename().string();
    const fs::path loop =
        fs::path(dir.path) / "analysis" / loop_name;
    fs::create_symlink(loop_name, loop);
    ASSERT_TRUE(fs::is_symlink(fs::symlink_status(loop)));

    CacheEvictionPolicy policy;
    policy.maxAgeSeconds = 3600;
    const CacheEvictionResult result = cache.evict(policy);

    EXPECT_EQ(result.removedFiles, 0u);
    EXPECT_EQ(result.keptFiles, 2u);
    EXPECT_TRUE(fs::is_symlink(fs::symlink_status(loop)))
        << "unstattable entry must survive eviction";
    EXPECT_TRUE(fs::exists(cache.entryPath("App", 0)));
    EXPECT_TRUE(cache.load("App", 0).has_value());
}

} // namespace
} // namespace lag::engine
