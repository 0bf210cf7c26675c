/**
 * @file
 * End-to-end tests of the parallel study pipeline: parallel output
 * is byte-identical to serial, the result cache round-trips and
 * rejects damage, truncated and old-format traces are regenerated,
 * and manifest writes never leave a torn file behind.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/study.hh"
#include "engine/result_cache.hh"
#include "trace/io.hh"
#include "trace/tailer.hh"
#include "util/hash.hh"
#include "scratch_dir.hh"

namespace lag::engine
{
namespace
{

namespace fs = std::filesystem;
using test::ScratchDir;

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** A tiny quick study (first 3 apps) with a private cache dir. */
app::StudyConfig
testStudy(const std::string &cache_dir, std::uint32_t jobs)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(5);
    config.apps.resize(3);
    config.cacheDir = cache_dir;
    config.jobs = jobs;
    return config;
}

/** A hand-built analysis with every field populated. */
SessionAnalysis
sampleAnalysis()
{
    SessionAnalysis a;
    a.overview.tracedCount = 321;
    a.overview.perceptibleCount = 17;
    a.triggers.all.input = 0.25;
    a.triggers.all.output = 0.5;
    a.triggers.all.async = 0.125;
    a.triggers.all.unspecified = 0.125;
    a.triggers.all.episodeCount = 321;
    a.triggers.perceptible.input = 0.75;
    a.triggers.perceptible.episodeCount = 17;
    a.location.all.appFraction = 0.4;
    a.location.all.libraryFraction = 0.3;
    a.location.all.gcFraction = 0.2;
    a.location.all.nativeFraction = 0.1;
    a.location.all.sampleCount = 9999;
    a.concurrency.meanRunnableAll = 1.5;
    a.concurrency.samplesAll = 4242;
    a.states.all.blocked = 0.125;
    a.states.all.runnable = 0.875;
    a.states.all.sampleCount = 777;
    a.occurrence.always = 0.3;
    a.occurrence.sometimes = 0.4;
    a.occurrence.once = 0.2;
    a.occurrence.never = 0.1;
    a.occurrence.patternCount = 55;
    a.cdf = {{0.0, 0.0}, {0.5, 0.8}, {1.0, 1.0}};
    a.patternKeys = {0xdeadbeefull, 42ull, 7ull};
    a.episodeDurations = {msToNs(1), msToNs(250), usToNs(300)};
    return a;
}

TEST(EngineStudy, ParallelOutputMatchesSerialByteForByte)
{
    const ScratchDir serialDir("lagalyzer-cache-test-serial");
    const ScratchDir parallelDir("lagalyzer-cache-test-parallel");

    app::Study serial(testStudy(serialDir.path, 1));
    app::Study parallel(testStudy(parallelDir.path, 8));

    const auto serialPaths = serial.ensureTraces();
    const auto parallelPaths = parallel.ensureTraces();
    ASSERT_EQ(serialPaths.size(), parallelPaths.size());

    const DurationNs threshold =
        serial.config().perceptibleThreshold;
    for (std::size_t a = 0; a < serialPaths.size(); ++a) {
        ASSERT_EQ(serialPaths[a].size(), parallelPaths[a].size());
        for (std::size_t s = 0; s < serialPaths[a].size(); ++s) {
            EXPECT_EQ(readFileBytes(serialPaths[a][s]),
                      readFileBytes(parallelPaths[a][s]))
                << "trace bytes diverge at app " << a << " session "
                << s;
        }
    }

    // The decoded sessions analyze to bit-identical results too.
    for (std::size_t a = 0; a < serialPaths.size(); ++a) {
        for (std::uint32_t s = 0; s < serialPaths[a].size(); ++s) {
            EXPECT_EQ(serializeSessionAnalysis(analyzeSession(
                          serial.loadSession(a, s), threshold)),
                      serializeSessionAnalysis(analyzeSession(
                          parallel.loadSession(a, s), threshold)))
                << "analysis diverges at app " << a << " session "
                << s;
        }
    }
}

TEST(EngineStudy, SessionAnalysisSerializationRoundTrips)
{
    const SessionAnalysis original = sampleAnalysis();
    const std::string bytes = serializeSessionAnalysis(original);
    const SessionAnalysis decoded =
        deserializeSessionAnalysis(bytes);
    // Bit-exact round trip: re-serialization is byte-identical.
    EXPECT_EQ(serializeSessionAnalysis(decoded), bytes);
    EXPECT_EQ(decoded.overview.tracedCount,
              original.overview.tracedCount);
    EXPECT_EQ(decoded.cdf, original.cdf);
    EXPECT_EQ(decoded.patternKeys, original.patternKeys);
    EXPECT_EQ(decoded.episodeDurations, original.episodeDurations);
}

TEST(EngineStudy, ResultCacheRoundTrips)
{
    const ScratchDir dir("lagalyzer-cache-test-rescache");
    const ResultCache cache(dir.path, "fp-1");

    EXPECT_FALSE(cache.load("App", 0).has_value()) << "cold miss";

    const SessionAnalysis original = sampleAnalysis();
    cache.store("App", 0, original);
    const auto loaded = cache.load("App", 0);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(serializeSessionAnalysis(*loaded),
              serializeSessionAnalysis(original));

    // Other sessions and other fingerprints still miss.
    EXPECT_FALSE(cache.load("App", 1).has_value());
    const ResultCache other(dir.path, "fp-2");
    EXPECT_FALSE(other.load("App", 0).has_value());
}

TEST(EngineStudy, DamagedCacheEntryReadsAsMiss)
{
    const ScratchDir dir("lagalyzer-cache-test-damage");
    const ResultCache cache(dir.path, "fp");
    cache.store("App", 3, sampleAnalysis());
    const std::string path = cache.entryPath("App", 3);
    ASSERT_TRUE(fs::exists(path));

    // Truncation: half the file.
    const std::string bytes = readFileBytes(path);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_FALSE(cache.load("App", 3).has_value());

    // Corruption: flip one payload byte (checksum must catch it).
    {
        std::string bad = bytes;
        bad[bad.size() - 1] =
            static_cast<char>(bad[bad.size() - 1] ^ 0x5a);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bad.data(),
                  static_cast<std::streamsize>(bad.size()));
    }
    EXPECT_FALSE(cache.load("App", 3).has_value());

    // Intact bytes restored: hit again.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_TRUE(cache.load("App", 3).has_value());
}

TEST(EngineStudy, EvictDropsStaleFingerprintEntries)
{
    const ScratchDir dir("lagalyzer-cache-test-evict-stale");
    const ResultCache oldGen(dir.path, "fp-old");
    oldGen.store("App", 0, sampleAnalysis());
    oldGen.store("App", 1, sampleAnalysis());
    const ResultCache newGen(dir.path, "fp-new");
    newGen.store("App", 0, sampleAnalysis());

    // A non-entry file in the directory is not the cache's to
    // delete.
    {
        std::ofstream out(dir.path + "/analysis/notes.txt");
        out << "keep me";
    }

    // Unlimited policy: only the stale generation goes.
    const CacheEvictionResult result =
        newGen.evict(CacheEvictionPolicy{});
    EXPECT_EQ(result.removedFiles, 2u);
    EXPECT_EQ(result.keptFiles, 1u);
    EXPECT_FALSE(fs::exists(oldGen.entryPath("App", 0)));
    EXPECT_FALSE(fs::exists(oldGen.entryPath("App", 1)));
    EXPECT_TRUE(fs::exists(newGen.entryPath("App", 0)));
    EXPECT_TRUE(fs::exists(dir.path + "/analysis/notes.txt"));
    EXPECT_TRUE(newGen.load("App", 0).has_value());
}

TEST(EngineStudy, EvictEnforcesByteAndAgeBudgets)
{
    const ScratchDir dir("lagalyzer-cache-test-evict-budget");
    const ResultCache cache(dir.path, "fp");
    for (std::uint32_t s = 0; s < 3; ++s)
        cache.store("App", s, sampleAnalysis());

    // Backdate the entries so age ordering is unambiguous even on
    // coarse filesystem timestamps: session 0 oldest.
    const auto now = fs::file_time_type::clock::now();
    using std::chrono::hours;
    fs::last_write_time(cache.entryPath("App", 0), now - hours(3));
    fs::last_write_time(cache.entryPath("App", 1), now - hours(2));
    fs::last_write_time(cache.entryPath("App", 2), now - hours(1));
    const auto entryBytes = static_cast<std::uint64_t>(
        fs::file_size(cache.entryPath("App", 0)));

    // Byte budget for two entries: the oldest one goes.
    CacheEvictionPolicy policy;
    policy.maxBytes = 2 * entryBytes + entryBytes / 2;
    CacheEvictionResult result = cache.evict(policy);
    EXPECT_EQ(result.removedFiles, 1u);
    EXPECT_EQ(result.keptFiles, 2u);
    EXPECT_EQ(result.keptBytes, 2 * entryBytes);
    EXPECT_FALSE(fs::exists(cache.entryPath("App", 0)));
    EXPECT_TRUE(fs::exists(cache.entryPath("App", 1)));
    EXPECT_TRUE(fs::exists(cache.entryPath("App", 2)));

    // Age limit of 90 minutes: only the freshest entry survives.
    policy = CacheEvictionPolicy{};
    policy.maxAgeSeconds = 90 * 60;
    result = cache.evict(policy);
    EXPECT_EQ(result.removedFiles, 1u);
    EXPECT_EQ(result.keptFiles, 1u);
    EXPECT_FALSE(fs::exists(cache.entryPath("App", 1)));
    EXPECT_TRUE(fs::exists(cache.entryPath("App", 2)));
    EXPECT_TRUE(cache.load("App", 2).has_value());
}

TEST(EngineStudy, TruncatedTraceIsResimulated)
{
    const ScratchDir dir("lagalyzer-cache-test-truncated");
    app::StudyConfig config = testStudy(dir.path, 2);
    config.apps.resize(1);
    app::Study study(config);

    const auto paths = study.ensureTraces();
    const std::string &victim = paths[0][1];
    const std::string original = readFileBytes(victim);

    // Simulate a crash mid-write of a non-atomic writer.
    {
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out.write(original.data(),
                  static_cast<std::streamsize>(original.size() / 3));
    }
    EXPECT_THROW(trace::readTraceFile(victim), trace::TraceError);

    // loadSession detects the damage and regenerates the session;
    // the rewritten file is byte-identical to the original (the
    // simulation is a pure function of the config and seed).
    const core::Session session = study.loadSession(0, 1);
    EXPECT_FALSE(session.episodes().empty());
    EXPECT_EQ(readFileBytes(victim), original);
}

TEST(EngineStudy, OldFormatTraceIsResimulated)
{
    const ScratchDir dir("lagalyzer-cache-test-old-format");
    app::StudyConfig config = testStudy(dir.path, 2);
    config.apps.resize(1);
    app::Study study(config);

    const auto paths = study.ensureTraces();
    const std::string &victim = paths[0][0];
    const std::string original = readFileBytes(victim);
    const std::string fresh = serializeSessionAnalysis(analyzeSession(
        study.loadSession(0, 0), config.perceptibleThreshold));

    // The same payload under a format-3 header, as a build from
    // before the CRC32C checksum wrote it: version 3 and the
    // payload's FNV-1a 64 in the checksum field.
    constexpr std::size_t kPayload = 20;
    std::string old = original;
    const std::uint32_t version = 3;
    std::memcpy(old.data() + 8, &version, sizeof(version));
    Fnv1aHasher fnv;
    fnv.addBytes(old.data() + kPayload, old.size() - kPayload);
    const std::uint64_t checksum = fnv.digest();
    std::memcpy(old.data() + 12, &checksum, sizeof(checksum));
    {
        std::ofstream out(victim, std::ios::binary | std::ios::trunc);
        out.write(old.data(), static_cast<std::streamsize>(old.size()));
    }
    EXPECT_THROW(trace::readTraceFile(victim), trace::TraceError);

    // The follow-mode reader rejects it with a typed error.
    trace::TraceTailer tailer(victim);
    try {
        (void)tailer.poll();
        FAIL() << "a format-3 trace must not tail";
    } catch (const trace::TraceError &e) {
        EXPECT_EQ(e.kind(), trace::TraceErrorKind::Corrupt);
        EXPECT_NE(std::string(e.what()).find("version 3"),
                  std::string::npos)
            << e.what();
    }

    // loadSession takes the unreadable path: it re-simulates, gives
    // the session a fresh run gives and rewrites the current format.
    const core::Session session = study.loadSession(0, 0);
    EXPECT_EQ(serializeSessionAnalysis(analyzeSession(
                  session, config.perceptibleThreshold)),
              fresh);
    EXPECT_EQ(readFileBytes(victim), original);
}

TEST(EngineStudy, ManifestRewriteLeavesNoTempFile)
{
    const ScratchDir dir("lagalyzer-cache-test-manifest");
    app::StudyConfig config = testStudy(dir.path, 2);
    config.apps.resize(1);

    app::Study study(config);
    study.ensureTraces();
    EXPECT_TRUE(fs::exists(dir.path + "/manifest"));
    EXPECT_FALSE(fs::exists(dir.path + "/manifest.tmp"));

    // A changed configuration invalidates the cache; the manifest
    // is rewritten atomically and stale traces are cleared.
    config.perceptibleThreshold = msToNs(200);
    app::Study changed(config);
    const auto paths = changed.ensureTraces();
    EXPECT_TRUE(fs::exists(dir.path + "/manifest"));
    EXPECT_FALSE(fs::exists(dir.path + "/manifest.tmp"));
    EXPECT_TRUE(fs::exists(paths[0][0]));

    std::ifstream manifest(dir.path + "/manifest");
    std::string stored;
    std::getline(manifest, stored);
    EXPECT_EQ(stored, config.fingerprint());
}

} // namespace
} // namespace lag::engine
