/**
 * @file
 * The characterization study: 14 applications x 4 sessions.
 *
 * The paper's evaluation analyzes roughly 7.5 hours of interactive
 * sessions. Simulating them takes a while, so the Study simulates
 * once and caches every trace on disk (written and re-read through
 * the production trace codec); all bench harnesses share the cache.
 * The cache is keyed by a fingerprint of the full configuration —
 * recalibrating any model parameter invalidates it.
 *
 * Simulation and encoding fan out across the engine's thread pool
 * (src/engine). Parallelism is execution-only: every session is
 * derived from its (app, session) seed and written to its own
 * [app][session] slot, so the study's output is byte-identical to a
 * serial run at any worker count.
 */

#ifndef LAG_APP_STUDY_HH
#define LAG_APP_STUDY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/session.hh"
#include "params.hh"
#include "session_runner.hh"

namespace lag::app
{

/** Study-wide configuration. */
struct StudyConfig
{
    std::vector<AppParams> apps;
    std::uint32_t sessionsPerApp = 4;
    SessionOptions sessionOptions;

    /** LagAlyzer's perceptibility threshold (paper: 100 ms). */
    DurationNs perceptibleThreshold = msToNs(100);

    /** Trace cache directory. */
    std::string cacheDir = "lagalyzer-cache";

    /**
     * Engine worker threads for the simulate/encode/decode fan-out;
     * 0 = one per hardware thread. Execution-only knob: results are
     * byte-identical at any worker count, so this is deliberately
     * NOT part of fingerprint().
     */
    std::uint32_t jobs = 0;

    /**
     * Analysis-cache eviction budget: total bytes of .ares entries
     * to keep and the maximum entry age in seconds; 0 = unlimited.
     * Like jobs, these only bound the cache on disk — never what a
     * run computes — so they are NOT part of fingerprint().
     * @{
     */
    std::uint64_t cacheMaxBytes = 0;
    std::uint64_t cacheMaxAgeSeconds = 0;
    /** @} */

    /** The paper's full study. */
    static StudyConfig paperStudy();

    /**
     * A scaled-down variant (shorter sessions, reduced input rates)
     * for tests and quick demos; same structure, much faster.
     */
    static StudyConfig quickStudy(int session_seconds = 30);

    /** Cache key over every parameter. */
    std::string fingerprint() const;
};

/** One application's sessions, loaded for analysis. */
struct AppSessions
{
    AppParams params;
    std::vector<core::Session> sessions;
};

/** Runs and caches the study. */
class Study
{
  public:
    explicit Study(StudyConfig config);

    const StudyConfig &config() const { return config_; }

    /**
     * Make sure every session trace exists in the cache, simulating
     * the missing ones. Missing sessions are simulated and encoded
     * in parallel on the engine pool (config().jobs workers); the
     * output is byte-identical to the serial path at any worker
     * count. Returns the trace file paths indexed [app][session].
     */
    std::vector<std::vector<std::string>> ensureTraces();

    /**
     * Validate the cache directory against this configuration
     * without touching any trace: a stale cache (manifest mismatch)
     * is cleared — traces and analysis entries both — and the
     * manifest rewritten. The incremental aggregation path calls
     * this instead of ensureTraces() so a warm analysis cache does
     * zero trace work; loadSession() regenerates any individual
     * trace a cache miss actually needs.
     */
    void validate();

    /**
     * Load one session, regenerating it when its trace file is
     * missing, truncated or corrupted (the codec's checksum and
     * bounds checks surface those as trace::TraceError). Safe to
     * call concurrently for distinct (app, session) pairs.
     */
    core::Session loadSession(std::size_t app_index,
                              std::uint32_t session_index) const;

    /** Load (and, if needed, first generate) one app's sessions. */
    AppSessions loadApp(std::size_t app_index);

  private:
    /** Path of one session's trace file. */
    std::string tracePath(std::size_t app_index,
                          std::uint32_t session_index) const;

    /** True when the cache manifest matches this configuration. */
    bool cacheValid() const;

    /** Write the manifest (temp file + atomic rename). */
    void writeManifest() const;

    /** One-time manifest check; clears a stale cache. */
    void validateCache();

    /** Simulate and encode the listed sessions on the engine. */
    void
    simulateMissing(const std::vector<std::vector<std::uint32_t>> &missing);

    StudyConfig config_;
    bool validated_ = false;
};

} // namespace lag::app

#endif // LAG_APP_STUDY_HH
