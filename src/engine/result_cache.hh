/**
 * @file
 * Content-addressed cache of per-session analysis artifacts.
 *
 * The trace cache (app::Study) already avoids re-simulating
 * sessions; this cache extends it one level up and avoids
 * re-*analyzing* them. One SessionAnalysis bundles everything the
 * study harnesses consume from a session — the episode durations,
 * the mined pattern keys, the Table III overview row, and the
 * Figure 3–8 analysis results — so a bench re-run after a viz- or
 * report-only change skips pattern mining and the analysis suite
 * entirely.
 *
 * Entries are content-addressed: the file name is a hash of the
 * study fingerprint, the analysis version and the session identity,
 * so recalibrating any model parameter or changing any analysis
 * (bump kAnalysisVersion) simply misses the cache and recomputes.
 * Files carry a magic, a version and a payload checksum and are
 * written via temp file + atomic rename; a truncated, corrupted or
 * stale entry reads as a miss, never as a crash or a wrong result.
 *
 * Serialization is bit-exact for doubles (IEEE-754 bytes), so a
 * cached result is byte-identical to a freshly computed one — the
 * engine's determinism contract extends through the cache.
 *
 * The directory is bounded by evict(): entries from old study
 * fingerprints are unreachable by construction and are dropped on
 * sight, and the surviving entries can be limited by total size and
 * by age (see CacheEvictionPolicy).
 */

#ifndef LAG_ENGINE_RESULT_CACHE_HH
#define LAG_ENGINE_RESULT_CACHE_HH

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/concurrency.hh"
#include "core/location.hh"
#include "core/overview.hh"
#include "core/pattern_stats.hh"
#include "core/session.hh"
#include "core/triggers.hh"
#include "util/types.hh"

namespace lag::engine
{

/** Bumped whenever any analysis result changes meaning or any
 * serialized field changes, so stale entries miss.
 * v2: per-pattern aggregation summaries (patternSummary) joined the
 * payload, enabling cross-session merges straight from the cache. */
constexpr std::uint32_t kAnalysisVersion = 2;

/** Everything the study pipeline derives from one session. */
struct SessionAnalysis
{
    core::OverviewRow overview;
    core::TriggerAnalysisResult triggers;
    core::LocationAnalysisResult location;
    core::ConcurrencyResult concurrency;
    core::ThreadStateResult states;
    core::OccurrenceShares occurrence;

    /** Raw pattern CDF points (Figure 3), as from patternCdf(). */
    std::vector<std::pair<double, double>> cdf;

    /** Mined pattern keys, most populous first. */
    std::vector<std::uint64_t> patternKeys;

    /** Episode durations in session order (the episode list). */
    std::vector<DurationNs> episodeDurations;

    /** Per-pattern aggregation summaries, in set (most populous
     * first) order — everything core::mergeAnalyses needs to rebuild
     * a MergedPatternSet without re-mining (new in v2). */
    core::PatternSetSummary patternSummary;
};

/** Run the full per-session analysis suite: pattern mining,
 * trigger and location analysis on the session's flat interval
 * trees, plus the sample-based analyses — an AnalysisPartial
 * (analysis_partial.hh) over every episode, finished. */
SessionAnalysis analyzeSession(const core::Session &session,
                               DurationNs perceptible_threshold);

/** Serialize @p analysis (header + checksummed payload). */
std::string
serializeSessionAnalysis(const SessionAnalysis &analysis);

/** Parse serializeSessionAnalysis output; throws trace::TraceError
 * on any mismatch (magic, version, checksum, truncation). */
SessionAnalysis deserializeSessionAnalysis(std::string_view data);

/** Combined digest of one app's entry digests (ResultCache::
 * entryDigest, in session order 0..n-1). */
std::uint64_t appDigestOf(std::string_view app_name,
                          std::span<const std::uint64_t> entry_digests);

/** Limits applied by ResultCache::evict(); 0 means unlimited. */
struct CacheEvictionPolicy
{
    std::uint64_t maxBytes = 0;      ///< total .ares byte budget
    std::uint64_t maxAgeSeconds = 0; ///< drop entries older than this
};

/** What one evict() pass removed and what survived it. */
struct CacheEvictionResult
{
    std::uint64_t removedFiles = 0;
    std::uint64_t removedBytes = 0;
    std::uint64_t keptFiles = 0;
    std::uint64_t keptBytes = 0;
};

/** On-disk cache of SessionAnalysis entries under a study's cache
 * directory. Safe for concurrent use on distinct sessions. */
class ResultCache
{
  public:
    /** @param cache_dir the study's trace-cache directory;
     *  @param study_fingerprint StudyConfig::fingerprint(). */
    ResultCache(std::string cache_dir, std::string study_fingerprint);

    /** Content address of one session's entry. */
    std::string entryPath(std::string_view app_name,
                          std::uint32_t session_index) const;

    /** Load an entry; nullopt on miss or invalid file. On a hit,
     * @p digest (when non-null) receives the entry's entryDigest(),
     * taken from the bytes just read. */
    std::optional<SessionAnalysis>
    load(std::string_view app_name, std::uint32_t session_index,
         std::uint64_t *digest = nullptr) const;

    /** Write an entry (temp file + atomic rename). Returns the
     * entryDigest() of what the entry now holds: the written bytes,
     * or whatever is still on disk when the write failed. */
    std::uint64_t store(std::string_view app_name,
                        std::uint32_t session_index,
                        const SessionAnalysis &analysis) const;

    /**
     * Content digest (FNV-1a) of one entry. A valid entry folds its
     * header — magic, version and the payload checksum, which
     * already stands for every payload byte — and its length, so
     * load() and store() report the same value from the bytes they
     * hold without hashing the payload again. An entry whose header
     * or checksum does not verify folds every byte of the file
     * instead, so damage always changes the digest; a missing or
     * unreadable entry folds a distinct absent marker, so
     * present-vs-absent always changes it too. No hit/miss counters
     * move: this is the invalidation primitive, not a load.
     */
    std::uint64_t entryDigest(std::string_view app_name,
                              std::uint32_t session_index) const;

    /**
     * appDigestOf() over one app's entries 0..@p sessions_per_app-1
     * read from disk. The serve layer compares this against the
     * digest its per-app hot state was built from: any byte of any
     * contributing `.ares` entry changing (or an entry appearing /
     * disappearing) changes the app digest, and only apps whose
     * digest moved are re-merged on refresh.
     */
    std::uint64_t appDigest(std::string_view app_name,
                            std::uint32_t sessions_per_app) const;

    /**
     * Garbage-collect the analysis directory. Entries written under
     * a different study fingerprint (or analysis version) are always
     * removed — their content address can never hit again. Among the
     * live entries, anything older than @p policy.maxAgeSeconds goes
     * next, then the oldest files (by modification time, ties broken
     * by name) until the directory fits @p policy.maxBytes. Entries
     * that cannot be stat'ed or removed are kept and warned about —
     * never booked as gone while still on disk. Call from a single
     * thread while no analysis tasks are in flight.
     */
    CacheEvictionResult evict(const CacheEvictionPolicy &policy) const;

    /** Removal hook for evict(): returns true when the file is
     * actually gone. Injectable so tests can exercise the
     * removal-failure accounting without a read-only filesystem. */
    using RemoveFileFn =
        std::function<bool(const std::filesystem::path &)>;

    /** evict() with an injected removal primitive (tests). */
    CacheEvictionResult evict(const CacheEvictionPolicy &policy,
                              const RemoveFileFn &remove_file) const;

  private:
    /** Count a miss and return nullopt (every load() miss path). */
    std::optional<SessionAnalysis> miss() const;

    std::string dir_;
    std::string fingerprint_;

    /** Short hash of (fingerprint, analysis version) embedded in
     * every entry name so evict() can spot stale generations without
     * opening the files. */
    std::string tag_;
};

} // namespace lag::engine

#endif // LAG_ENGINE_RESULT_CACHE_HH
