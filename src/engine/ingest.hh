/**
 * @file
 * Live-ingest pipeline: stream growing trace files into analyses.
 *
 * IngestPipeline owns one trace::TraceTailer per followed file and
 * periodically cuts an **epoch**: poll every tailer for newly
 * appended records, feed what each tailer decoded since the last
 * epoch into that source's growing session, fold the episodes that
 * can no longer change into the source's running analysis partials,
 * and hand the epoch's fresh SessionAnalysis values to the publish
 * callback as one batch. The callback side (for lagd,
 * serve::HotStore::applyIngest) merges the partial-session v2
 * summaries into the hot aggregate with engine::finishApp, once
 * per touched app, so a session is queryable while it is still
 * running.
 *
 * Append and fold: each source keeps a core::SessionBuilder and an
 * AnalysisPartial (analysis_partial.hh). An epoch appends only the
 * tailer's new closed events and new samples (by index into the
 * tailer's decoder's arrays; the new sample columns are copied into
 * the session in bulk), cuts the session, folds the
 * episodes the builder reports settled (tree part) and sampled
 * (sample part), and finishes a copy of the partial with the few
 * episodes that are not final yet recomputed (counted by the
 * `ingest.recomputed_episodes` counter). An epoch thus costs what
 * its new records add, not what the whole session holds. A tailer
 * restart drops the session and its partials.
 *
 * Batch-equivalence contract: every cut of the live session is the
 * session Session::fromTrace builds from the decoder's snapshot at
 * that cut (one build path), the fold is byte-identical to
 * analyzeSession at any cut sequence, and once a source's writer
 * finishes the final published SessionAnalysis serializes to
 * exactly the bytes the batch pipeline caches.
 * tests/engine_ingest_test.cc proves it at every epoch, per example
 * app, across chunk sizes and pool widths.
 *
 * Epochs run either synchronously (runEpoch(), what the tests and
 * benchmarks drive) or on a driver thread (start()/stop(), what
 * `lagd --follow` uses), never both at once. An epoch fans out one
 * pool task per source: poll → append → cut → fold → finish, with
 * no lock held. Only the epoch touches a tailer or a live session.
 * The pipeline's mutex (LockRank::Ingest) guards the source list
 * and a per-source IngestSourceStatus copy, which the epoch
 * refreshes after the fan-out and the publish; status(),
 * allComplete() and `/v1/ingest` read that copy, so they never wait
 * for a poll, and a source they report complete has its final
 * analysis published already. The lock is never held across the
 * fan-out or the publish.
 *
 * The driver paces epochs start to start: an epoch begins every
 * epochMillis, or at once when the previous one overran.
 *
 * A source whose poll or analysis throws (a corrupt trace, or any
 * other std::exception) is quarantined: its error is recorded in
 * the status, the tailer is left where it stopped, and the pipeline
 * keeps serving the other sources. A publish callback that throws is
 * logged and counted (`ingest.publish_failures`), and the epoch
 * still ends.
 */

#ifndef LAG_ENGINE_INGEST_HH
#define LAG_ENGINE_INGEST_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis_partial.hh"
#include "core/session.hh"
#include "obs/trace_context.hh"
#include "pool.hh"
#include "result_cache.hh"
#include "trace/tailer.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace lag::engine
{

/** Pipeline knobs. */
struct IngestOptions
{
    /** Perceptibility threshold fed to analyzeSession (same knob as
     * app::StudyConfig::perceptibleThreshold). */
    DurationNs perceptibleThreshold = 100'000'000;

    /** Driver-thread epoch period for start(), start to start;
     * runEpoch() callers pace themselves. */
    std::int64_t epochMillis = 100;
};

/** One followed file's externally visible state. */
struct IngestSourceStatus
{
    std::string path;
    std::string appName;     ///< empty until the meta record lands
    std::uint32_t sessionIndex = 0;
    bool analyzable = false;
    bool complete = false;
    std::uint64_t cursorBytes = 0;
    std::uint64_t knownSizeBytes = 0;
    std::uint64_t backlogBytes = 0;
    std::uint64_t recordsDecoded = 0;
    std::uint64_t restarts = 0;
    std::uint64_t epochsPublished = 0;
    std::string error; ///< non-empty once quarantined as corrupt
};

/** One published partial- or complete-session analysis. */
struct IngestUpdate
{
    std::string path;
    std::string appName;
    std::uint32_t sessionIndex = 0;
    bool complete = false;
    std::uint64_t epoch = 0;
    SessionAnalysis analysis;
};

/** See the file comment. */
class IngestPipeline
{
  public:
    /** Receives one epoch's updates, in source order. */
    using PublishFn = std::function<void(std::vector<IngestUpdate>)>;

    /** @param pool analysis fan-out substrate; @param publish
     * receives each epoch's fresh analyses as one batch, called with
     * no pipeline lock held (it may take higher-ranked locks, e.g.
     * Serve) and not at all when nothing advanced. */
    IngestPipeline(ThreadPool &pool, IngestOptions options,
                   PublishFn publish);

    /** Stops the driver thread if running. */
    ~IngestPipeline();

    IngestPipeline(const IngestPipeline &) = delete;
    IngestPipeline &operator=(const IngestPipeline &) = delete;

    /** Follow @p path (a trace file, possibly not yet created). */
    void addSource(const std::string &path);

    /**
     * Scan @p dir for `*.lag` files and follow any not yet known.
     * Returns how many new sources were added. Called per epoch by
     * the driver so files that appear later are picked up.
     */
    std::size_t scanDirectory(const std::string &dir);

    /**
     * Cut one epoch synchronously: poll and analyze every source in
     * parallel on the pool, publish the updates, then refresh the
     * status copies. Returns the number of updates published. Epochs
     * must not overlap: call from one thread, and not while the
     * driver thread runs.
     */
    std::size_t runEpoch();

    /** Launch the driver thread: an epoch every epochMillis (start
     * to start), each after a rescan of the follow directories. */
    void start();

    /** Stop and join the driver thread (idempotent). */
    void stop();

    /** Follow @p dir: scanned at start() and then every epoch. */
    void addDirectory(const std::string &dir);

    /** True when at least one source exists and every non-failed
     * source has decoded its whole file. */
    bool allComplete() const;

    /** Epochs cut so far. */
    std::uint64_t epoch() const;

    /** Per-source state as of the last epoch (a copy; never waits
     * for a running epoch's polls). */
    std::vector<IngestSourceStatus> status() const;

    /** `/v1/ingest` body: epoch, totals and per-source state. */
    std::string statusJson() const;

  private:
    /** One followed file. Everything here is owned by the epoch:
     * only runEpoch() (and its one pool task for this source)
     * touches it, so it needs no lock. */
    struct Source
    {
        explicit Source(const std::string &path)
            : tailer(path), context(obs::mintTraceContext())
        {
        }

        /** The growing session and its folded partials; reset
         * when the tailer restarts and once the complete session is
         * published. */
        struct Live
        {
            Live(const trace::TraceDecoder &decoded,
                 DurationNs perceptible_threshold)
                : builder(decoded.meta().startTime, decoded.threads(),
                          decoded.strings()),
                  folded(perceptible_threshold)
            {
            }

            core::SessionBuilder builder;
            AnalysisPartial folded;
            std::size_t events = 0;  ///< tailer events appended
            std::size_t samples = 0; ///< tailer samples appended
        };

        trace::TraceTailer tailer;
        obs::TraceContext context; ///< spans ingest work per source
        std::optional<Live> live;
        std::uint64_t lastAnalyzedRecords = 0;
        bool publishedComplete = false;
        std::uint64_t epochsPublished = 0;
        std::string error;
    };

    /** One source's share of an epoch, filled by its pool task. */
    struct Work
    {
        std::size_t index = 0; ///< into sources_ and statuses_
        Source *source = nullptr;
        std::uint64_t newRecords = 0;
        std::uint64_t recomputedEpisodes = 0;
        std::optional<IngestUpdate> update; ///< set when analyzed
    };

    /** The pool task: poll, append, cut, fold, finish. */
    void advance(Work &work, std::uint64_t epoch_number);

    /** Add a source and its status copy; false if already known. */
    bool addSourceLocked(const std::string &path)
        LAG_REQUIRES(mutex_);

    void driverLoop();

    ThreadPool &pool_;
    IngestOptions options_;
    PublishFn publish_;

    /** Touched only by the start()/stop() caller thread, never by
     * the driver — no lock needed. */
    bool driverRunning_ = false;

    /** Set while an epoch runs; catches overlapping epochs. */
    std::atomic<bool> epochRunning_{false};

    mutable Mutex mutex_{LockRank::Ingest, "engine-ingest"};
    /** The list is guarded; each Source is epoch-owned (above). */
    std::vector<std::unique_ptr<Source>> sources_
        LAG_GUARDED_BY(mutex_);
    /** Status copy per source (same index), refreshed per epoch. */
    std::vector<IngestSourceStatus> statuses_ LAG_GUARDED_BY(mutex_);
    std::vector<std::string> directories_ LAG_GUARDED_BY(mutex_);
    std::uint64_t epoch_ LAG_GUARDED_BY(mutex_) = 0;
    std::int64_t lastEpochLagMs_ LAG_GUARDED_BY(mutex_) = 0;

    Mutex driverMutex_{LockRank::Client, "engine-ingest-driver"};
    bool stopRequested_ LAG_GUARDED_BY(driverMutex_) = false;
    std::condition_variable_any driverWake_;
    std::thread driver_;
};

} // namespace lag::engine

#endif // LAG_ENGINE_INGEST_HH
