#include "ingest.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <span>
#include <utility>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/thread_name.hh"

namespace lag::engine
{

namespace
{

struct IngestMetrics
{
    obs::Counter &epochs;
    obs::Counter &records;
    obs::Counter &publishes;
    obs::Counter &publishFailures;
    obs::Counter &recomputedEpisodes;
    obs::Gauge &backlogBytes;
    obs::Gauge &lagMs;
};

IngestMetrics &
ingestMetrics()
{
    static IngestMetrics metrics{
        obs::metrics().counter("ingest.epochs"),
        obs::metrics().counter("ingest.records"),
        obs::metrics().counter("ingest.publishes"),
        obs::metrics().counter("ingest.publish_failures"),
        obs::metrics().counter("ingest.recomputed_episodes"),
        obs::metrics().gauge("ingest.backlog.bytes"),
        obs::metrics().gauge("ingest.lag.ms"),
    };
    return metrics;
}

} // namespace

IngestPipeline::IngestPipeline(ThreadPool &pool,
                               IngestOptions options,
                               PublishFn publish)
    : pool_(pool), options_(options), publish_(std::move(publish))
{
}

IngestPipeline::~IngestPipeline() { stop(); }

bool
IngestPipeline::addSourceLocked(const std::string &path)
{
    for (const IngestSourceStatus &status : statuses_) {
        if (status.path == path)
            return false;
    }
    sources_.push_back(std::make_unique<Source>(path));
    IngestSourceStatus status;
    status.path = path;
    statuses_.push_back(std::move(status));
    return true;
}

void
IngestPipeline::addSource(const std::string &path)
{
    MutexLock lock(mutex_);
    addSourceLocked(path);
}

void
IngestPipeline::addDirectory(const std::string &dir)
{
    MutexLock lock(mutex_);
    if (std::find(directories_.begin(), directories_.end(), dir) ==
        directories_.end())
        directories_.push_back(dir);
}

std::size_t
IngestPipeline::scanDirectory(const std::string &dir)
{
    std::vector<std::string> found;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return 0; // directory may not exist yet; rescan next epoch
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        if (entry.path().extension() == ".lag")
            found.push_back(entry.path().string());
    }
    // Deterministic source order regardless of directory iteration
    // order, so replays publish in a stable sequence.
    std::sort(found.begin(), found.end());
    std::size_t added = 0;
    MutexLock lock(mutex_);
    for (const std::string &path : found) {
        if (addSourceLocked(path))
            ++added;
    }
    return added;
}

void
IngestPipeline::advance(Work &work, std::uint64_t epoch_number)
{
    Source &source = *work.source;
    obs::TraceContextScope scope(source.context);
    const trace::TraceTailer &tailer = source.tailer;
    const trace::TraceDecoder &decoded = tailer.decoded();

    {
        LAG_SPAN("ingest.poll");
        trace::TailStatus status = trace::TailStatus::Waiting;
        try {
            status = source.tailer.poll();
        } catch (const std::exception &e) {
            // Quarantine: a corrupt file can never become valid, and
            // any other failure (a filesystem error, bad_alloc) is
            // not retried either; the other sources keep flowing.
            source.error = e.what();
            warn("ingest: source '", tailer.path(),
                 "' failed to poll: ", e.what());
            return;
        }
        if (status == trace::TailStatus::Restarted) {
            source.live.reset();
            source.lastAnalyzedRecords = 0;
            source.publishedComplete = false;
        }
        const std::uint64_t records = decoded.recordsDecoded();
        const bool fresh = records != source.lastAnalyzedRecords ||
                           decoded.complete();
        if (!decoded.analyzable() || !fresh || source.publishedComplete)
            return;
        work.newRecords =
            records - std::min(records, source.lastAnalyzedRecords);
        source.lastAnalyzedRecords = records;
    }

    // Everything from here on may allocate without bound; any
    // failure quarantines this source instead of leaving the task.
    try {
        if (!source.live)
            source.live.emplace(decoded, options_.perceptibleThreshold);
        Source::Live &live = *source.live;
        const auto events =
            std::span(decoded.events())
                .subspan(live.events, decoded.cutEvents() - live.events);
        const trace::SampleColumns &samples = decoded.samples();
        LAG_SPAN_ARG("ingest.analyze", "events", events.size());
        const core::Session *session = nullptr;
        {
            LAG_SPAN_ARG("session.build", "events", events.size());
            live.builder.append(events, samples, live.samples,
                                samples.size());
            live.events += events.size();
            live.samples = samples.size();
            session = &live.builder.cut(decoded.cutMeta());
        }
        live.folded.fold(*session, live.builder.settledEpisodes(),
                         live.builder.sampledEpisodes());
        work.recomputedEpisodes =
            session->episodes().size() - live.folded.treeEnd();
        IngestUpdate update;
        update.path = tailer.path();
        update.appName = session->meta().appName;
        update.sessionIndex = session->meta().sessionIndex;
        update.complete = decoded.complete();
        update.epoch = epoch_number;
        update.analysis = AnalysisPartial(live.folded).finish(*session);
        source.publishedComplete = update.complete;
        ++source.epochsPublished;
        work.update = std::move(update);
    } catch (const std::exception &e) {
        source.error = e.what();
        warn("ingest: source '", tailer.path(),
             "' failed analysis: ", e.what());
    }
    if (source.publishedComplete || !source.error.empty())
        source.live.reset(); // nothing more will be appended
}

std::size_t
IngestPipeline::runEpoch()
{
    lag_assert(!epochRunning_.exchange(true),
               "IngestPipeline epochs must not overlap");
    // Cleared on every way out, so a failed epoch never reads as a
    // running one to the next.
    struct EpochGuard
    {
        std::atomic<bool> &running;
        ~EpochGuard() { running.store(false); }
    } guard{epochRunning_};
    const std::int64_t epoch_start = processElapsedNs();
    LAG_SPAN("ingest.epoch");

    // Phase 1 — claim the epoch number and this epoch's sources.
    std::vector<Work> work;
    std::uint64_t epoch_number = 0;
    {
        MutexLock lock(mutex_);
        epoch_number = ++epoch_;
        work.reserve(sources_.size());
        for (std::size_t i = 0; i < sources_.size(); ++i) {
            if (sources_[i]->error.empty())
                work.push_back(Work{i, sources_[i].get(), 0, 0, {}});
        }
    }

    // Phase 2 — one pool task per source, no lock held. Each task
    // touches only its own source and its own index-addressed slot.
    parallelFor(pool_, work.size(), [&](std::size_t i) {
        advance(work[i], epoch_number);
    });

    // Phase 3 — publish the batch with no pipeline lock held (the
    // callback may take Serve-ranked locks above ours), before the
    // status copies move: a status that reads complete then always
    // has its answer published.
    std::vector<IngestUpdate> updates;
    for (Work &item : work) {
        if (item.update)
            updates.push_back(std::move(*item.update));
    }
    std::size_t published = updates.size();
    IngestMetrics &metrics = ingestMetrics();
    if (published > 0 && publish_) {
        LAG_SPAN_ARG("ingest.publish", "updates", published);
        try {
            publish_(std::move(updates));
        } catch (const std::exception &e) {
            // The epoch's sources have advanced either way; a failed
            // publish must not take the driver thread down.
            metrics.publishFailures.add(1);
            published = 0;
            warn("ingest: publishing epoch ", epoch_number,
                 " failed: ", e.what());
        }
    }

    // Phase 4 — refresh the status copies readers see.
    std::uint64_t new_records = 0;
    std::uint64_t recomputed = 0;
    std::uint64_t backlog = 0;
    {
        MutexLock lock(mutex_);
        for (const Work &item : work) {
            const Source &source = *item.source;
            const trace::TraceTailer &tailer = source.tailer;
            const trace::TraceDecoder &decoded = tailer.decoded();
            IngestSourceStatus &status = statuses_[item.index];
            if (decoded.hasMeta()) {
                status.appName = decoded.meta().appName;
                status.sessionIndex = decoded.meta().sessionIndex;
            }
            status.analyzable = decoded.analyzable();
            status.complete = decoded.complete();
            status.cursorBytes = tailer.cursor();
            status.knownSizeBytes = tailer.knownSize();
            status.backlogBytes = tailer.backlogBytes();
            status.recordsDecoded = decoded.recordsDecoded();
            status.restarts = tailer.restarts();
            status.epochsPublished = source.epochsPublished;
            status.error = source.error;
            if (source.error.empty())
                backlog += tailer.backlogBytes();
            new_records += item.newRecords;
            recomputed += item.recomputedEpisodes;
        }
    }

    const std::int64_t lag_ms =
        (processElapsedNs() - epoch_start) / 1'000'000;
    {
        MutexLock lock(mutex_);
        lastEpochLagMs_ = lag_ms;
    }
    metrics.epochs.add(1);
    metrics.records.add(new_records);
    metrics.publishes.add(published);
    metrics.recomputedEpisodes.add(recomputed);
    metrics.backlogBytes.set(static_cast<std::int64_t>(backlog));
    metrics.lagMs.set(lag_ms);
    return published;
}

void
IngestPipeline::start()
{
    if (driverRunning_)
        return;
    {
        MutexLock lock(driverMutex_);
        stopRequested_ = false;
    }
    driver_ = std::thread([this] { driverLoop(); });
    driverRunning_ = true;
}

void
IngestPipeline::stop()
{
    if (!driverRunning_)
        return;
    {
        MutexLock lock(driverMutex_);
        stopRequested_ = true;
    }
    driverWake_.notify_all();
    driver_.join();
    driverRunning_ = false;
}

void
IngestPipeline::driverLoop()
{
    setThreadName("ingest-driver");
    const std::int64_t period_ns = options_.epochMillis * 1'000'000;
    std::int64_t next_start = processElapsedNs();
    for (;;) {
        {
            MutexLock lock(driverMutex_);
            if (stopRequested_)
                return;
        }
        std::vector<std::string> dirs;
        {
            MutexLock lock(mutex_);
            dirs = directories_;
        }
        for (const std::string &dir : dirs)
            scanDirectory(dir);
        runEpoch();

        // Start-to-start cadence: the next epoch begins one period
        // after this one began, or at once if this one overran (no
        // catch-up burst after a slow epoch).
        next_start =
            std::max(next_start + period_ns, processElapsedNs());
        MutexLock lock(driverMutex_);
        for (;;) {
            if (stopRequested_)
                return;
            const std::int64_t wait_ns =
                next_start - processElapsedNs();
            if (wait_ns <= 0)
                break;
            driverWake_.wait_for(lock,
                                 std::chrono::nanoseconds(wait_ns));
        }
    }
}

bool
IngestPipeline::allComplete() const
{
    MutexLock lock(mutex_);
    if (statuses_.empty())
        return false;
    for (const IngestSourceStatus &status : statuses_) {
        if (status.error.empty() && !status.complete)
            return false;
    }
    return true;
}

std::uint64_t
IngestPipeline::epoch() const
{
    MutexLock lock(mutex_);
    return epoch_;
}

std::vector<IngestSourceStatus>
IngestPipeline::status() const
{
    MutexLock lock(mutex_);
    return statuses_;
}

std::string
IngestPipeline::statusJson() const
{
    std::vector<IngestSourceStatus> sources;
    std::uint64_t epoch_number = 0;
    std::int64_t lag_ms = 0;
    {
        MutexLock lock(mutex_);
        sources = statuses_;
        epoch_number = epoch_;
        lag_ms = lastEpochLagMs_;
    }
    bool all_complete = !sources.empty();
    for (const IngestSourceStatus &entry : sources) {
        if (entry.error.empty() && !entry.complete)
            all_complete = false;
    }
    std::string out = "{\"epoch\":";
    out += std::to_string(epoch_number);
    out += ",\"lag_ms\":";
    out += std::to_string(lag_ms);
    out += ",\"sources\":[";
    for (std::size_t i = 0; i < sources.size(); ++i) {
        const IngestSourceStatus &entry = sources[i];
        if (i > 0)
            out += ',';
        out += "{\"path\":";
        appendJsonString(out, entry.path);
        out += ",\"app\":";
        appendJsonString(out, entry.appName);
        out += ",\"session\":";
        out += std::to_string(entry.sessionIndex);
        out += ",\"analyzable\":";
        out += entry.analyzable ? "true" : "false";
        out += ",\"complete\":";
        out += entry.complete ? "true" : "false";
        out += ",\"cursor\":";
        out += std::to_string(entry.cursorBytes);
        out += ",\"size\":";
        out += std::to_string(entry.knownSizeBytes);
        out += ",\"backlog\":";
        out += std::to_string(entry.backlogBytes);
        out += ",\"records\":";
        out += std::to_string(entry.recordsDecoded);
        out += ",\"restarts\":";
        out += std::to_string(entry.restarts);
        out += ",\"epochs_published\":";
        out += std::to_string(entry.epochsPublished);
        out += ",\"error\":";
        appendJsonString(out, entry.error);
        out += '}';
    }
    out += "],\"all_complete\":";
    out += all_complete ? "true" : "false";
    out += '}';
    return out;
}

} // namespace lag::engine
