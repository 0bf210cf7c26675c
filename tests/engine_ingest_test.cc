/**
 * @file
 * Differential suite for the live-ingest pipeline: streaming every
 * example app's trace through TraceTailer + IngestPipeline must end
 * in a SessionAnalysis that serializes byte-identically to the
 * batch path, no matter how the bytes arrived (chunk sizes from one
 * byte to the whole file) or how wide the analysis pool is. Also
 * covers kill-and-resume (a fresh pipeline converges on the same
 * bytes) and the publish/quarantine bookkeeping.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/study.hh"
#include "core/session.hh"
#include "engine/ingest.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "obs/json_check.hh"
#include "obs/metrics.hh"
#include "scratch_dir.hh"
#include "trace/io.hh"
#include "trace/tailer.hh"

namespace lag::engine
{
namespace
{

using test::ScratchDir;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

/** The per-path terminal update captured from the publish hook. */
struct Published
{
    std::map<std::string, IngestUpdate> last;
    std::map<std::string, std::size_t> completeCount;
    std::map<std::string, std::size_t> publishCount;

    void
    accept(std::vector<IngestUpdate> updates)
    {
        ++batches;
        lastBatch = updates;
        for (IngestUpdate &update : updates) {
            ++publishCount[update.path];
            if (update.complete)
                ++completeCount[update.path];
            last[update.path] = std::move(update);
        }
    }

    /** Publish hook recording into this object. */
    IngestPipeline::PublishFn
    sink()
    {
        return [this](std::vector<IngestUpdate> updates) {
            accept(std::move(updates));
        };
    }

    std::size_t batches = 0; ///< publish calls (one per epoch)
    std::vector<IngestUpdate> lastBatch; ///< the latest publish call
};

/**
 * The per-epoch oracle: one reference tailer per followed file,
 * polled right after each epoch so it sees the bytes the pipeline
 * saw. Every update the epoch published must serialize to the bytes
 * of analyzeSession(Session::fromTrace(snapshot)) at that cut, and a
 * source the pipeline quarantined must carry the error the
 * reference poll or analysis raised.
 */
class EpochOracle
{
  public:
    EpochOracle(const std::vector<std::string> &paths,
                DurationNs threshold)
        : threshold_(threshold)
    {
        for (const std::string &path : paths)
            tailers_.emplace(path, trace::TraceTailer(path));
    }

    /** Run one epoch of @p pipeline and check what it published. */
    void
    epoch(IngestPipeline &pipeline, Published &published)
    {
        published.lastBatch.clear();
        pipeline.runEpoch();
        ++epochs_;

        std::map<std::string, std::string> expected;
        std::map<std::string, std::string> errors;
        for (auto &[path, tailer] : tailers_) {
            if (failed_.count(path) != 0)
                continue;
            try {
                tailer.poll();
                if (!tailer.decoded().analyzable())
                    continue;
                expected[path] =
                    serializeSessionAnalysis(analyzeSession(
                        core::Session::fromTrace(tailer.decoded().snapshot()),
                        threshold_));
            } catch (const trace::TraceError &e) {
                errors[path] = e.what();
                failed_.insert(path);
            }
        }
        for (const IngestUpdate &update : published.lastBatch) {
            const auto it = expected.find(update.path);
            ASSERT_NE(it, expected.end())
                << "epoch " << epochs_ << " published " << update.path
                << " where the reference has no analysis";
            EXPECT_EQ(serializeSessionAnalysis(update.analysis),
                      it->second)
                << "epoch " << epochs_ << " diverges from the snapshot "
                << "analysis for " << update.path;
            ++checked_;
        }
        for (const IngestSourceStatus &status : pipeline.status()) {
            const auto it = errors.find(status.path);
            if (it != errors.end()) {
                EXPECT_EQ(status.error, it->second)
                    << "epoch " << epochs_ << " " << status.path;
            } else if (failed_.count(status.path) == 0) {
                EXPECT_EQ(status.error, "")
                    << "epoch " << epochs_ << " " << status.path;
            }
        }
    }

    /** Updates compared so far. */
    std::size_t checked() const { return checked_; }

  private:
    DurationNs threshold_;
    std::map<std::string, trace::TraceTailer> tailers_;
    std::set<std::string> failed_;
    std::size_t epochs_ = 0;
    std::size_t checked_ = 0;
};

/** Study fixture shared by the differential cases: one quick
 * session per example app, traces materialized once. */
struct StudyFixture
{
    ScratchDir cache{"lagalyzer-cache-test-ingest"};
    app::StudyConfig config = app::StudyConfig::quickStudy(3);
    std::vector<std::vector<std::string>> tracePaths;
    std::vector<std::string> batchBytes; ///< reference per app

    StudyFixture()
    {
        config.sessionsPerApp = 1;
        config.cacheDir = cache.path;
        config.jobs = 4;
        app::Study study(config);
        tracePaths = study.ensureTraces();
        batchBytes.reserve(config.apps.size());
        for (std::size_t a = 0; a < config.apps.size(); ++a) {
            batchBytes.push_back(
                serializeSessionAnalysis(analyzeSession(
                    study.loadSession(a, 0),
                    config.perceptibleThreshold)));
        }
    }
};

StudyFixture &
fixture()
{
    static StudyFixture fixture;
    return fixture;
}

/**
 * Stream every app's trace into one IngestPipeline in @p chunk-byte
 * writes, cutting epochs at roughly @p epochs points mid-stream,
 * check every epoch against the oracle, and assert the terminal
 * update per app equals the batch bytes.
 */
void
runDifferential(std::size_t chunk, std::uint32_t jobs,
                std::size_t epochs)
{
    StudyFixture &fix = fixture();
    ASSERT_GE(fix.config.apps.size(), 14u)
        << "catalog shrank; the suite must cover every app model";

    const ScratchDir live("lagalyzer-ingest-live-" +
                          std::to_string(chunk) + "-" +
                          std::to_string(jobs));
    ThreadPool pool(jobs);
    Published published;
    IngestOptions options;
    options.perceptibleThreshold = fix.config.perceptibleThreshold;
    IngestPipeline pipeline(pool, options, published.sink());

    struct Stream
    {
        std::string bytes;
        std::string dest;
        std::ofstream out;
        std::size_t offset = 0;
    };
    std::vector<Stream> streams(fix.config.apps.size());
    std::vector<std::string> dests;
    std::size_t totalBytes = 0;
    for (std::size_t a = 0; a < streams.size(); ++a) {
        streams[a].bytes = slurp(fix.tracePaths[a][0]);
        ASSERT_FALSE(streams[a].bytes.empty());
        streams[a].dest = live.path + "/app" + std::to_string(a) +
                          ".lag";
        streams[a].out.open(streams[a].dest,
                            std::ios::binary | std::ios::trunc);
        pipeline.addSource(streams[a].dest);
        dests.push_back(streams[a].dest);
        totalBytes += streams[a].bytes.size();
    }
    EpochOracle oracle(dests, options.perceptibleThreshold);

    // Write all sources forward in lockstep, cutting an epoch every
    // ~1/epochs of the total byte volume so epoch boundaries land at
    // arbitrary (usually mid-record) offsets in every file.
    std::size_t written = 0;
    std::size_t nextEpochAt = totalBytes / epochs + 1;
    bool sawPartialPublish = false;
    for (bool progressed = true; progressed;) {
        progressed = false;
        for (Stream &s : streams) {
            if (s.offset >= s.bytes.size())
                continue;
            const std::size_t n =
                std::min(chunk, s.bytes.size() - s.offset);
            s.out.write(s.bytes.data() + s.offset,
                        static_cast<std::streamsize>(n));
            s.offset += n;
            written += n;
            progressed = true;
        }
        if (written >= nextEpochAt && progressed) {
            for (Stream &s : streams)
                s.out.flush();
            oracle.epoch(pipeline, published);
            if (!published.last.empty() && !pipeline.allComplete())
                sawPartialPublish = true;
            nextEpochAt += totalBytes / epochs + 1;
        }
    }
    for (Stream &s : streams)
        s.out.close();

    // Drain: a bounded number of epochs must finish every source.
    for (int i = 0; i < 10 && !pipeline.allComplete(); ++i)
        oracle.epoch(pipeline, published);
    ASSERT_TRUE(pipeline.allComplete())
        << "chunk=" << chunk << " jobs=" << jobs;
    EXPECT_GE(oracle.checked(), streams.size());
    // Mid-stream epochs published partial sessions on the way
    // (unless a single epoch swallowed everything, which whole-file
    // chunks legitimately do).
    if (chunk < 4096) {
        EXPECT_TRUE(sawPartialPublish);
    }

    for (std::size_t a = 0; a < streams.size(); ++a) {
        const auto it = published.last.find(streams[a].dest);
        ASSERT_NE(it, published.last.end())
            << "no update for " << streams[a].dest;
        EXPECT_TRUE(it->second.complete);
        EXPECT_EQ(it->second.appName, fix.config.apps[a].name);
        EXPECT_EQ(serializeSessionAnalysis(it->second.analysis),
                  fix.batchBytes[a])
            << "streamed analysis diverges from batch for "
            << fix.config.apps[a].name << " at chunk=" << chunk
            << " jobs=" << jobs;
        EXPECT_EQ(published.completeCount[streams[a].dest], 1u)
            << "complete snapshot must publish exactly once";
    }

    // One more epoch publishes nothing: every source is complete
    // and already published.
    EXPECT_EQ(pipeline.runEpoch(), 0u);
    for (const IngestSourceStatus &status : pipeline.status()) {
        EXPECT_TRUE(status.complete);
        EXPECT_EQ(status.backlogBytes, 0u);
        EXPECT_TRUE(status.error.empty());
    }
}

TEST(IngestDifferential, OneByteChunks)
{
    for (const std::uint32_t jobs : {1u, 8u})
        runDifferential(1, jobs, 7);
}

TEST(IngestDifferential, OneRecordChunks)
{
    // 23 bytes is exactly one encoded event record, so the event
    // section advances record-by-record but every other section's
    // records straddle the write boundary.
    for (const std::uint32_t jobs : {1u, 8u})
        runDifferential(23, jobs, 7);
}

TEST(IngestDifferential, FourKiBChunks)
{
    for (const std::uint32_t jobs : {1u, 8u})
        runDifferential(4096, jobs, 7);
}

TEST(IngestDifferential, ManyEpochsMatchTheOracle)
{
    // An epoch every few records, so each session is cut and folded
    // at hundreds of points mid-events and mid-samples.
    runDifferential(23, 4, 400);
}

TEST(IngestDifferential, WholeFileChunks)
{
    for (const std::uint32_t jobs : {1u, 8u})
        runDifferential(std::size_t(-1) / 2, jobs, 1);
}

TEST(IngestDifferential, KillAndResumeConvergesToSameBytes)
{
    StudyFixture &fix = fixture();
    const ScratchDir live("lagalyzer-ingest-resume");
    const std::string bytes = slurp(fix.tracePaths[0][0]);
    const std::string dest = live.path + "/resume.lag";

    const std::size_t half = bytes.size() / 2;
    {
        std::ofstream out(dest, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(half));
    }

    ThreadPool pool(4);
    IngestOptions options;
    options.perceptibleThreshold = fix.config.perceptibleThreshold;

    // First pipeline sees the first half, then dies mid-follow.
    {
        Published published;
        IngestPipeline dying(pool, options, published.sink());
        dying.addSource(dest);
        dying.runEpoch();
        EXPECT_FALSE(dying.allComplete());
    }

    {
        std::ofstream out(dest, std::ios::binary | std::ios::app);
        out.write(bytes.data() + half,
                  static_cast<std::streamsize>(bytes.size() - half));
    }

    // The replacement re-tails from byte zero and must converge on
    // exactly the batch analysis.
    Published published;
    IngestPipeline resumed(pool, options, published.sink());
    resumed.addSource(dest);
    for (int i = 0; i < 10 && !resumed.allComplete(); ++i)
        resumed.runEpoch();
    ASSERT_TRUE(resumed.allComplete());
    const auto it = published.last.find(dest);
    ASSERT_NE(it, published.last.end());
    EXPECT_TRUE(it->second.complete);
    EXPECT_EQ(serializeSessionAnalysis(it->second.analysis),
              fix.batchBytes[0]);
}

/** Write @p bytes to @p dest in @p chunk-byte steps, running an
 * oracle-checked epoch after each step, then drain. */
void
streamWithOracle(IngestPipeline &pipeline, Published &published,
                 EpochOracle &oracle, const std::string &bytes,
                 const std::string &dest, std::size_t chunk)
{
    std::ofstream out(dest, std::ios::binary | std::ios::trunc);
    for (std::size_t offset = 0; offset < bytes.size();) {
        const std::size_t n = std::min(chunk, bytes.size() - offset);
        out.write(bytes.data() + offset,
                  static_cast<std::streamsize>(n));
        out.flush();
        offset += n;
        oracle.epoch(pipeline, published);
    }
    for (int i = 0; i < 10 && !pipeline.allComplete(); ++i)
        oracle.epoch(pipeline, published);
}

TEST(IngestDifferential, SessionErrorMatchesSnapshotError)
{
    // A trace whose container is sound but whose event stream is
    // not: one dispatch end, mid-stream, turned into an interval
    // end. The tailer decodes it without complaint; the session
    // build must fail at the first cut that includes it, with the
    // text a from-scratch build of that snapshot raises, and the
    // epochs before it must match the oracle.
    StudyFixture &fix = fixture();
    const ScratchDir live("lagalyzer-ingest-session-error");
    trace::Trace damaged = trace::readTraceFile(fix.tracePaths[0][0]);
    std::size_t victim = damaged.events.size() / 2;
    while (victim < damaged.events.size() &&
           damaged.events[victim].type != trace::EventType::DispatchEnd)
        ++victim;
    ASSERT_LT(victim, damaged.events.size());
    damaged.events[victim].type = trace::EventType::IntervalEnd;
    const std::string bytes = trace::serializeTrace(damaged);
    const std::string dest = live.path + "/damaged.lag";

    ThreadPool pool(2);
    IngestOptions options;
    options.perceptibleThreshold = fix.config.perceptibleThreshold;
    Published published;
    IngestPipeline pipeline(pool, options, published.sink());
    pipeline.addSource(dest);
    EpochOracle oracle({dest}, options.perceptibleThreshold);
    streamWithOracle(pipeline, published, oracle, bytes, dest,
                     bytes.size() / 9 + 1);

    EXPECT_GT(oracle.checked(), 0u) << "no partial publish before the "
                                       "damage";
    const std::vector<IngestSourceStatus> statuses = pipeline.status();
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_NE(statuses[0].error.find("mismatched begin/end types"),
              std::string::npos)
        << statuses[0].error;
}

TEST(IngestDifferential, RewriteMidEventsDropsIncrementalState)
{
    // The file is replaced by another session's trace while the
    // first one is mid-events. The tailer restarts; everything the
    // pipeline derived from the old bytes must go, so the final
    // answer is exactly the new session's batch bytes.
    StudyFixture &fix = fixture();
    const ScratchDir live("lagalyzer-ingest-rewrite");
    const std::string first = slurp(fix.tracePaths[0][0]);
    const std::string second = slurp(fix.tracePaths[1][0]);
    const std::string dest = live.path + "/rewritten.lag";
    const std::size_t firstEvents =
        trace::readTraceFile(fix.tracePaths[0][0]).events.size();

    ThreadPool pool(2);
    IngestOptions options;
    options.perceptibleThreshold = fix.config.perceptibleThreshold;
    Published published;
    IngestPipeline pipeline(pool, options, published.sink());
    pipeline.addSource(dest);
    EpochOracle oracle({dest}, options.perceptibleThreshold);

    // Stream the first trace until the tailer is mid-events with a
    // published partial behind it.
    trace::TraceTailer probe(dest);
    {
        std::ofstream out(dest, std::ios::binary | std::ios::trunc);
        const std::size_t step = trace::kEventWireBytes * 8;
        for (std::size_t offset = 0;
             offset < first.size() &&
             (published.last.count(dest) == 0 ||
              probe.decoded().cutEvents() < firstEvents / 2);
             offset += step) {
            out.write(first.data() + offset,
                      static_cast<std::streamsize>(
                          std::min(step, first.size() - offset)));
            out.flush();
            oracle.epoch(pipeline, published);
            probe.poll();
        }
    }
    ASSERT_GT(probe.decoded().cutEvents(), 0u);
    ASSERT_LT(probe.decoded().cutEvents(), firstEvents);
    ASSERT_EQ(published.last.count(dest), 1u);
    ASSERT_FALSE(published.last.at(dest).complete);

    // Replace it wholesale; the new head differs, so the tailer
    // restarts and reads the new file from byte zero.
    streamWithOracle(pipeline, published, oracle, second, dest,
                     second.size() / 7 + 1);
    ASSERT_TRUE(pipeline.allComplete());
    const std::vector<IngestSourceStatus> statuses = pipeline.status();
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_EQ(statuses[0].restarts, 1u);
    EXPECT_TRUE(statuses[0].error.empty()) << statuses[0].error;
    const IngestUpdate &final_update = published.last.at(dest);
    EXPECT_TRUE(final_update.complete);
    EXPECT_EQ(final_update.appName, fix.config.apps[1].name);
    EXPECT_EQ(serializeSessionAnalysis(final_update.analysis),
              fix.batchBytes[1]);
}

TEST(IngestDifferential, CorruptSourceIsQuarantined)
{
    StudyFixture &fix = fixture();
    const ScratchDir live("lagalyzer-ingest-corrupt");
    std::string bytes = slurp(fix.tracePaths[0][0]);
    bytes[0] = 'X'; // bad magic: structurally corrupt
    const std::string badDest = live.path + "/bad.lag";
    {
        std::ofstream out(badDest,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    const std::string goodBytes = slurp(fix.tracePaths[1][0]);
    const std::string goodDest = live.path + "/good.lag";
    {
        std::ofstream out(goodDest,
                          std::ios::binary | std::ios::trunc);
        out.write(goodBytes.data(),
                  static_cast<std::streamsize>(goodBytes.size()));
    }

    ThreadPool pool(2);
    IngestOptions options;
    options.perceptibleThreshold = fix.config.perceptibleThreshold;
    Published published;
    IngestPipeline pipeline(pool, options, published.sink());
    pipeline.addSource(badDest);
    pipeline.addSource(goodDest);
    for (int i = 0; i < 10 && !pipeline.allComplete(); ++i)
        pipeline.runEpoch();

    // The corrupt source is quarantined with its error recorded;
    // the good one still completes and publishes the batch answer.
    ASSERT_TRUE(pipeline.allComplete());
    bool sawQuarantine = false;
    for (const IngestSourceStatus &status : pipeline.status()) {
        if (status.path == badDest) {
            EXPECT_FALSE(status.error.empty());
            EXPECT_FALSE(status.complete);
            sawQuarantine = true;
        } else {
            EXPECT_TRUE(status.error.empty());
            EXPECT_TRUE(status.complete);
        }
    }
    EXPECT_TRUE(sawQuarantine);
    EXPECT_EQ(published.last.count(badDest), 0u);
    const auto it = published.last.find(goodDest);
    ASSERT_NE(it, published.last.end());
    EXPECT_EQ(serializeSessionAnalysis(it->second.analysis),
              fix.batchBytes[1]);
}

TEST(IngestDifferential, ThrowingPublishStillEndsTheEpoch)
{
    // The publish callback throws once. The epoch must still end
    // (no exception escapes runEpoch to kill the driver thread), the
    // next epoch must not read as overlapping, and later epochs
    // publish the batch answer.
    StudyFixture &fix = fixture();
    const ScratchDir live("lagalyzer-ingest-publish-throws");
    const std::string bytes = slurp(fix.tracePaths[0][0]);
    const std::string dest = live.path + "/session.lag";
    const auto write = [&](std::size_t n) {
        std::ofstream out(dest, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(n));
    };

    ThreadPool pool(2);
    IngestOptions options;
    options.perceptibleThreshold = fix.config.perceptibleThreshold;
    Published published;
    bool thrown = false;
    IngestPipeline pipeline(
        pool, options, [&](std::vector<IngestUpdate> updates) {
            if (!thrown) {
                thrown = true;
                throw std::runtime_error("publish target is down");
            }
            published.accept(std::move(updates));
        });
    pipeline.addSource(dest);

    const std::uint64_t failuresBefore =
        obs::metrics().snapshot().counterValue(
            "ingest.publish_failures");
    write(bytes.size() / 2);
    std::size_t first = 1;
    EXPECT_NO_THROW(first = pipeline.runEpoch());
    EXPECT_TRUE(thrown);
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(obs::metrics().snapshot().counterValue(
                  "ingest.publish_failures"),
              failuresBefore + 1);

    write(bytes.size());
    for (int i = 0; i < 10 && !pipeline.allComplete(); ++i)
        pipeline.runEpoch();
    ASSERT_TRUE(pipeline.allComplete());
    EXPECT_EQ(pipeline.status().at(0).error, "");
    EXPECT_EQ(serializeSessionAnalysis(
                  published.last.at(dest).analysis),
              fix.batchBytes[0]);
}

TEST(IngestDifferential, DirectoryScanPicksUpNewFiles)
{
    StudyFixture &fix = fixture();
    const ScratchDir live("lagalyzer-ingest-scan");
    ThreadPool pool(2);
    IngestOptions options;
    options.perceptibleThreshold = fix.config.perceptibleThreshold;
    Published published;
    IngestPipeline pipeline(pool, options, published.sink());

    EXPECT_EQ(pipeline.scanDirectory(live.path), 0u);
    EXPECT_FALSE(pipeline.allComplete()); // no sources yet

    const std::string bytes = slurp(fix.tracePaths[0][0]);
    const std::string dest = live.path + "/late.lag";
    {
        std::ofstream out(dest, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    // A non-trace file must be ignored by the scan.
    { std::ofstream noise(live.path + "/notes.txt"); }

    EXPECT_EQ(pipeline.scanDirectory(live.path), 1u);
    EXPECT_EQ(pipeline.scanDirectory(live.path), 0u); // idempotent
    for (int i = 0; i < 10 && !pipeline.allComplete(); ++i)
        pipeline.runEpoch();
    ASSERT_TRUE(pipeline.allComplete());
    EXPECT_EQ(serializeSessionAnalysis(
                  published.last.at(dest).analysis),
              fix.batchBytes[0]);
}

TEST(IngestStatus, StatusCopyTracksTailersWhileReadersHammer)
{
    // Epochs run on this thread while a reader thread polls the
    // status surface nonstop. Readers only take the pipeline lock to
    // copy the per-source status, so they never wait for a poll;
    // under TSan (engine label) this also proves the copy is the
    // only state they share with the epoch.
    StudyFixture &fix = fixture();
    const ScratchDir live("lagalyzer-ingest-status");
    std::vector<std::string> bytes = {slurp(fix.tracePaths[0][0]),
                                      slurp(fix.tracePaths[1][0])};
    std::vector<std::string> dests = {live.path + "/a.lag",
                                      live.path + "/b.lag"};
    std::string corrupt = bytes[0];
    corrupt[0] = 'X';
    const std::string badDest = live.path + "/bad.lag";
    {
        std::ofstream out(badDest, std::ios::binary | std::ios::trunc);
        out.write(corrupt.data(),
                  static_cast<std::streamsize>(corrupt.size()));
    }

    ThreadPool pool(4);
    IngestOptions options;
    options.perceptibleThreshold = fix.config.perceptibleThreshold;
    Published published;
    IngestPipeline pipeline(pool, options, published.sink());
    for (const std::string &dest : dests)
        pipeline.addSource(dest);
    pipeline.addSource(badDest);

    std::atomic<bool> done{false};
    std::atomic<std::size_t> reads{0};
    std::thread reader([&] {
        while (!done.load()) {
            const std::vector<IngestSourceStatus> statuses =
                pipeline.status();
            EXPECT_EQ(statuses.size(), 3u);
            const std::string json = pipeline.statusJson();
            EXPECT_TRUE(obs::checkJson(json).ok) << json;
            (void)pipeline.allComplete();
            (void)pipeline.epoch();
            reads.fetch_add(1);
        }
    });

    // Reference tailers see the same file bytes after each epoch, so
    // their state is what each status copy must report.
    std::vector<trace::TraceTailer> reference;
    for (const std::string &dest : dests)
        reference.emplace_back(dest);
    std::vector<std::ofstream> outs;
    for (const std::string &dest : dests)
        outs.emplace_back(dest, std::ios::binary | std::ios::trunc);

    constexpr std::size_t kSteps = 16;
    for (std::size_t step = 1; step <= kSteps + 2; ++step) {
        for (std::size_t i = 0; i < dests.size(); ++i) {
            const std::size_t from =
                std::min(bytes[i].size(),
                         bytes[i].size() * (step - 1) / kSteps);
            const std::size_t to = std::min(
                bytes[i].size(), bytes[i].size() * step / kSteps);
            outs[i].write(bytes[i].data() + from,
                          static_cast<std::streamsize>(to - from));
            outs[i].flush();
        }
        pipeline.runEpoch();

        const std::vector<IngestSourceStatus> statuses =
            pipeline.status();
        ASSERT_EQ(statuses.size(), 3u);
        for (std::size_t i = 0; i < dests.size(); ++i) {
            trace::TraceTailer &ref = reference[i];
            ref.poll();
            const IngestSourceStatus &status = statuses[i];
            EXPECT_EQ(status.path, dests[i]);
            EXPECT_EQ(status.cursorBytes, ref.cursor()) << step;
            EXPECT_EQ(status.recordsDecoded, ref.decoded().recordsDecoded())
                << step;
            EXPECT_EQ(status.complete, ref.decoded().complete()) << step;
            EXPECT_EQ(status.analyzable, ref.decoded().analyzable()) << step;
            EXPECT_EQ(status.epochsPublished,
                      published.publishCount[dests[i]])
                << step;
            EXPECT_TRUE(status.error.empty());
        }
        const IngestSourceStatus &bad = statuses[2];
        EXPECT_EQ(bad.path, badDest);
        EXPECT_NE(bad.error.find("bad magic"), std::string::npos);
        EXPECT_FALSE(bad.complete);
        EXPECT_EQ(bad.epochsPublished, 0u);
    }
    done.store(true);
    reader.join();

    EXPECT_GT(reads.load(), 0u);
    EXPECT_TRUE(pipeline.allComplete());
    EXPECT_EQ(published.publishCount.count(badDest), 0u);
    const std::string json = pipeline.statusJson();
    EXPECT_NE(json.find("bad magic"), std::string::npos) << json;
    for (std::size_t i = 0; i < dests.size(); ++i) {
        EXPECT_EQ(published.completeCount[dests[i]], 1u);
        EXPECT_EQ(serializeSessionAnalysis(
                      published.last.at(dests[i]).analysis),
                  fix.batchBytes[i]);
    }
}

} // namespace
} // namespace lag::engine
