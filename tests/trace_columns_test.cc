/**
 * @file
 * The flat sample columns (trace::SampleColumns) end to end: a batch
 * load hands the analyses exactly the samples the profiler wrote,
 * a session fed its samples in column slices equals the one built in
 * one piece, and a bad sample is named by the same error whichever
 * path loads it: the batch reader, the study loader or the tailer and
 * session builder of live ingest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "app/session_runner.hh"
#include "app/study.hh"
#include "core/session.hh"
#include "engine/result_cache.hh"
#include "scratch_dir.hh"
#include "trace/io.hh"
#include "trace/tailer.hh"
#include "trace_builder.hh"
#include "util/logging.hh"

namespace lag::trace
{
namespace
{

/** @p got equals @p want entry for entry; names the first mismatch. */
void
expectSameColumns(const SampleColumns &got, const SampleColumns &want)
{
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.entryCount(), want.entryCount());
    ASSERT_EQ(got.frames().size(), want.frames().size());
    for (std::size_t s = 0; s < want.size(); ++s) {
        ASSERT_EQ(got.time(s), want.time(s)) << "sample " << s;
        ASSERT_EQ(got.entryBegin(s), want.entryBegin(s)) << "sample " << s;
        ASSERT_EQ(got.entryEnd(s), want.entryEnd(s)) << "sample " << s;
        for (std::size_t e = want.entryBegin(s); e < want.entryEnd(s);
             ++e) {
            ASSERT_EQ(got.thread(e), want.thread(e)) << "entry " << e;
            ASSERT_EQ(got.state(e), want.state(e)) << "entry " << e;
            const auto a = got.stack(e);
            const auto b = want.stack(e);
            ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
                << "entry " << e;
        }
    }
    EXPECT_TRUE(got == want);
}

/** A one-session-per-app quick study in @p dir. */
app::StudyConfig
quickStudy(const std::string &dir)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(5);
    config.sessionsPerApp = 1;
    config.cacheDir = dir;
    config.jobs = 2;
    return config;
}

TEST(SampleColumns, BatchLoadHoldsTheAgentsSamplesForEveryQuickApp)
{
    const test::ScratchDir dir("lagalyzer-cache-test-columns-oracle");
    const app::StudyConfig config = quickStudy(dir.path);
    app::Study study(config);
    study.ensureTraces();
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        SCOPED_TRACE(config.apps[a].name);
        // The oracle: the samples LilaAgent wrote, before any bytes.
        const Trace written =
            app::runSession(config.apps[a], 0, config.sessionOptions)
                .trace;
        ASSERT_FALSE(written.samples.empty());
        const core::Session loaded = study.loadSession(a, 0);
        expectSameColumns(loaded.samples(), written.samples);
    }
}

TEST(SampleColumns, AppendOfRandomSlicesEqualsFromTrace)
{
    const test::ScratchDir dir("lagalyzer-cache-test-columns-slices");
    app::StudyConfig config = quickStudy(dir.path);
    config.apps.resize(4);
    app::Study study(config);
    const auto paths = study.ensureTraces();
    std::mt19937_64 rng(23);
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        SCOPED_TRACE(config.apps[a].name);
        const Trace trace = readTraceFile(paths[a][0]);
        const core::Session whole = core::Session::fromTrace(trace);
        const SampleColumns &samples = trace.samples;
        for (int round = 0; round < 4; ++round) {
            // k slice ends in [0, size], ascending, the last the end.
            std::vector<std::size_t> ends;
            for (std::size_t k = 1 + rng() % 8; k > 0; --k)
                ends.push_back(rng() % (samples.size() + 1));
            std::sort(ends.begin(), ends.end());
            ends.push_back(samples.size());

            SampleColumns concatenated;
            core::SessionBuilder builder(trace.meta.startTime,
                                         trace.threads, trace.strings);
            std::size_t from = 0;
            bool first = true;
            for (const std::size_t to : ends) {
                concatenated.append(samples, from, to);
                builder.append(first ? std::span(trace.events)
                                     : std::span<const TraceEvent>(),
                               samples, from, to);
                (void)builder.cut(trace.meta);
                first = false;
                from = to;
            }
            expectSameColumns(concatenated, samples);

            // The same slices in shuffled order land at other offsets:
            // the result must equal a record-by-record copy.
            std::vector<std::pair<std::size_t, std::size_t>> slices;
            for (std::size_t k = 0, begin = 0; k < ends.size(); ++k) {
                slices.emplace_back(begin, ends[k]);
                begin = ends[k];
            }
            std::shuffle(slices.begin(), slices.end(), rng);
            SampleColumns shuffled;
            SampleColumns copied;
            for (const auto &[begin, end] : slices) {
                shuffled.append(samples, begin, end);
                for (std::size_t s = begin; s < end; ++s) {
                    copied.addSample(samples.time(s));
                    for (std::size_t e = samples.entryBegin(s);
                         e < samples.entryEnd(s); ++e) {
                        copied.addEntry(samples.thread(e), samples.state(e));
                        for (const SampleFrame &frame : samples.stack(e))
                            copied.addFrame(frame);
                    }
                }
            }
            expectSameColumns(shuffled, copied);
            const core::Session &built = builder.cut(trace.meta);
            expectSameColumns(built.samples(), whole.samples());
            ASSERT_EQ(built.episodes().size(), whole.episodes().size());
            for (std::size_t e = 0; e < whole.episodes().size(); ++e) {
                EXPECT_EQ(built.episodes()[e].firstSample,
                          whole.episodes()[e].firstSample);
                EXPECT_EQ(built.episodes()[e].lastSample,
                          whole.episodes()[e].lastSample);
            }
            EXPECT_EQ(engine::serializeSessionAnalysis(
                          engine::analyzeSession(built, msToNs(100))),
                      engine::serializeSessionAnalysis(
                          engine::analyzeSession(whole, msToNs(100))));
        }
    }
}

/** The error text of @p fn, or "" when it does not throw. */
template <typename Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const TraceError &e) {
        return e.what();
    }
    return "";
}

/** What Study::loadSession reports for the unreadable trace it
 * re-simulates: the text of its warning. */
std::string
studyLoadError(app::Study &study)
{
    std::FILE *log = std::tmpfile();
    std::FILE *previous = setLogSink(log);
    (void)study.loadSession(0, 0);
    setLogSink(previous);
    std::rewind(log);
    std::string text;
    for (int c = std::fgetc(log); c != EOF; c = std::fgetc(log))
        text.push_back(static_cast<char>(c));
    std::fclose(log);
    const std::string open = "unreadable (";
    const std::size_t from = text.find(open);
    const std::size_t to = text.find("); re-simulating");
    if (from == std::string::npos || to == std::string::npos)
        return "";
    return text.substr(from + open.size(), to - from - open.size());
}

/** What the tailer and session builder of live ingest report for
 * the trace file at @p path. */
std::string
followError(const std::string &path)
{
    TraceTailer tailer(path);
    return errorOf([&] {
        tailer.poll();
        const TraceDecoder &decoded = tailer.decoded();
        core::SessionBuilder builder(decoded.meta().startTime,
                                     decoded.threads(), decoded.strings());
        builder.append(std::span(decoded.events())
                           .subspan(0, decoded.cutEvents()),
                       decoded.samples(), 0, decoded.samples().size());
        (void)builder.cut(decoded.cutMeta());
    });
}

TEST(SampleColumns, BadSampleRaisesTheSameErrorOnEveryLoadPath)
{
    struct Case
    {
        const char *name;
        const char *expected; ///< a substring of the error
        test::SampleEntry entry;
    };
    const std::vector<Case> cases = {
        {"unknown thread", "sample references unknown thread 77",
         {77, TraceThreadState::Runnable, {}}},
        {"symbol out of range", "symbol id 9999 out of range",
         {0, TraceThreadState::Runnable, {SampleFrame{9999, 0}}}},
        {"state 4", "unknown thread state 4",
         {0, static_cast<TraceThreadState>(4), {}}},
    };
    const test::ScratchDir dir("lagalyzer-cache-test-columns-errors");
    app::StudyConfig config = quickStudy(dir.path);
    config.apps.resize(1);
    app::Study study(config);
    const std::string path = study.ensureTraces()[0][0];

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        test::TraceBuilder builder;
        builder.listenerEpisode(msToNs(10), msToNs(200), "app.A");
        builder.sample(msToNs(20), TraceThreadState::Runnable);
        builder.rawSample(msToNs(30), {c.entry});
        builder.sample(msToNs(40), TraceThreadState::Blocked);
        const std::string bytes = serializeTrace(builder.build(secToNs(1)));
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }

        const std::string batch =
            errorOf([&] { (void)deserializeTrace(bytes); });
        EXPECT_NE(batch.find(c.expected), std::string::npos) << batch;
        EXPECT_EQ(followError(path), batch);
        // Last: the study re-simulates over the bad file.
        EXPECT_EQ(studyLoadError(study), batch);
    }
}

} // namespace
} // namespace lag::trace
