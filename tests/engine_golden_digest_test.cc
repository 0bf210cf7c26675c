/**
 * @file
 * Golden output digests for every quick-study app model: the
 * serialized per-session analysis and the episode-sketch renderings
 * (SVG and ASCII) of each app's longest episode.  The analysis must
 * also come out byte-identical from AnalysisPartial folded at every
 * episode cut and at seeded random cuts — the ordered-merge contract
 * live ingest relies on.  The values are committed below, so any
 * change to how a session is built or analyzed that moves a single
 * output byte fails here.  On a mismatch the test prints the whole
 * table in source form; regenerate it only for an intended output
 * change (one that also bumps kAnalysisVersion where it applies).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>

#include "app/study.hh"
#include "engine/analysis_partial.hh"
#include "engine/result_cache.hh"
#include "scratch_dir.hh"
#include "util/hash.hh"
#include "viz/sketch.hh"

namespace lag::engine
{
namespace
{

using test::ScratchDir;

struct AppDigests
{
    const char *app;
    std::uint64_t analysis; ///< serializeSessionAnalysis bytes
    std::uint64_t sketchSvg;
    std::uint64_t sketchAscii;
};

// clang-format off
constexpr AppDigests kGolden[] = {
    {"Arabeske", 0x27d8494bc2edc251, 0x15edd4fdba6d6417, 0x64f0e2f6a71df336},
    {"ArgoUML", 0xb0bf57fa0c16608e, 0x7f1c70b6fc0edfc2, 0x7f4a0ded401fa2e7},
    {"CrosswordSage", 0x7ae6b8ad4d3a567f, 0x4eb3753c734b57fc, 0x0d01ab168025bca4},
    {"Euclide", 0x3e25ccb4a922d6d3, 0x4055801c57215c50, 0x7805ccb2dfefc3a2},
    {"FindBugs", 0x395d9dd774d31da2, 0xc49a0b034af7bc00, 0x12a92f1c4548e2af},
    {"FreeMind", 0x420e7d8345cad94f, 0xcd55e23140095451, 0xc663fe6c1ca77ced},
    {"GanttProject", 0x50b2655a7e37c52e, 0x2d1c329d2b9dea27, 0xa9dda1d27a53a0d7},
    {"JEdit", 0x77f2c7dcb3368816, 0xb4cb1701158a4500, 0x73f9bab941f9c65c},
    {"JFreeChart", 0x5e44516ac4f486e3, 0xbfd9731c0dd60432, 0xbcb0e6d0188cd788},
    {"JHotDraw", 0xb32d534a2bba11d6, 0x405878ad253ee04d, 0x90fcbd1ba2819b36},
    {"Jmol", 0x7f32a566c9fb63bf, 0xb76db2d9297e412a, 0x56e20f1a3f349d68},
    {"Laoe", 0x16a9187ad8cf4cbe, 0x85cb30d8854e5b35, 0x3fe71eaaad89acb9},
    {"NetBeans", 0xe0867d9d523c195c, 0x1e5fc4052cbcf5d7, 0x0e09c6d533a5be50},
    {"SwingSet", 0x5ef7dc3b0ee9353d, 0xc464e748a3fbb451, 0xfc6ee6241a3620d1},
};
// clang-format on

/**
 * Fold @p session one episode at a time, finishing a copy at every
 * cut, and then at seeded random cuts that move the tree and sample
 * cursors apart: every finish must serialize to @p serial.
 */
void
expectFoldsMatchSerial(const core::Session &session,
                       DurationNs threshold, const std::string &serial,
                       const std::string &app)
{
    const std::size_t n = session.episodes().size();
    AnalysisPartial stepwise(threshold);
    for (std::size_t e = 0; e <= n; ++e) {
        stepwise.fold(session, e, e);
        ASSERT_EQ(serializeSessionAnalysis(
                      AnalysisPartial(stepwise).finish(session)),
                  serial)
            << app << " folded to episode " << e;
    }
    std::mt19937_64 rng(fnv1a(app));
    for (int round = 0; round < 8; ++round) {
        AnalysisPartial partial(threshold);
        std::size_t tree = 0;
        std::size_t sample = 0;
        while (tree < n || sample < n) {
            tree += rng() % (n - tree + 1);
            sample += rng() % (n - sample + 1);
            partial.fold(session, tree, sample);
        }
        EXPECT_EQ(serializeSessionAnalysis(
                      std::move(partial).finish(session)),
                  serial)
            << app << " folded at random cuts, round " << round;
    }
}

TEST(GoldenDigests, EveryAppModelMatchesCommittedBytes)
{
    const ScratchDir dir("lagalyzer-cache-test-golden");
    app::StudyConfig config = app::StudyConfig::quickStudy();
    config.sessionsPerApp = 1;
    config.cacheDir = dir.path;
    config.jobs = 4;
    app::Study study(config);
    study.ensureTraces();
    ASSERT_EQ(config.apps.size(), std::size(kGolden))
        << "catalog changed; the table must cover every app model";

    std::string table;
    bool allMatch = true;
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        const core::Session session = study.loadSession(a, 0);
        const DurationNs threshold = config.perceptibleThreshold;
        const std::string serial =
            serializeSessionAnalysis(analyzeSession(session, threshold));
        expectFoldsMatchSerial(session, threshold, serial,
                               config.apps[a].name);

        ASSERT_FALSE(session.episodes().empty()) << config.apps[a].name;
        std::size_t longest = 0;
        for (std::size_t e = 1; e < session.episodes().size(); ++e) {
            if (session.episodes()[e].duration() >
                session.episodes()[longest].duration())
                longest = e;
        }
        const core::Episode &episode = session.episodes()[longest];
        const AppDigests actual{
            config.apps[a].name.c_str(), fnv1a(serial),
            fnv1a(viz::renderEpisodeSketch(session, episode).finish()),
            fnv1a(viz::renderAsciiSketch(session, episode, 100))};

        char line[160];
        std::snprintf(line, sizeof line,
                      "    {\"%s\", 0x%016" PRIx64 ", 0x%016" PRIx64
                      ", 0x%016" PRIx64 "},\n",
                      actual.app, actual.analysis, actual.sketchSvg,
                      actual.sketchAscii);
        table += line;

        const AppDigests &golden = kGolden[a];
        EXPECT_STREQ(golden.app, actual.app);
        EXPECT_EQ(golden.analysis, actual.analysis) << actual.app;
        EXPECT_EQ(golden.sketchSvg, actual.sketchSvg) << actual.app;
        EXPECT_EQ(golden.sketchAscii, actual.sketchAscii) << actual.app;
        allMatch = allMatch && golden.analysis == actual.analysis &&
                   golden.sketchSvg == actual.sketchSvg &&
                   golden.sketchAscii == actual.sketchAscii;
    }
    if (!allMatch)
        ADD_FAILURE() << "actual digests:\n" << table;
}

} // namespace
} // namespace lag::engine
