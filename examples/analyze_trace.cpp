/**
 * @file
 * The "LagAlyzer side": load a .lag trace file and run the complete
 * analysis suite — overview statistics (Table III row), pattern
 * mining, triggers, location, concurrency and GUI-thread states —
 * then render the slowest perceptible episode as an SVG sketch.
 *
 * Usage: ./analyze_trace <trace.lag> [--threshold-ms N]
 *                        [--self-trace OUT.json] [--metrics-out OUT]
 *
 * Results are cached in <trace.lag>.cache keyed by the trace
 * identity and threshold: a re-run of the same analysis renders
 * from the cache instead of re-mining. The tables always render
 * from a cache round-trip, so what you see is exactly what a cached
 * re-run would show.
 *
 * --self-trace writes a Chrome trace-event JSON of the run's own
 * spans (open in ui.perfetto.dev); --metrics-out dumps the engine
 * counters. See src/obs/.
 *
 * (Produce a trace with ./record_session first.)
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>

#include "app/params.hh"
#include "core/blame.hh"
#include "core/browser.hh"
#include "core/session.hh"
#include "engine/result_cache.hh"
#include "obs/scope.hh"
#include "report/table.hh"
#include "util/strings.hh"
#include "viz/sketch.hh"

namespace
{

/** Cache key: everything that determines the analysis result. */
std::string
analysisFingerprint(const lag::trace::TraceMeta &meta,
                    lag::DurationNs threshold)
{
    std::ostringstream out;
    out << meta.appName << ';' << meta.sessionIndex << ';'
        << meta.seed << ';' << meta.startTime << ';' << meta.endTime
        << ';' << threshold;
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lag;

    const obs::ObsOptions obs_options =
        app::parseObsOptions(argc, argv);
    obs::install(obs_options);
    if (argc < 2) {
        std::cerr << "usage: analyze_trace <trace.lag> "
                     "[--threshold-ms N] "
                     "[--self-trace OUT.json] [--metrics-out OUT]\n";
        return 2;
    }
    const std::string path = argv[1];
    DurationNs threshold = msToNs(100);
    for (int i = 2; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold-ms") == 0)
            threshold = msToNs(std::atoi(argv[i + 1]));
    }

    std::optional<core::Session> loaded;
    try {
        loaded = core::Session::fromFile(path);
    } catch (const trace::TraceError &err) {
        std::cerr << "cannot analyze '" << path << "': " << err.what()
                  << '\n';
        return 1;
    }
    const core::Session &session = *loaded;

    std::cout << "=== " << session.meta().appName << ", session "
              << session.meta().sessionIndex << " ===\n\n";

    // Analysis goes through the on-disk result cache next to the
    // trace: a hit skips mining entirely, a miss computes, stores,
    // and reloads so every run renders a cache round-trip.
    const engine::ResultCache cache(
        path + ".cache", analysisFingerprint(session.meta(),
                                             threshold));
    const std::string &app_name = session.meta().appName;
    const std::uint32_t session_index = session.meta().sessionIndex;
    std::optional<engine::SessionAnalysis> analysis =
        cache.load(app_name, session_index);
    if (!analysis) {
        cache.store(app_name, session_index,
                    engine::analyzeSession(session, threshold));
        analysis = cache.load(app_name, session_index);
    }
    if (!analysis) {
        std::cerr << "analysis cache round-trip failed for '" << path
                  << "'\n";
        return 1;
    }
    const auto &overview = analysis->overview;
    const auto &triggers = analysis->triggers;
    const auto &location = analysis->location;
    const auto &concurrency = analysis->concurrency;
    const auto &states = analysis->states;

    report::TextTable ov;
    ov.addColumn("metric", report::Align::Left);
    ov.addColumn("value", report::Align::Right);
    ov.addRow({"end-to-end time",
               formatDouble(overview.e2eSeconds, 1) + " s"});
    ov.addRow({"in-episode time",
               formatDouble(overview.inEpsPercent, 1) + " %"});
    ov.addRow({"episodes < 3 ms (filtered)",
               formatCount(overview.shortCount)});
    ov.addRow({"episodes >= 3 ms (traced)",
               formatCount(overview.tracedCount)});
    ov.addRow({"episodes >= " + formatDurationNs(threshold),
               formatCount(overview.perceptibleCount)});
    ov.addRow({"perceptible per in-episode minute",
               formatDouble(overview.longPerMin, 1)});
    ov.addRow({"distinct patterns",
               formatCount(overview.distinctPatterns)});
    ov.addRow({"episodes covered by patterns",
               formatCount(overview.coveredEpisodes)});
    ov.addRow({"singleton patterns",
               formatDouble(overview.oneEpPercent, 0) + " %"});
    ov.addRow({"mean tree size (Descs)",
               formatDouble(overview.meanDescs, 1)});
    ov.addRow({"mean tree depth",
               formatDouble(overview.meanDepth, 1)});
    std::cout << "Overview (Table III row):\n" << ov.render() << '\n';

    report::TextTable an;
    an.addColumn("analysis", report::Align::Left);
    an.addColumn("all episodes", report::Align::Right);
    an.addColumn("perceptible", report::Align::Right);
    an.addRow({"trigger: input", formatPercent(triggers.all.input),
               formatPercent(triggers.perceptible.input)});
    an.addRow({"trigger: output", formatPercent(triggers.all.output),
               formatPercent(triggers.perceptible.output)});
    an.addRow({"trigger: async", formatPercent(triggers.all.async),
               formatPercent(triggers.perceptible.async)});
    an.addRow({"trigger: unspecified",
               formatPercent(triggers.all.unspecified),
               formatPercent(triggers.perceptible.unspecified)});
    an.addSeparator();
    an.addRow({"time in runtime library",
               formatPercent(location.all.libraryFraction),
               formatPercent(location.perceptible.libraryFraction)});
    an.addRow({"time in application",
               formatPercent(location.all.appFraction),
               formatPercent(location.perceptible.appFraction)});
    an.addRow({"time in GC", formatPercent(location.all.gcFraction),
               formatPercent(location.perceptible.gcFraction)});
    an.addRow({"time in native calls",
               formatPercent(location.all.nativeFraction),
               formatPercent(location.perceptible.nativeFraction)});
    an.addSeparator();
    an.addRow({"mean runnable threads",
               formatDouble(concurrency.meanRunnableAll, 2),
               formatDouble(concurrency.meanRunnablePerceptible, 2)});
    an.addRow({"GUI thread blocked",
               formatPercent(states.all.blocked),
               formatPercent(states.perceptible.blocked)});
    an.addRow({"GUI thread waiting",
               formatPercent(states.all.waiting),
               formatPercent(states.perceptible.waiting)});
    an.addRow({"GUI thread sleeping",
               formatPercent(states.all.sleeping),
               formatPercent(states.perceptible.sleeping)});
    std::cout << "Characterization (paper SIV):\n" << an.render()
              << '\n';

    // Blame report: which code the GUI thread was in during
    // perceptible episodes (the paper's manual drill-down, SIV).
    // Works on the session itself — sample-level detail is not part
    // of the cached analysis.
    core::BlameOptions blame_options;
    blame_options.perceptibleThreshold = threshold;
    blame_options.byMethod = true;
    blame_options.limit = 8;
    const auto blame = core::blameReport(session, blame_options);
    if (!blame.empty()) {
        report::TextTable bl;
        bl.addColumn("sampled in (perceptible episodes)",
                     report::Align::Left);
        bl.addColumn("samples", report::Align::Right);
        bl.addColumn("share", report::Align::Right);
        bl.addColumn("not-runnable", report::Align::Right);
        bl.addColumn("origin", report::Align::Left);
        for (const auto &entry : blame) {
            bl.addRow({entry.symbol, std::to_string(entry.samples),
                       formatPercent(entry.share),
                       std::to_string(entry.notRunnableSamples),
                       entry.isLibrary ? "library" : "application"});
        }
        std::cout << "Blame (innermost sampled frames):\n"
                  << bl.render() << '\n';
    }

    // Slowest perceptible episode as a sketch.
    const core::Episode *slowest = nullptr;
    for (const auto &episode : session.episodes()) {
        if (slowest == nullptr ||
            episode.duration() > slowest->duration()) {
            slowest = &episode;
        }
    }
    if (slowest != nullptr) {
        const std::string svg_path = path + ".sketch.svg";
        viz::renderEpisodeSketch(session, *slowest)
            .writeFile(svg_path);
        std::cout << "Slowest episode ("
                  << formatDurationNs(slowest->duration())
                  << ") sketched to " << svg_path << '\n';
    }
    return 0;
}
