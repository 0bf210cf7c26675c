/**
 * @file
 * Reproduces Figure 2: an episode sketch from GanttProject showing
 * deeply nested paint intervals — a paint request to the main
 * window recursing through the component tree (paper §IV.A:
 * "GanttProject has a complex, deeply nested structure of GUI
 * components").
 *
 * The episode is taken from a real session of the GanttProject
 * model: the deepest perceptible episode of session 0.
 */

#include <cstdint>
#include <iostream>

#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "core/session.hh"
#include "util/logging.hh"
#include "study_util.hh"
#include "util/strings.hh"
#include "viz/sketch.hh"

int
main()
{
    using namespace lag;

    app::AppParams params = app::catalogApp("GanttProject");
    params.sessionLength = secToNs(60);
    app::SessionRunResult run = app::runSession(params, 0);
    const core::Session session =
        core::Session::fromTrace(std::move(run.trace));

    // Pick the deepest perceptible episode.
    const core::Episode *chosen = nullptr;
    std::size_t best_depth = 0;
    for (const auto &episode : session.episodes()) {
        if (episode.duration() < msToNs(100))
            continue;
        const std::size_t depth = core::flatDepth(
            session.episodeTree(episode), session.episodeRoot(episode));
        if (depth > best_depth) {
            best_depth = depth;
            chosen = &episode;
        }
    }
    if (chosen == nullptr)
        fatal("no perceptible GanttProject episode found");

    const core::FlatTree &tree = session.episodeTree(*chosen);
    const std::uint32_t root = session.episodeRoot(*chosen);
    std::cout << "Figure 2: GanttProject episode sketch (paper: "
                 "average Descs 18, Depth 12 across patterns)\n\n"
              << "Chosen episode: duration "
              << formatDurationNs(chosen->duration())
              << ", interval-tree depth " << best_depth
              << ", descendants " << core::flatDescendantCount(tree, root)
              << "\n";

    viz::SketchOptions options;
    options.title = "Figure 2: GanttProject deep paint nesting";
    const std::string path = bench::figurePath("fig2_sketch.svg");
    viz::renderEpisodeSketch(session, *chosen, options).writeFile(path);
    std::cout << "SVG written to " << path << "\n\n";
    std::cout << viz::renderAsciiSketch(session, *chosen, 100);
    return 0;
}
