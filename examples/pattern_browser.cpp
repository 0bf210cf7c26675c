/**
 * @file
 * The Pattern Browser (paper §II.E) as a terminal application.
 *
 * "LagAlyzer presents the user with a table of patterns [...]. By
 * selecting a pattern in the table, the developer can reveal a list
 * of all the episodes in that pattern as well as an episode sketch
 * of the first episode."
 *
 * Usage:
 *   ./pattern_browser <trace.lag>            interactive browsing
 *   ./pattern_browser <trace.lag> --demo     scripted walkthrough
 *
 * Interactive commands:
 *   <n>    select pattern row n        f  toggle perceptible filter
 *   j / k  next / previous episode     s  dump episode sketch (SVG)
 *   q      quit
 */

#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/browser.hh"
#include "core/pattern.hh"
#include "core/session.hh"
#include "report/table.hh"
#include "util/strings.hh"
#include "viz/sketch.hh"

namespace
{

using namespace lag;

void
printPatternTable(const core::PatternBrowserModel &browser)
{
    report::TextTable table;
    table.addColumn("row", report::Align::Right);
    table.addColumn("episodes", report::Align::Right);
    table.addColumn("perc", report::Align::Right);
    table.addColumn("min", report::Align::Right);
    table.addColumn("avg", report::Align::Right);
    table.addColumn("max", report::Align::Right);
    table.addColumn("total", report::Align::Right);
    table.addColumn("class", report::Align::Left);
    table.addColumn("signature", report::Align::Left);

    const auto &set = browser.patterns();
    const std::size_t show =
        std::min<std::size_t>(20, browser.visibleRows().size());
    for (std::size_t row = 0; row < show; ++row) {
        const core::Pattern &p =
            set.patterns[browser.visibleRows()[row]];
        std::string sig = p.signature.substr(0, 40);
        if (p.signature.size() > 40)
            sig += "...";
        table.addRow({std::to_string(row),
                      std::to_string(p.episodes.size()),
                      std::to_string(p.perceptibleCount),
                      formatDurationNs(p.minLag),
                      formatDurationNs(p.avgLag()),
                      formatDurationNs(p.maxLag),
                      formatDurationNs(p.totalLag),
                      core::occurrenceClassName(p.occurrence), sig});
    }
    std::cout << '\n'
              << (browser.perceptibleOnly()
                      ? "[filter: perceptible patterns only]\n"
                      : "")
              << table.render();
    if (browser.visibleRows().size() > show) {
        std::cout << "... and " << browser.visibleRows().size() - show
                  << " more rows\n";
    }
}

void
printSelection(const core::PatternBrowserModel &browser)
{
    if (!browser.hasSelection()) {
        std::cout << "(no pattern selected)\n";
        return;
    }
    const core::Pattern &pattern = browser.selectedPattern();
    const core::Session &session = browser.session();
    std::cout << "\nPattern " << pattern.signature << "\n  "
              << pattern.episodes.size() << " episodes, "
              << pattern.perceptibleCount << " perceptible ("
              << core::occurrenceClassName(pattern.occurrence)
              << ")\n  episodes at:";
    const std::size_t list =
        std::min<std::size_t>(8, pattern.episodes.size());
    for (std::size_t i = 0; i < list; ++i) {
        const auto &episode =
            session.episodes()[pattern.episodes[i]];
        std::cout << ' ' << formatDouble(nsToSec(episode.begin), 1)
                  << "s/"
                  << formatDurationNs(episode.duration());
    }
    if (pattern.episodes.size() > list)
        std::cout << " ...";
    std::cout << "\n\nEpisode " << browser.currentEpisodeIndex() + 1
              << '/' << pattern.episodes.size() << ":\n"
              << viz::renderAsciiSketch(session,
                                        browser.currentEpisode(), 100);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: pattern_browser <trace.lag> [--demo]\n";
        return 2;
    }
    const bool demo =
        argc > 2 && std::strcmp(argv[2], "--demo") == 0;

    std::optional<core::Session> loaded;
    try {
        loaded = core::Session::fromFile(argv[1]);
    } catch (const trace::TraceError &err) {
        std::cerr << "cannot open '" << argv[1] << "': " << err.what()
                  << '\n';
        return 1;
    }
    const core::Session &session = *loaded;
    const core::PatternSet set =
        core::PatternMiner(msToNs(100)).mine(session);
    core::PatternBrowserModel browser(session, set);

    std::cout << "LagAlyzer pattern browser — "
              << session.meta().appName << ", "
              << session.episodes().size() << " episodes, "
              << set.patterns.size() << " patterns\n";
    printPatternTable(browser);

    if (demo) {
        // Scripted walkthrough: filter, select, browse, sketch.
        std::cout << "\n--- demo: toggling perceptible filter ---\n";
        browser.setPerceptibleOnly(true);
        printPatternTable(browser);
        if (!browser.visibleRows().empty()) {
            std::cout << "\n--- demo: selecting row 0 ---\n";
            browser.selectRow(0);
            printSelection(browser);
            std::cout << "\n--- demo: next episode ---\n";
            browser.nextEpisode();
            printSelection(browser);
        }
        return 0;
    }

    std::string line;
    while (std::cout << "\nbrowser> " && std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        if (line == "q")
            break;
        if (line == "f") {
            browser.setPerceptibleOnly(!browser.perceptibleOnly());
            printPatternTable(browser);
        } else if (line == "j" && browser.hasSelection()) {
            browser.nextEpisode();
            printSelection(browser);
        } else if (line == "k" && browser.hasSelection()) {
            browser.prevEpisode();
            printSelection(browser);
        } else if (line == "s" && browser.hasSelection()) {
            const std::string path = "browser_sketch.svg";
            viz::renderEpisodeSketch(session,
                                     browser.currentEpisode())
                .writeFile(path);
            std::cout << "sketch written to " << path << '\n';
        } else {
            std::istringstream parse(line);
            std::size_t row = 0;
            if (parse >> row && row < browser.visibleRows().size()) {
                browser.selectRow(row);
                printSelection(browser);
            } else {
                std::cout << "commands: <row> | f | j | k | s | q\n";
            }
        }
    }
    return 0;
}
