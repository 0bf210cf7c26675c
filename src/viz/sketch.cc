#include "sketch.hh"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "palette.hh"
#include "util/strings.hh"

namespace lag::viz
{

namespace
{

using core::Episode;
using core::FlatTree;
using core::IntervalType;
using core::Session;

constexpr double kRowH = 22.0;
constexpr double kRowGap = 2.0;
constexpr double kMarginLeft = 40.0;
constexpr double kMarginRight = 24.0;
constexpr double kSampleRowH = 18.0;
constexpr double kAxisH = 36.0;
constexpr double kTitleH = 26.0;
constexpr double kLegendH = 20.0;

/** Short label "JToolBar.paint" from symbols. */
std::string
shortLabel(const Session &session, const FlatTree &tree, std::uint32_t i)
{
    if (tree.typeOf(i) == IntervalType::Gc) {
        return tree.gcKind[i] == static_cast<std::uint8_t>(
                                     trace::TraceGcKind::Major)
                   ? "major GC"
                   : "minor GC";
    }
    if (tree.typeOf(i) == IntervalType::Dispatch)
        return "dispatch";
    const std::string &cls = session.symbol(tree.classSym[i]);
    const std::string &mth = session.symbol(tree.methodSym[i]);
    const auto dot = cls.rfind('.');
    const std::string simple =
        dot == std::string::npos ? cls : cls.substr(dot + 1);
    return simple + "." + mth;
}

/** Full tooltip text for an interval. */
std::string
intervalTooltip(const Session &session, const FlatTree &tree,
                std::uint32_t i)
{
    const IntervalType type = tree.typeOf(i);
    std::string tip = intervalTypeName(type);
    if (type != IntervalType::Dispatch && type != IntervalType::Gc) {
        tip += " " + session.symbol(tree.classSym[i]) + "." +
               session.symbol(tree.methodSym[i]);
    }
    tip += " — " + formatDurationNs(tree.duration(i));
    return tip;
}

} // namespace

SvgDocument
renderEpisodeSketch(const Session &session, const Episode &episode,
                    const SketchOptions &options)
{
    const FlatTree &tree = session.episodeTree(episode);
    const std::uint32_t root = session.episodeRoot(episode);
    const std::size_t depth = core::flatDepth(tree, root);
    const double tree_h =
        static_cast<double>(depth) * (kRowH + kRowGap);
    const double tree_top = kTitleH + kSampleRowH;
    const double height =
        tree_top + tree_h + kAxisH + (options.legend ? kLegendH : 0.0);
    SvgDocument doc(options.width, height);

    const double plot_w =
        options.width - kMarginLeft - kMarginRight;
    const auto span = std::max<DurationNs>(1, episode.duration());
    const double scale = plot_w / static_cast<double>(span);

    std::string title = options.title;
    if (title.empty()) {
        title = session.meta().appName + ": episode @ " +
                formatDouble(nsToSec(episode.begin), 2) + " s, " +
                formatDurationNs(episode.duration());
    }
    doc.text(options.width / 2.0, 17.0, title, 13.0, "#000000",
             TextAnchor::Middle);

    // Sample dots along the top edge (GUI thread only).
    const trace::SampleColumns &samples = session.samples();
    for (std::size_t s = episode.firstSample; s < episode.lastSample;
         ++s) {
        const std::size_t e = samples.findEntry(s, episode.thread);
        if (e == trace::SampleColumns::npos)
            continue;
        const double x =
            kMarginLeft +
            static_cast<double>(samples.time(s) - episode.begin) * scale;
        std::string tip =
            std::string(traceThreadStateName(samples.state(e))) + " @ " +
            formatDouble(nsToSec(samples.time(s)), 3) + " s";
        const auto stack = samples.stack(e);
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            tip += "\n  at " + session.symbol(it->classSym) + "." +
                   session.symbol(it->methodSym);
        }
        doc.circle(x, kTitleH + kSampleRowH / 2.0, 3.0,
                   std::string(threadStateColor(samples.state(e))), tip);
    }

    // Interval rectangles; depth 0 (dispatch) sits at the bottom of
    // the tree area.
    const auto paint = [&](std::uint32_t i, std::size_t d) {
        const double x =
            kMarginLeft +
            static_cast<double>(tree.begin[i] - episode.begin) * scale;
        const double w = std::max(
            1.0, static_cast<double>(tree.duration(i)) * scale);
        const double y = tree_top + static_cast<double>(depth - 1 - d) *
                                        (kRowH + kRowGap);
        doc.rect(x, y, w, kRowH,
                 std::string(intervalColor(tree.typeOf(i))), "#333333",
                 intervalTooltip(session, tree, i));
        const std::string label = shortLabel(session, tree, i);
        if (w > 8.0 * static_cast<double>(label.size())) {
            doc.text(x + w / 2.0, y + kRowH / 2.0 + 4.0, label, 10.0,
                     "#ffffff", TextAnchor::Middle);
        }
    };
    core::flatForEachInPreorder(tree, root, paint);

    // Time axis in session seconds.
    const double axis_y = tree_top + tree_h + 14.0;
    doc.line(kMarginLeft, axis_y, kMarginLeft + plot_w, axis_y,
             "#000000");
    for (int i = 0; i <= 4; ++i) {
        const double frac = static_cast<double>(i) / 4.0;
        const double x = kMarginLeft + frac * plot_w;
        const TimeNs t = episode.begin +
                         static_cast<TimeNs>(
                             frac * static_cast<double>(span));
        doc.line(x, axis_y, x, axis_y + 4.0, "#000000");
        doc.text(x, axis_y + 16.0, formatDouble(nsToSec(t), 3) + " s",
                 9.0, "#444444", TextAnchor::Middle);
    }

    if (options.legend) {
        double lx = kMarginLeft;
        const double ly = axis_y + 26.0;
        for (const IntervalType type :
             {IntervalType::Dispatch, IntervalType::Listener,
              IntervalType::Paint, IntervalType::Native,
              IntervalType::Async, IntervalType::Gc}) {
            doc.rect(lx, ly, 10.0, 10.0,
                     std::string(intervalColor(type)));
            const std::string name = intervalTypeName(type);
            doc.text(lx + 13.0, ly + 9.0, name, 9.0);
            lx += 13.0 + 6.5 * static_cast<double>(name.size()) + 14.0;
        }
    }
    return doc;
}

std::string
renderAsciiSketch(const Session &session, const Episode &episode,
                  std::size_t width)
{
    width = std::max<std::size_t>(width, 20);
    const FlatTree &tree = session.episodeTree(episode);
    const std::uint32_t root = session.episodeRoot(episode);
    const std::size_t depth = core::flatDepth(tree, root);
    const auto span = std::max<DurationNs>(1, episode.duration());

    const auto column = [&](TimeNs t) {
        const auto c = static_cast<std::size_t>(
            static_cast<double>(t - episode.begin) /
            static_cast<double>(span) *
            static_cast<double>(width - 1));
        return std::min(c, width - 1);
    };

    // rows[0] = sample states; rows[1] = deepest intervals; the
    // bottom row is the dispatch interval.
    std::vector<std::string> rows(depth + 1,
                                  std::string(width, ' '));

    const trace::SampleColumns &samples = session.samples();
    for (std::size_t s = episode.firstSample; s < episode.lastSample;
         ++s) {
        const std::size_t e = samples.findEntry(s, episode.thread);
        if (e == trace::SampleColumns::npos)
            continue;
        char c = '?';
        switch (samples.state(e)) {
          case trace::TraceThreadState::Runnable: c = 'r'; break;
          case trace::TraceThreadState::Blocked:  c = 'b'; break;
          case trace::TraceThreadState::Waiting:  c = 'w'; break;
          case trace::TraceThreadState::Sleeping: c = 's'; break;
        }
        rows[0][column(samples.time(s))] = c;
    }

    const auto type_char = [](IntervalType type) {
        switch (type) {
          case IntervalType::Dispatch: return 'D';
          case IntervalType::Listener: return 'L';
          case IntervalType::Paint:    return 'P';
          case IntervalType::Native:   return 'N';
          case IntervalType::Async:    return 'A';
          case IntervalType::Gc:       return 'G';
        }
        return '?';
    };

    const auto paint = [&](std::uint32_t i, std::size_t d) {
        const std::size_t row = depth - d; // dispatch at bottom
        const std::size_t from = column(tree.begin[i]);
        const std::size_t to = column(tree.end[i]);
        for (std::size_t c = from; c <= to; ++c)
            rows[row][c] = type_char(tree.typeOf(i));
    };
    core::flatForEachInPreorder(tree, root, paint);

    std::ostringstream out;
    out << "episode @ " << formatDouble(nsToSec(episode.begin), 2)
        << " s, duration " << formatDurationNs(episode.duration())
        << " (samples: r=runnable b=blocked w=waiting s=sleeping)\n";
    for (const auto &row : rows)
        out << row << '\n';
    return out.str();
}

} // namespace lag::viz
