#include "figure_json.hh"

#include <algorithm>
#include <charconv>
#include <numeric>

#include "pattern.hh"
#include "util/json.hh"

namespace lag::core
{

namespace
{

/** Small append-only JSON builder over the util/json.hh writers:
 * keeps emission sites terse and the comma discipline in one place.
 * Every field appends straight into the one output string. */
class JsonOut
{
  public:
    void
    reserve(std::size_t bytes)
    {
        out_.reserve(bytes);
    }

    void
    raw(std::string_view text)
    {
        out_.append(text);
    }

    void
    str(std::string_view s)
    {
        appendJsonString(out_, s);
    }

    /** @p name is one of the emitters' literal field names, which
     * need no escapes. */
    void
    key(std::string_view name)
    {
        out_.push_back('"');
        out_.append(name);
        out_.append("\":");
    }

    /** A pattern key as a quoted patternKeyHex() string. */
    void
    hexKey(std::uint64_t key)
    {
        out_.push_back('"');
        appendHex16(out_, key);
        out_.push_back('"');
    }

    void
    num(double v)
    {
        appendJsonNumber(out_, v);
    }

    void
    num(std::uint64_t v)
    {
        appendJsonNumber(out_, v);
    }

    void
    num(std::int64_t v)
    {
        appendJsonNumber(out_, v);
    }

    void
    comma()
    {
        out_.push_back(',');
    }

    std::string
    take()
    {
        return std::move(out_);
    }

  private:
    std::string out_;
};

void
emitShares(JsonOut &j, const char *label, const TriggerShares &s)
{
    j.key(label);
    j.raw("{");
    j.key("input");
    j.num(s.input);
    j.comma();
    j.key("output");
    j.num(s.output);
    j.comma();
    j.key("async");
    j.num(s.async);
    j.comma();
    j.key("unspecified");
    j.num(s.unspecified);
    j.comma();
    j.key("episodes");
    j.num(static_cast<std::uint64_t>(s.episodeCount));
    j.raw("}");
}

void
emitLocation(JsonOut &j, const char *label, const LocationShares &s)
{
    j.key(label);
    j.raw("{");
    j.key("app");
    j.num(s.appFraction);
    j.comma();
    j.key("library");
    j.num(s.libraryFraction);
    j.comma();
    j.key("gc");
    j.num(s.gcFraction);
    j.comma();
    j.key("native");
    j.num(s.nativeFraction);
    j.comma();
    j.key("samples");
    j.num(static_cast<std::uint64_t>(s.sampleCount));
    j.comma();
    j.key("episodes");
    j.num(static_cast<std::uint64_t>(s.episodeCount));
    j.raw("}");
}

void
emitStates(JsonOut &j, const char *label, const GuiStateShares &s)
{
    j.key(label);
    j.raw("{");
    j.key("blocked");
    j.num(s.blocked);
    j.comma();
    j.key("waiting");
    j.num(s.waiting);
    j.comma();
    j.key("sleeping");
    j.num(s.sleeping);
    j.comma();
    j.key("runnable");
    j.num(s.runnable);
    j.comma();
    j.key("samples");
    j.num(static_cast<std::uint64_t>(s.sampleCount));
    j.raw("}");
}

/** One app element of a figure array: {"app":NAME,<body>}. */
template <typename BodyFn>
std::string
perAppFigure(std::string_view id,
             const std::vector<const AppFigureData *> &apps,
             const BodyFn &body)
{
    JsonOut j;
    j.raw("{");
    j.key("figure");
    j.str(id);
    j.comma();
    j.key("apps");
    j.raw("[");
    for (std::size_t a = 0; a < apps.size(); ++a) {
        if (a > 0)
            j.comma();
        j.raw("{");
        j.key("app");
        j.str(apps[a]->name);
        j.comma();
        body(j, *apps[a]);
        j.raw("}");
    }
    j.raw("]}");
    return j.take();
}

} // namespace

std::string
patternKeyHex(std::uint64_t key)
{
    std::string out;
    appendHex16(out, key);
    return out;
}

bool
parsePatternKeyHex(std::string_view text, std::uint64_t &key)
{
    if (text.size() >= 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X'))
        text.remove_prefix(2);
    if (text.empty() || text.size() > 16)
        return false;
    const auto res = std::from_chars(
        text.data(), text.data() + text.size(), key, 16);
    return res.ec == std::errc() &&
           res.ptr == text.data() + text.size();
}

std::string
patternsJson(std::string_view app, const MergedPatternSet &set,
             std::string_view sort, std::size_t limit)
{
    const bool known =
        std::find(std::begin(kPatternSortKeys),
                  std::end(kPatternSortKeys),
                  sort) != std::end(kPatternSortKeys);
    if (!known)
        return std::string();

    // Indices, not patterns, move. Ties keep the set's
    // most-populous-first order (index ascending), so the order is
    // the stable one and the output deterministic for any input;
    // with that tie-break a `limit` only has to select its first
    // `count` indices, not sort them all.
    const std::size_t n = set.patterns.size();
    const std::size_t count = limit > 0 && limit < n ? limit : n;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto by = [&](auto get) {
        const auto before = [&](std::size_t a, std::size_t b) {
            const auto va = get(set.patterns[a]);
            const auto vb = get(set.patterns[b]);
            return va > vb || (va == vb && a < b);
        };
        if (count < n)
            std::partial_sort(order.begin(),
                              order.begin() +
                                  static_cast<std::ptrdiff_t>(count),
                              order.end(), before);
        else
            std::sort(order.begin(), order.end(), before);
    };
    if (sort == "total_lag")
        by([](const MergedPattern &p) { return p.totalLag; });
    else if (sort == "max_lag")
        by([](const MergedPattern &p) { return p.maxLag; });
    else if (sort == "avg_lag")
        by([](const MergedPattern &p) { return p.avgLag(); });

    // One reserve for the whole body: per pattern, the most its
    // other fields can render (keys and punctuation, 20 characters
    // per number, the longest occurrence class) plus its signature.
    // Only text that needs escapes can outgrow it.
    constexpr std::size_t kPatternFieldsBound = 400;
    std::size_t bytes = 128 + app.size() + sort.size();
    for (std::size_t i = 0; i < count; ++i)
        bytes += kPatternFieldsBound +
                 set.patterns[order[i]].signature.size();

    JsonOut j;
    j.reserve(bytes);
    j.raw("{");
    j.key("app");
    j.str(app);
    j.comma();
    j.key("sessions");
    j.num(static_cast<std::uint64_t>(set.sessionCount));
    j.comma();
    j.key("total_patterns");
    j.num(static_cast<std::uint64_t>(set.patterns.size()));
    j.comma();
    j.key("sort");
    j.str(sort);
    j.comma();
    j.key("patterns");
    j.raw("[");
    for (std::size_t i = 0; i < count; ++i) {
        const MergedPattern &p = set.patterns[order[i]];
        if (i > 0)
            j.comma();
        j.raw("{");
        j.key("key");
        j.hexKey(p.key);
        j.comma();
        j.key("signature");
        j.str(p.signature);
        j.comma();
        j.key("sessions");
        j.num(static_cast<std::uint64_t>(p.sessions.size()));
        j.comma();
        j.key("episodes");
        j.num(static_cast<std::uint64_t>(p.totalEpisodes));
        j.comma();
        j.key("perceptible");
        j.num(static_cast<std::uint64_t>(p.totalPerceptible));
        j.comma();
        j.key("min_lag_ns");
        j.num(static_cast<std::int64_t>(p.minLag));
        j.comma();
        j.key("max_lag_ns");
        j.num(static_cast<std::int64_t>(p.maxLag));
        j.comma();
        j.key("total_lag_ns");
        j.num(static_cast<std::int64_t>(p.totalLag));
        j.comma();
        j.key("avg_lag_ns");
        j.num(static_cast<std::int64_t>(p.avgLag()));
        j.comma();
        j.key("occurrence");
        j.str(occurrenceClassName(p.occurrence));
        j.comma();
        j.key("recurring");
        j.raw(p.recurring(set.sessionCount) ? "true" : "false");
        j.comma();
        j.key("descendants");
        j.num(static_cast<std::uint64_t>(p.descendants));
        j.comma();
        j.key("depth");
        j.num(static_cast<std::uint64_t>(p.depth));
        j.raw("}");
    }
    j.raw("]}");
    return j.take();
}

std::string
cdfJson(std::string_view app, const std::vector<double> &grid)
{
    JsonOut j;
    j.raw("{");
    j.key("app");
    j.str(app);
    j.comma();
    j.key("pattern_percent");
    j.raw("[");
    for (std::size_t x = 0; x < grid.size(); ++x) {
        if (x > 0)
            j.comma();
        j.num(static_cast<std::uint64_t>(x));
    }
    j.raw("],");
    j.key("episode_fraction");
    j.raw("[");
    for (std::size_t x = 0; x < grid.size(); ++x) {
        if (x > 0)
            j.comma();
        j.num(grid[x]);
    }
    j.raw("]}");
    return j.take();
}

std::string
episodesJson(std::string_view app, const MergedPattern &pattern,
             std::size_t session_count)
{
    JsonOut j;
    j.raw("{");
    j.key("app");
    j.str(app);
    j.comma();
    j.key("key");
    j.hexKey(pattern.key);
    j.comma();
    j.key("signature");
    j.str(pattern.signature);
    j.comma();
    j.key("occurrence");
    j.str(occurrenceClassName(pattern.occurrence));
    j.comma();
    j.key("recurring");
    j.raw(pattern.recurring(session_count) ? "true" : "false");
    j.comma();
    j.key("total_episodes");
    j.num(static_cast<std::uint64_t>(pattern.totalEpisodes));
    j.comma();
    j.key("total_perceptible");
    j.num(static_cast<std::uint64_t>(pattern.totalPerceptible));
    j.comma();
    j.key("min_lag_ns");
    j.num(static_cast<std::int64_t>(pattern.minLag));
    j.comma();
    j.key("max_lag_ns");
    j.num(static_cast<std::int64_t>(pattern.maxLag));
    j.comma();
    j.key("total_lag_ns");
    j.num(static_cast<std::int64_t>(pattern.totalLag));
    j.comma();
    j.key("avg_lag_ns");
    j.num(static_cast<std::int64_t>(pattern.avgLag()));
    j.comma();
    j.key("by_session");
    j.raw("[");
    for (std::size_t i = 0; i < pattern.sessions.size(); ++i) {
        if (i > 0)
            j.comma();
        j.raw("{");
        j.key("session");
        j.num(static_cast<std::uint64_t>(pattern.sessions[i]));
        j.comma();
        j.key("episodes");
        j.num(static_cast<std::uint64_t>(pattern.episodeCounts[i]));
        j.raw("}");
    }
    j.raw("]}");
    return j.take();
}

std::vector<std::string>
figureIds()
{
    return {"fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "table3"};
}

std::string
figureJson(std::string_view id,
           const std::vector<const AppFigureData *> &apps)
{
    if (id == "fig3") {
        return perAppFigure(id, apps,
                            [](JsonOut &j, const AppFigureData &a) {
                                j.key("episode_fraction");
                                j.raw("[");
                                const auto &grid =
                                    a.cdfEpisodesAtPatternPercent;
                                for (std::size_t x = 0;
                                     x < grid.size(); ++x) {
                                    if (x > 0)
                                        j.comma();
                                    j.num(grid[x]);
                                }
                                j.raw("]");
                            });
    }
    if (id == "fig4") {
        return perAppFigure(
            id, apps, [](JsonOut &j, const AppFigureData &a) {
                j.key("always");
                j.num(a.occurrence.always);
                j.comma();
                j.key("sometimes");
                j.num(a.occurrence.sometimes);
                j.comma();
                j.key("once");
                j.num(a.occurrence.once);
                j.comma();
                j.key("never");
                j.num(a.occurrence.never);
                j.comma();
                j.key("patterns");
                j.num(static_cast<std::uint64_t>(
                    a.occurrence.patternCount));
            });
    }
    if (id == "fig5") {
        return perAppFigure(
            id, apps, [](JsonOut &j, const AppFigureData &a) {
                emitShares(j, "all", a.triggers.all);
                j.comma();
                emitShares(j, "perceptible",
                           a.triggers.perceptible);
            });
    }
    if (id == "fig6") {
        return perAppFigure(
            id, apps, [](JsonOut &j, const AppFigureData &a) {
                emitLocation(j, "all", a.location.all);
                j.comma();
                emitLocation(j, "perceptible",
                             a.location.perceptible);
            });
    }
    if (id == "fig7") {
        return perAppFigure(
            id, apps, [](JsonOut &j, const AppFigureData &a) {
                j.key("mean_runnable_all");
                j.num(a.concurrency.meanRunnableAll);
                j.comma();
                j.key("mean_runnable_perceptible");
                j.num(a.concurrency.meanRunnablePerceptible);
                j.comma();
                j.key("samples_all");
                j.num(static_cast<std::uint64_t>(
                    a.concurrency.samplesAll));
                j.comma();
                j.key("samples_perceptible");
                j.num(static_cast<std::uint64_t>(
                    a.concurrency.samplesPerceptible));
            });
    }
    if (id == "fig8") {
        return perAppFigure(
            id, apps, [](JsonOut &j, const AppFigureData &a) {
                emitStates(j, "all", a.states.all);
                j.comma();
                emitStates(j, "perceptible", a.states.perceptible);
            });
    }
    if (id == "table3") {
        return perAppFigure(
            id, apps, [](JsonOut &j, const AppFigureData &a) {
                j.key("e2e_s");
                j.num(a.overview.e2eSeconds);
                j.comma();
                j.key("in_eps_percent");
                j.num(a.overview.inEpsPercent);
                j.comma();
                j.key("short_count");
                j.num(static_cast<std::uint64_t>(
                    a.overview.shortCount));
                j.comma();
                j.key("traced_count");
                j.num(static_cast<std::uint64_t>(
                    a.overview.tracedCount));
                j.comma();
                j.key("perceptible_count");
                j.num(static_cast<std::uint64_t>(
                    a.overview.perceptibleCount));
                j.comma();
                j.key("long_per_min");
                j.num(a.overview.longPerMin);
                j.comma();
                j.key("distinct_patterns");
                j.num(static_cast<std::uint64_t>(
                    a.overview.distinctPatterns));
                j.comma();
                j.key("covered_episodes");
                j.num(static_cast<std::uint64_t>(
                    a.overview.coveredEpisodes));
                j.comma();
                j.key("one_ep_percent");
                j.num(a.overview.oneEpPercent);
                j.comma();
                j.key("mean_descs");
                j.num(a.overview.meanDescs);
                j.comma();
                j.key("mean_depth");
                j.num(a.overview.meanDepth);
            });
    }
    return std::string();
}

} // namespace lag::core
