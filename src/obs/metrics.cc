#include "metrics.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace lag::obs
{

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    lag_assert(!bounds_.empty(), "histogram needs at least one bucket");
    lag_assert(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must be ascending");
}

void
Histogram::record(std::int64_t value)
{
    // First bucket with value <= bound; past the last bound the
    // search lands on the implicit overflow slot.
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t
MetricsSnapshot::counterValue(std::string_view name) const
{
    for (const CounterValue &c : counters) {
        if (c.name == name)
            return c.value;
    }
    return 0;
}

std::int64_t
MetricsSnapshot::gaugeMax(std::string_view name) const
{
    for (const GaugeValue &g : gauges) {
        if (g.name == name)
            return g.max;
    }
    return 0;
}

namespace
{

Mutex &
metricsMutex()
{
    static Mutex mutex{LockRank::Obs, "obs-metrics-registry"};
    return mutex;
}

/** Instrument tables. std::map nodes are address-stable, so the
 * references counter()/gauge()/histogram() hand out survive later
 * insertions; leaked so atexit dumps never race destruction. */
struct Tables
{
    std::map<std::string, Counter, std::less<>> counters;
    std::map<std::string, Gauge, std::less<>> gauges;
    std::map<std::string, Histogram, std::less<>> histograms;
};

Tables &
tables() LAG_REQUIRES(metricsMutex())
{
    static auto *t = new Tables();
    return *t;
}

/** `base{key="v"}` → {base, `key="v"`}; plain name → {name, ""}. */
struct ParsedName
{
    std::string_view base;
    std::string_view labels; ///< without the braces
};

ParsedName
parseRendered(const std::string &name)
{
    const std::size_t brace = name.find('{');
    if (brace == std::string::npos || name.back() != '}')
        return {name, {}};
    return {std::string_view(name).substr(0, brace),
            std::string_view(name).substr(brace + 1,
                                          name.size() - brace - 2)};
}

/** Prometheus family name: `lag_` + base with non-alnum → '_'. */
std::string
promName(std::string_view base)
{
    std::string out = "lag_";
    for (const char c : base) {
        const bool alnum = (c >= 'a' && c <= 'z') ||
                           (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9');
        out += alnum ? c : '_';
    }
    return out;
}

void
appendPromHeader(std::string &out, const std::string &family,
                 std::string_view base, const char *type)
{
    out += "# HELP ";
    out += family;
    out += ' ';
    out += base; // dotted registry name doubles as the help text
    out += "\n# TYPE ";
    out += family;
    out += ' ';
    out += type;
    out += '\n';
}

void
appendPromSample(std::string &out, const std::string &family,
                 std::string_view labels, std::string_view extra,
                 const std::string &value)
{
    out += family;
    if (!labels.empty() || !extra.empty()) {
        out += '{';
        out += labels;
        if (!labels.empty() && !extra.empty())
            out += ',';
        out += extra;
        out += '}';
    }
    out += ' ';
    out += value;
    out += '\n';
}

} // namespace

Counter &
MetricsRegistry::counter(std::string_view name)
{
    MutexLock lock(metricsMutex());
    auto it = tables().counters.find(name);
    if (it == tables().counters.end()) {
        it = tables()
                 .counters
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(name),
                          std::forward_as_tuple())
                 .first;
    }
    return it->second;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    MutexLock lock(metricsMutex());
    auto it = tables().gauges.find(name);
    if (it == tables().gauges.end()) {
        it = tables()
                 .gauges
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(name),
                          std::forward_as_tuple())
                 .first;
    }
    return it->second;
}

Histogram &
MetricsRegistry::histogram(std::string_view name,
                           std::vector<std::int64_t> bounds)
{
    MutexLock lock(metricsMutex());
    auto it = tables().histograms.find(name);
    if (it == tables().histograms.end()) {
        it = tables()
                 .histograms
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(name),
                          std::forward_as_tuple(std::move(bounds)))
                 .first;
    } else {
        lag_assert(it->second.bounds() == bounds,
                   "histogram '", it->first,
                   "' re-registered with different bounds");
    }
    return it->second;
}

Counter &
MetricsRegistry::counter(std::string_view base,
                         std::string_view key,
                         std::string_view value)
{
    return counter(labeledMetricName(base, key, value));
}

Gauge &
MetricsRegistry::gauge(std::string_view base, std::string_view key,
                       std::string_view value)
{
    return gauge(labeledMetricName(base, key, value));
}

Histogram &
MetricsRegistry::histogram(std::string_view base,
                           std::vector<std::int64_t> bounds,
                           std::string_view key,
                           std::string_view value)
{
    return histogram(labeledMetricName(base, key, value),
                     std::move(bounds));
}

std::string
promLabelEscape(std::string_view value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
labeledMetricName(std::string_view base, std::string_view key,
                  std::string_view value)
{
    std::string out;
    out.reserve(base.size() + key.size() + value.size() + 5);
    out += base;
    out += '{';
    out += key;
    out += "=\"";
    out += promLabelEscape(value);
    out += "\"}";
    return out;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    MutexLock lock(metricsMutex());
    // std::map iteration is already name-sorted.
    for (const auto &[name, c] : tables().counters)
        snap.counters.push_back({name, c.value()});
    for (const auto &[name, g] : tables().gauges)
        snap.gauges.push_back({name, g.value(), g.max()});
    for (const auto &[name, h] : tables().histograms) {
        MetricsSnapshot::HistogramValue hv;
        hv.name = name;
        hv.bounds = h.bounds();
        hv.counts.reserve(hv.bounds.size() + 1);
        for (std::size_t i = 0; i <= hv.bounds.size(); ++i)
            hv.counts.push_back(h.bucketCount(i));
        hv.count = h.count();
        hv.sum = h.sum();
        snap.histograms.push_back(std::move(hv));
    }
    return snap;
}

std::string
MetricsRegistry::dumpText() const
{
    const MetricsSnapshot snap = snapshot();
    std::ostringstream os;
    for (const auto &c : snap.counters)
        os << c.name << " counter " << c.value << '\n';
    for (const auto &g : snap.gauges)
        os << g.name << " gauge " << g.value << " max " << g.max
           << '\n';
    for (const auto &h : snap.histograms) {
        os << h.name << " histogram count " << h.count << " sum "
           << h.sum;
        for (std::size_t i = 0; i < h.bounds.size(); ++i)
            os << " le" << h.bounds[i] << '=' << h.counts[i];
        os << " overflow=" << h.counts.back() << '\n';
    }
    return os.str();
}

std::string
MetricsRegistry::dumpJson() const
{
    const MetricsSnapshot snap = snapshot();
    std::string out;
    out += "{\n  \"counters\": {";
    bool first = true;
    for (const auto &c : snap.counters) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, c.name);
        out += ": ";
        out += std::to_string(c.value);
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &g : snap.gauges) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, g.name);
        out += ": {\"value\": ";
        out += std::to_string(g.value);
        out += ", \"max\": ";
        out += std::to_string(g.max);
        out += '}';
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &h : snap.histograms) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, h.name);
        out += ": {\"bounds\": [";
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += std::to_string(h.bounds[i]);
        }
        out += "], \"counts\": [";
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            if (i > 0)
                out += ", ";
            out += std::to_string(h.counts[i]);
        }
        out += "], \"count\": ";
        out += std::to_string(h.count);
        out += ", \"sum\": ";
        out += std::to_string(h.sum);
        out += '}';
    }
    out += "\n  }\n}\n";
    return out;
}

std::string
MetricsRegistry::dumpProm() const
{
    const MetricsSnapshot snap = snapshot();
    std::string out;

    // Group instruments by base so each prom family gets exactly
    // one HELP/TYPE header even when labeled variants exist. A
    // sorted walk is not enough: '{' sorts above alphanumerics, so
    // `a.b{…}` rows can interleave with an unrelated `a.bz` name.
    std::map<std::string,
             std::vector<const MetricsSnapshot::CounterValue *>>
        counter_groups;
    for (const auto &c : snap.counters)
        counter_groups[std::string(parseRendered(c.name).base)]
            .push_back(&c);
    for (const auto &[base, group] : counter_groups) {
        const std::string family = promName(base) + "_total";
        appendPromHeader(out, family, base, "counter");
        for (const auto *c : group) {
            appendPromSample(out, family,
                             parseRendered(c->name).labels, {},
                             std::to_string(c->value));
        }
    }

    std::map<std::string,
             std::vector<const MetricsSnapshot::GaugeValue *>>
        gauge_groups;
    for (const auto &g : snap.gauges)
        gauge_groups[std::string(parseRendered(g.name).base)]
            .push_back(&g);
    for (const auto &[base, group] : gauge_groups) {
        const std::string family = promName(base);
        appendPromHeader(out, family, base, "gauge");
        for (const auto *g : group) {
            appendPromSample(out, family,
                             parseRendered(g->name).labels, {},
                             std::to_string(g->value));
        }
        const std::string max_family = family + "_max";
        appendPromHeader(out, max_family, base, "gauge");
        for (const auto *g : group) {
            appendPromSample(out, max_family,
                             parseRendered(g->name).labels, {},
                             std::to_string(g->max));
        }
    }

    std::map<std::string,
             std::vector<const MetricsSnapshot::HistogramValue *>>
        histogram_groups;
    for (const auto &h : snap.histograms)
        histogram_groups[std::string(parseRendered(h.name).base)]
            .push_back(&h);
    for (const auto &[base, group] : histogram_groups) {
        const std::string family = promName(base);
        appendPromHeader(out, family, base, "histogram");
        for (const auto *h : group) {
            const std::string_view labels =
                parseRendered(h->name).labels;
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < h->bounds.size(); ++i) {
                cumulative += h->counts[i];
                appendPromSample(
                    out, family + "_bucket", labels,
                    "le=\"" + std::to_string(h->bounds[i]) + "\"",
                    std::to_string(cumulative));
            }
            // +Inf folds in the overflow bucket and must equal
            // _count — scrapers reject a histogram where it
            // doesn't.
            appendPromSample(out, family + "_bucket", labels,
                             "le=\"+Inf\"",
                             std::to_string(h->count));
            appendPromSample(out, family + "_sum", labels, {},
                             std::to_string(h->sum));
            appendPromSample(out, family + "_count", labels, {},
                             std::to_string(h->count));
        }
    }
    return out;
}

std::string
MetricsRegistry::summaryLine() const
{
    const MetricsSnapshot snap = snapshot();
    std::ostringstream os;
    os << "metrics:";
    bool any = false;
    for (const auto &c : snap.counters) {
        if (c.value == 0)
            continue;
        os << ' ' << c.name << '=' << c.value;
        any = true;
    }
    for (const auto &g : snap.gauges) {
        if (g.max == 0)
            continue;
        os << ' ' << g.name << ".max=" << g.max;
        any = true;
    }
    if (!any)
        os << " (all zero)";
    return os.str();
}

MetricsRegistry &
metrics()
{
    static auto *registry = new MetricsRegistry();
    return *registry;
}

} // namespace lag::obs
