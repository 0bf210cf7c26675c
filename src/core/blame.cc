#include "blame.hh"

#include <algorithm>
#include <unordered_map>

#include "classify.hh"

namespace lag::core
{

std::vector<BlameEntry>
blameReport(const Session &session, const BlameOptions &options)
{
    struct Tally
    {
        std::size_t samples = 0;
        std::size_t notRunnable = 0;
    };
    std::unordered_map<std::string, Tally> tallies;
    std::size_t total = 0;
    const ThreadId gui = session.guiThread();
    const trace::SampleColumns &samples = session.samples();

    for (const auto &episode : session.episodes()) {
        if (episode.duration() < options.perceptibleThreshold)
            continue;
        for (std::size_t s = episode.firstSample;
             s < episode.lastSample; ++s) {
            for (std::size_t e = samples.entryBegin(s);
                 e < samples.entryEnd(s); ++e) {
                const auto stack = samples.stack(e);
                if (samples.thread(e) != gui || stack.empty())
                    continue;
                const bool not_runnable =
                    samples.state(e) != trace::TraceThreadState::Runnable;
                const auto attribute =
                    [&](const trace::SampleFrame &frame) {
                        std::string key =
                            session.symbol(frame.classSym);
                        if (options.byMethod) {
                            key += '.';
                            key += session.symbol(frame.methodSym);
                        }
                        Tally &tally = tallies[std::move(key)];
                        ++tally.samples;
                        if (not_runnable)
                            ++tally.notRunnable;
                    };
                if (options.innermostOnly) {
                    attribute(stack.back());
                } else {
                    for (const auto &frame : stack)
                        attribute(frame);
                }
                ++total;
                break;
            }
        }
    }

    std::vector<BlameEntry> report;
    report.reserve(tallies.size());
    // Safe: the report is fully re-sorted below with a total order
    // (samples desc, then symbol), so hash order cannot leak out.
    for (auto &[symbol, tally] : tallies) { // lag-lint: allow(unordered-iter)
        BlameEntry entry;
        entry.symbol = symbol;
        entry.samples = tally.samples;
        entry.notRunnableSamples = tally.notRunnable;
        entry.share = total == 0
                          ? 0.0
                          : static_cast<double>(tally.samples) /
                                static_cast<double>(total);
        const auto dot = options.byMethod
                             ? entry.symbol.rfind('.')
                             : std::string::npos;
        entry.isLibrary = isRuntimeLibraryClass(
            dot == std::string::npos
                ? std::string_view(entry.symbol)
                : std::string_view(entry.symbol).substr(0, dot));
        report.push_back(std::move(entry));
    }
    // Total order: break sample-count ties by symbol so the report
    // is byte-identical however the tally map hashed.
    std::stable_sort(report.begin(), report.end(),
                     [](const BlameEntry &a, const BlameEntry &b) {
                         if (a.samples != b.samples)
                             return a.samples > b.samples;
                         return a.symbol < b.symbol;
                     });
    if (options.limit > 0 && report.size() > options.limit)
        report.resize(options.limit);
    return report;
}

std::vector<std::size_t>
episodesSampledIn(const Session &session,
                  std::string_view class_substring)
{
    std::vector<std::size_t> hits;
    const ThreadId gui = session.guiThread();
    const trace::SampleColumns &samples = session.samples();
    const auto &episodes = session.episodes();
    for (std::size_t e = 0; e < episodes.size(); ++e) {
        bool hit = false;
        for (std::size_t s = episodes[e].firstSample;
             s < episodes[e].lastSample && !hit; ++s) {
            const std::size_t entry = samples.findEntry(s, gui);
            if (entry == trace::SampleColumns::npos)
                continue;
            for (const auto &frame : samples.stack(entry)) {
                if (session.symbol(frame.classSym)
                        .find(class_substring) != std::string::npos) {
                    hit = true;
                    break;
                }
            }
        }
        if (hit)
            hits.push_back(e); // lag-lint: allow(reserve-loop)
    }
    return hits;
}

std::vector<std::size_t>
patternsMentioning(const PatternSet &patterns,
                   std::string_view substring)
{
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < patterns.patterns.size(); ++i) {
        if (patterns.patterns[i].signature.find(substring) !=
            std::string::npos) {
            hits.push_back(i); // lag-lint: allow(reserve-loop)
        }
    }
    return hits;
}

} // namespace lag::core
