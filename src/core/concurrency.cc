#include "concurrency.hh"

namespace lag::core
{

ConcurrencyCounts
countConcurrency(const Session &session, std::size_t begin,
                 std::size_t end, DurationNs perceptible_threshold)
{
    ConcurrencyCounts counts;
    const trace::SampleColumns &samples = session.samples();
    const auto &episodes = session.episodes();

    for (std::size_t i = begin; i < end; ++i) {
        const Episode &episode = episodes[i];
        const bool perceptible =
            episode.duration() >= perceptible_threshold;
        for (std::size_t s = episode.firstSample;
             s < episode.lastSample; ++s) {
            std::uint64_t runnable = 0;
            for (std::size_t e = samples.entryBegin(s);
                 e < samples.entryEnd(s); ++e) {
                if (samples.state(e) == trace::TraceThreadState::Runnable)
                    ++runnable;
            }
            counts.runnableAll += runnable;
            ++counts.samplesAll;
            if (perceptible) {
                counts.runnablePerceptible += runnable;
                ++counts.samplesPerceptible;
            }
        }
    }
    return counts;
}

ConcurrencyResult
finishConcurrency(const ConcurrencyCounts &counts)
{
    ConcurrencyResult result;
    result.samplesAll = counts.samplesAll;
    result.samplesPerceptible = counts.samplesPerceptible;
    if (counts.samplesAll > 0) {
        result.meanRunnableAll =
            static_cast<double>(counts.runnableAll) /
            static_cast<double>(counts.samplesAll);
    }
    if (counts.samplesPerceptible > 0) {
        result.meanRunnablePerceptible =
            static_cast<double>(counts.runnablePerceptible) /
            static_cast<double>(counts.samplesPerceptible);
    }
    return result;
}

ConcurrencyResult
analyzeConcurrency(const Session &session,
                   DurationNs perceptible_threshold)
{
    return finishConcurrency(
        countConcurrency(session, 0, session.episodes().size(),
                         perceptible_threshold));
}

GuiStateCounts
countGuiStates(const Session &session, std::size_t begin,
               std::size_t end, DurationNs perceptible_threshold)
{
    GuiStateCounts counts;
    const ThreadId gui = session.guiThread();
    const trace::SampleColumns &samples = session.samples();
    const auto &episodes = session.episodes();

    for (std::size_t i = begin; i < end; ++i) {
        const Episode &episode = episodes[i];
        const bool perceptible =
            episode.duration() >= perceptible_threshold;
        for (std::size_t s = episode.firstSample;
             s < episode.lastSample; ++s) {
            const std::size_t e = samples.findEntry(s, gui);
            if (e == trace::SampleColumns::npos)
                continue;
            const auto idx = static_cast<std::size_t>(samples.state(e));
            ++counts.all[idx];
            if (perceptible)
                ++counts.perceptible[idx];
        }
    }
    return counts;
}

ThreadStateResult
finishGuiStates(const GuiStateCounts &counts)
{
    const auto to_shares = [](const std::array<std::size_t, 4> &bucket) {
        GuiStateShares shares;
        shares.sampleCount =
            bucket[0] + bucket[1] + bucket[2] + bucket[3];
        if (shares.sampleCount == 0)
            return shares;
        const auto total = static_cast<double>(shares.sampleCount);
        using TS = trace::TraceThreadState;
        shares.runnable =
            static_cast<double>(
                bucket[static_cast<std::size_t>(TS::Runnable)]) /
            total;
        shares.blocked =
            static_cast<double>(
                bucket[static_cast<std::size_t>(TS::Blocked)]) /
            total;
        shares.waiting =
            static_cast<double>(
                bucket[static_cast<std::size_t>(TS::Waiting)]) /
            total;
        shares.sleeping =
            static_cast<double>(
                bucket[static_cast<std::size_t>(TS::Sleeping)]) /
            total;
        return shares;
    };

    ThreadStateResult result;
    result.all = to_shares(counts.all);
    result.perceptible = to_shares(counts.perceptible);
    return result;
}

ThreadStateResult
analyzeGuiStates(const Session &session, DurationNs perceptible_threshold)
{
    return finishGuiStates(countGuiStates(session, 0,
                                          session.episodes().size(),
                                          perceptible_threshold));
}

} // namespace lag::core
