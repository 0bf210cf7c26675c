#include "triggers.hh"

#include "flat_tree.hh"

namespace lag::core
{

const char *
triggerKindName(TriggerKind kind)
{
    switch (kind) {
      case TriggerKind::Input:       return "input";
      case TriggerKind::Output:      return "output";
      case TriggerKind::Async:       return "async";
      case TriggerKind::Unspecified: return "unspecified";
    }
    return "?";
}

TriggerKind
flatEpisodeTrigger(const FlatTree &tree, std::uint32_t root)
{
    // The preorder slice of the root's descendants is the search
    // order, and GC nodes can never match (their type byte is not a
    // marker), so the first marker is a plain byte scan.
    const std::uint8_t *types = tree.type.data();
    const std::uint32_t sliceEnd = tree.subtreeEnd[root];
    const std::uint32_t m = findFirstMarker(types, root + 1, sliceEnd);
    if (m == sliceEnd)
        return TriggerKind::Unspecified;
    switch (tree.typeOf(m)) {
      case IntervalType::Listener:
        return TriggerKind::Input;
      case IntervalType::Paint:
        return TriggerKind::Output;
      case IntervalType::Async: {
        // Repaint-manager special case (paper §IV.C footnote): an
        // async interval that contains a paint as its first nested
        // marker is really an output episode.
        const std::uint32_t innerEnd = tree.subtreeEnd[m];
        const std::uint32_t inner =
            findFirstMarker(types, m + 1, innerEnd);
        if (inner != innerEnd &&
            tree.typeOf(inner) == IntervalType::Paint)
            return TriggerKind::Output;
        return TriggerKind::Async;
      }
      default:
        break;
    }
    return TriggerKind::Unspecified;
}

TriggerCounts
countTriggers(const Session &session, std::size_t begin,
              std::size_t end, DurationNs perceptible_threshold)
{
    TriggerCounts counts;
    const auto &episodes = session.episodes();
    const FlatSession &flat = session.flat();
    const auto &trees = flat.trees();
    for (std::size_t i = begin; i < end; ++i) {
        const TriggerKind kind = flatEpisodeTrigger(
            trees[flat.episodeTree(i)], flat.episodeNode(i));
        const auto idx = static_cast<std::size_t>(kind);
        ++counts.all[idx];
        if (episodes[i].duration() >= perceptible_threshold)
            ++counts.perceptible[idx];
    }
    return counts;
}

TriggerAnalysisResult
finishTriggers(const TriggerCounts &counts)
{
    const auto to_shares = [](const std::array<std::size_t, 4> &bucket) {
        TriggerShares shares;
        shares.episodeCount =
            bucket[0] + bucket[1] + bucket[2] + bucket[3];
        if (shares.episodeCount == 0)
            return shares;
        const auto total = static_cast<double>(shares.episodeCount);
        shares.input = static_cast<double>(bucket[0]) / total;
        shares.output = static_cast<double>(bucket[1]) / total;
        shares.async = static_cast<double>(bucket[2]) / total;
        shares.unspecified = static_cast<double>(bucket[3]) / total;
        return shares;
    };

    TriggerAnalysisResult result;
    result.all = to_shares(counts.all);
    result.perceptible = to_shares(counts.perceptible);
    return result;
}

TriggerAnalysisResult
analyzeTriggers(const Session &session, DurationNs perceptible_threshold)
{
    return finishTriggers(countTriggers(session, 0,
                                        session.episodes().size(),
                                        perceptible_threshold));
}

} // namespace lag::core
