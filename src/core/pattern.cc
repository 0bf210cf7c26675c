#include "pattern.hh"

#include <algorithm>

#include "util/logging.hh"

namespace lag::core
{

namespace
{

OccurrenceClass
classify(std::size_t perceptible, std::size_t total)
{
    if (perceptible == 0)
        return OccurrenceClass::Never;
    if (perceptible == total)
        return OccurrenceClass::Always;
    if (perceptible == 1)
        return OccurrenceClass::Once;
    return OccurrenceClass::Sometimes;
}

} // namespace

const char *
occurrenceClassName(OccurrenceClass cls)
{
    switch (cls) {
      case OccurrenceClass::Always:    return "always";
      case OccurrenceClass::Sometimes: return "sometimes";
      case OccurrenceClass::Once:      return "once";
      case OccurrenceClass::Never:     return "never";
    }
    return "?";
}

std::string
patternSignature(const Session &session, std::size_t episode)
{
    const FlatSession &flat = session.flat();
    return flatSignatureString(flat.trees()[flat.episodeTree(episode)],
                               flat.episodeNode(episode),
                               session.strings());
}

std::size_t
PatternSet::singletonCount() const
{
    std::size_t count = 0;
    for (const auto &pattern : patterns) {
        if (pattern.episodes.size() == 1)
            ++count;
    }
    return count;
}

std::size_t
PatternSet::perceptiblePatternCount() const
{
    std::size_t count = 0;
    for (const auto &pattern : patterns) {
        if (pattern.perceptibleCount > 0)
            ++count;
    }
    return count;
}

PatternMiner::PatternMiner(DurationNs perceptible_threshold)
    : threshold_(perceptible_threshold)
{
    lag_assert(threshold_ > 0, "perceptible threshold must be positive");
}

PatternSet
PatternMiner::mine(const Session &session) const
{
    PatternShard shard;
    mineInto(shard, session, session.episodes().size());
    return finish(std::move(shard));
}

void
PatternMiner::mineInto(PatternShard &shard, const Session &session,
                       std::size_t end) const
{
    const auto &episodes = session.episodes();
    const std::size_t begin = shard.endEpisode;
    lag_assert(begin <= end && end <= episodes.size(),
               "episode range out of bounds");
    if (begin == end)
        return;
    shard.endEpisode = end;

    const FlatSession &flat = session.flat();
    const auto &trees = flat.trees();
    FlatSigStack sigStack;
    std::string scratchSig;

    for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t treeIdx = flat.episodeTree(i);
        const std::uint32_t node = flat.episodeNode(i);
        const FlatTree &tree = trees[treeIdx];
        if (flatDescendantCount(tree, node) == 0) {
            // "We exclude episodes that have no internal structure"
            // (paper §IV.A).
            ++shard.structurelessEpisodes;
            continue;
        }

        // Fast path: an earlier episode with the same ids.
        const std::uint64_t structure = flatStructureHash(tree, node);
        std::size_t match = shard.patterns.size();
        const auto [lo, hi] = shard.byStructure.equal_range(structure);
        for (auto it = lo; it != hi; ++it) {
            const auto [pattern, episode] = it->second;
            if (flatStructureEquals(trees[flat.episodeTree(episode)],
                                    flat.episodeNode(episode), tree,
                                    node)) {
                match = pattern;
                break;
            }
        }
        if (match == shard.patterns.size()) {
            // A new id structure.  Its signature text decides: ids
            // that differ can still join to the same "[A.B]" bytes
            // (the text is the canonical form), and distinct texts
            // can collide on the 64-bit key.
            const std::uint64_t key = flatSignatureHash(
                tree, node, session.strings(), sigStack);
            scratchSig.clear();
            flatSignatureString(tree, node, session.strings(),
                                scratchSig, sigStack);
            const auto [klo, khi] = shard.byKey.equal_range(key);
            for (auto it = klo; it != khi; ++it) {
                if (shard.patterns[it->second].signature == scratchSig) {
                    match = it->second;
                    break;
                }
            }
            if (match == shard.patterns.size()) {
                Pattern pattern;
                pattern.key = key;
                pattern.signature = scratchSig;
                pattern.descendants = flatNonGcDescendants(tree, node);
                pattern.depth = flatNonGcDepth(tree, node);
                // Per-pattern membership is unknowable up front.
                shard.patterns.push_back(std::move(pattern)); // lag-lint: allow(reserve-loop)
                shard.byKey.emplace(key, match);
            }
            // This episode's own ids, so the next episode spelled
            // the same way takes the fast path.
            shard.byStructure.emplace(structure,
                                      std::make_pair(match, i));
        }
        Pattern &pattern = shard.patterns[match];

        const DurationNs lag = episodes[i].duration();
        const bool perceptible = lag >= threshold_;
        if (pattern.episodes.empty()) {
            pattern.minLag = lag;
            pattern.maxLag = lag;
            pattern.firstPerceptible = perceptible;
        } else {
            pattern.minLag = std::min(pattern.minLag, lag);
            pattern.maxLag = std::max(pattern.maxLag, lag);
        }
        pattern.totalLag += lag;
        if (perceptible)
            ++pattern.perceptibleCount;
        pattern.episodes.push_back(i); // lag-lint: allow(reserve-loop)
        ++shard.coveredEpisodes;
    }
}

PatternSet
PatternMiner::finish(PatternShard shard) const
{
    PatternSet result;
    result.perceptibleThreshold = threshold_;
    result.patterns = std::move(shard.patterns);
    result.coveredEpisodes = shard.coveredEpisodes;
    result.structurelessEpisodes = shard.structurelessEpisodes;

    for (auto &pattern : result.patterns) {
        pattern.occurrence =
            classify(pattern.perceptibleCount, pattern.episodes.size());
    }

    std::stable_sort(result.patterns.begin(), result.patterns.end(),
                     [](const Pattern &a, const Pattern &b) {
                         return a.episodes.size() > b.episodes.size();
                     });
    return result;
}

} // namespace lag::core
