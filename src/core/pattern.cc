#include "pattern.hh"

#include <algorithm>
#include <unordered_map>

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
    std::vector<PatternShard> shards;
    shards.push_back(
        mineRange(session, 0, session.episodes().size()));
    return merge(std::move(shards));
}

PatternShard
PatternMiner::mineRange(const Session &session, std::size_t begin,
                        std::size_t end) const
{
    PatternShard shard;
    shard.beginEpisode = begin;
    shard.endEpisode = begin;
    mineInto(shard, session, end);
    return shard;
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

    // Signature hash -> indices into shard.patterns.  A bucket holds
    // more than one entry only when distinct signatures collide on
    // the 64-bit FNV key, which the string fallback below resolves.
    std::unordered_multimap<std::uint64_t, std::size_t> index;

    // Flat location of each pattern's first episode, parallel to
    // shard.patterns: repeat episodes compare against it at the
    // symbol-id level instead of re-materializing the signature.
    struct FlatRef
    {
        std::uint32_t tree = 0;
        std::uint32_t node = 0;
    };
    std::vector<FlatRef> firstRef;

    const FlatSession &flat = session.flat();
    const auto &trees = flat.trees();
    index.reserve(shard.patterns.size());
    firstRef.reserve(shard.patterns.size());
    for (std::size_t p = 0; p < shard.patterns.size(); ++p) {
        const std::size_t first = shard.patterns[p].episodes.front();
        index.emplace(shard.patterns[p].key, p);
        firstRef.push_back({flat.episodeTree(first), flat.episodeNode(first)});
    }

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
        const std::uint64_t hash = flatSignatureHash(
            tree, node, session.strings(), sigStack);

        std::size_t match = shard.patterns.size();
        const auto [lo, hi] = index.equal_range(hash);
        for (auto it = lo; it != hi; ++it) {
            const FlatRef &ref = firstRef[it->second];
            if (flatStructureEquals(trees[ref.tree], ref.node, tree,
                                    node)) {
                match = it->second;
                break;
            }
            // Id-level mismatch under an equal hash: distinct symbol
            // ids can still join to the same signature bytes (the
            // "[A.B]" text is the canonical form, not the id tuple),
            // and distinct signatures can collide on 64 bits.  The
            // signature string is the arbiter either way.
            scratchSig.clear();
            flatSignatureString(tree, node, session.strings(),
                                scratchSig, sigStack);
            if (scratchSig == shard.patterns[it->second].signature) {
                match = it->second;
                break;
            }
        }
        if (match == shard.patterns.size()) {
            Pattern pattern;
            pattern.key = hash;
            scratchSig.clear();
            flatSignatureString(tree, node, session.strings(),
                                scratchSig, sigStack);
            pattern.signature = scratchSig;
            pattern.descendants = flatNonGcDescendants(tree, node);
            pattern.depth = flatNonGcDepth(tree, node);
            index.emplace(hash, match);
            // Per-pattern membership is unknowable up front.
            firstRef.push_back({treeIdx, node}); // lag-lint: allow(reserve-loop)
            shard.patterns.push_back(std::move(pattern)); // lag-lint: allow(reserve-loop)
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
PatternMiner::merge(std::vector<PatternShard> shards) const
{
    PatternSet result;
    result.perceptibleThreshold = threshold_;

    std::size_t patternUpperBound = 0;
    for (std::size_t k = 0; k < shards.size(); ++k) {
        if (k > 0) {
            lag_assert(shards[k].beginEpisode ==
                           shards[k - 1].endEpisode,
                       "pattern shards must cover adjacent ranges");
        }
        patternUpperBound += shards[k].patterns.size();
    }

    if (shards.size() == 1) {
        // Within one shard every signature is distinct already.
        result.patterns = std::move(shards.front().patterns);
        result.coveredEpisodes = shards.front().coveredEpisodes;
        result.structurelessEpisodes =
            shards.front().structurelessEpisodes;
        shards.clear();
    }
    result.patterns.reserve(patternUpperBound);
    std::unordered_map<std::string, std::size_t> index;
    for (auto &shard : shards) {
        for (auto &incoming : shard.patterns) {
            const auto [it, inserted] = index.emplace(
                incoming.signature, result.patterns.size());
            if (inserted) {
                result.patterns.push_back(std::move(incoming));
                continue;
            }
            // Later shards cover later episodes, so the existing
            // entry keeps first-seen fields (signature, key,
            // descendants, depth, firstPerceptible) and the member
            // list simply concatenates in ascending order.
            Pattern &pattern = result.patterns[it->second];
            pattern.minLag = std::min(pattern.minLag, incoming.minLag);
            pattern.maxLag = std::max(pattern.maxLag, incoming.maxLag);
            pattern.totalLag += incoming.totalLag;
            pattern.perceptibleCount += incoming.perceptibleCount;
            pattern.episodes.insert(pattern.episodes.end(),
                                    incoming.episodes.begin(),
                                    incoming.episodes.end());
        }
        result.coveredEpisodes += shard.coveredEpisodes;
        result.structurelessEpisodes += shard.structurelessEpisodes;
    }

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
