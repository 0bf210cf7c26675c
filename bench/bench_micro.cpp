/**
 * @file
 * Analysis hot-path microbenchmarks on the flat interval layout.
 *
 * Each run prints one JSON line per kernel, measured on the same
 * cached 60 s GanttProject session:
 *
 *  - `sig_mpatterns_per_s`   one-pass signature hashing
 *                            (flatSignatureHash), millions of
 *                            signatures per second
 *  - `walk_mnodes_per_s`     structural walks (descendant count,
 *                            depth, GC time), millions of logical
 *                            nodes walked per second
 *  - `classify_mepisodes_per_s`  trigger classification
 *                            (flatEpisodeTrigger), millions of
 *                            episodes per second
 *
 * Before timing anything, every episode's signature string is
 * checked against its one-pass hash; a mismatch prints to stderr
 * and the process exits nonzero, so `ctest -L perf` doubles as a
 * smoke of the hot path. `--smoke` runs few iterations (CI); the
 * full run uses enough repetitions for stable rates. Record
 * full-run lines in EXPERIMENTS.md when the hot path changes.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "core/flat_tree.hh"
#include "core/triggers.hh"
#include "trace/io.hh"
#include "util/hash.hh"

namespace
{

using namespace lag;

/** One cached 60 s GanttProject session. */
struct Fixture
{
    core::Session session;
    const core::FlatSession &flat;
    std::size_t episodes;

    Fixture()
        : session([] {
              app::AppParams params =
                  app::catalogApp("GanttProject");
              params.sessionLength = secToNs(60);
              return core::Session::fromTrace(
                  app::runSession(params, 0).trace);
          }()),
          flat(session.flat()), episodes(session.episodes().size())
    {
    }

    static const Fixture &
    get()
    {
        static const Fixture fixture;
        return fixture;
    }
};

/** Wall time of @p fn in milliseconds. */
template <typename Fn>
double
timedMs(const Fn &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

/**
 * Every episode's one-pass signature hash must equal the FNV-1a of
 * its materialized signature string. Returns false (after printing
 * the first mismatch) when they do not.
 */
bool
verifySignatures(const Fixture &f)
{
    const auto &strings = f.session.strings();
    const auto &trees = f.flat.trees();
    core::FlatSigStack scratch;
    std::string sig;
    for (std::size_t i = 0; i < f.episodes; ++i) {
        const core::FlatTree &tree = trees[f.flat.episodeTree(i)];
        const std::uint32_t node = f.flat.episodeNode(i);
        sig.clear();
        core::flatSignatureString(tree, node, strings, sig, scratch);
        if (core::flatSignatureHash(tree, node, strings, scratch) !=
            fnv1a(sig)) {
            std::fprintf(stderr,
                         "episode %zu: signature hash mismatch "
                         "(\"%s\")\n",
                         i, sig.c_str());
            return false;
        }
    }
    return true;
}

void
reportSignatureHashing(const Fixture &f, int reps)
{
    const auto &strings = f.session.strings();
    const auto &trees = f.flat.trees();

    std::uint64_t flatSum = 0;
    core::FlatSigStack scratch;
    const double flat_ms = timedMs([&] {
        for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < f.episodes; ++i) {
                flatSum += core::flatSignatureHash(
                    trees[f.flat.episodeTree(i)],
                    f.flat.episodeNode(i), strings, scratch);
            }
        }
    }) / reps;
    benchmark::DoNotOptimize(flatSum);

    const double m = static_cast<double>(f.episodes) / 1e6;
    std::printf(
        "{\"bench\":\"sig_mpatterns_per_s\",\"episodes\":%llu,"
        "\"reps\":%d,\"flat\":%.3f}\n",
        static_cast<unsigned long long>(f.episodes), reps,
        flat_ms > 0.0 ? m / (flat_ms / 1e3) : 0.0);
    std::fflush(stdout);
}

void
reportStructuralWalks(const Fixture &f, int reps)
{
    const auto &trees = f.flat.trees();

    // Logical work per pass: every episode node visited once per
    // walk kind (count, depth, GC time). Two of the three are O(1)
    // on the flat layout; the rate measures work accomplished, not
    // instructions retired.
    std::uint64_t episodeNodes = 0;
    for (std::size_t i = 0; i < f.episodes; ++i) {
        episodeNodes += core::flatDescendantCount(
                            trees[f.flat.episodeTree(i)],
                            f.flat.episodeNode(i)) +
                        1;
    }

    std::uint64_t flatSum = 0;
    const double flat_ms = timedMs([&] {
        for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < f.episodes; ++i) {
                const core::FlatTree &tree =
                    trees[f.flat.episodeTree(i)];
                const std::uint32_t node = f.flat.episodeNode(i);
                flatSum += core::flatDescendantCount(tree, node) +
                           core::flatDepth(tree, node) +
                           static_cast<std::uint64_t>(
                               core::flatTypeTime(
                                   tree, node,
                                   core::IntervalType::Gc));
            }
        }
    }) / reps;
    benchmark::DoNotOptimize(flatSum);

    const double m = 3.0 * static_cast<double>(episodeNodes) / 1e6;
    std::printf(
        "{\"bench\":\"walk_mnodes_per_s\",\"logical_mnodes\":%.3f,"
        "\"reps\":%d,\"flat\":%.1f}\n",
        m, reps, flat_ms > 0.0 ? m / (flat_ms / 1e3) : 0.0);
    std::fflush(stdout);
}

void
reportClassification(const Fixture &f, int reps)
{
    const auto &trees = f.flat.trees();

    std::uint64_t flatSum = 0;
    const double flat_ms = timedMs([&] {
        for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < f.episodes; ++i) {
                flatSum += static_cast<std::uint64_t>(
                    core::flatEpisodeTrigger(
                        trees[f.flat.episodeTree(i)],
                        f.flat.episodeNode(i)));
            }
        }
    }) / reps;
    benchmark::DoNotOptimize(flatSum);

    const double m = static_cast<double>(f.episodes) / 1e6;
    std::printf(
        "{\"bench\":\"classify_mepisodes_per_s\",\"episodes\":%llu,"
        "\"reps\":%d,\"flat\":%.3f}\n",
        static_cast<unsigned long long>(f.episodes), reps,
        flat_ms > 0.0 ? m / (flat_ms / 1e3) : 0.0);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int in = 1; in < argc; ++in) {
        if (std::string_view(argv[in]) == "--smoke")
            smoke = true;
    }

    const Fixture &f = Fixture::get();
    if (!verifySignatures(f))
        return 1;

    const int reps = smoke ? 3 : 100;
    reportSignatureHashing(f, reps);
    reportStructuralWalks(f, reps);
    reportClassification(f, reps);
    return 0;
}
