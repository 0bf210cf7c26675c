/**
 * @file
 * Shared plumbing for the bench harnesses.
 *
 * Every figure/table harness works from the same cached study
 * (simulated on first use); per-app results are averaged over the
 * four sessions exactly as the paper's Table III does. Set
 * LAGALYZER_QUICK=1 to run against the scaled-down study instead
 * (useful on slow machines; the shapes survive, absolute counts
 * shrink).
 *
 * Simulation, decoding and analysis fan out across the engine's
 * thread pool; per-session analysis results are cached on
 * disk (engine::ResultCache) and cross-session aggregates are
 * answered incrementally from those `.ares` entries
 * (engine::aggregateFromCache) — a warm re-run never opens a trace
 * file; delete `<cache-dir>/analysis` to recompute every session.
 * Worker count: `--jobs N` on any harness command line, or
 * LAGALYZER_JOBS=N in the environment (default: one per hardware
 * thread). Results are byte-identical at any worker count and on
 * a cold or warm cache.
 *
 * The analysis cache is garbage-collected after each run:
 * stale-fingerprint entries are always dropped, and
 * `--cache-max-bytes N[k|M|G]` / `--cache-max-age SECONDS` (or
 * LAGALYZER_CACHE_MAX_BYTES / LAGALYZER_CACHE_MAX_AGE, plain
 * numbers) bound what remains. Limits only affect the disk
 * footprint, never the computed results.
 */

#ifndef LAG_BENCH_STUDY_UTIL_HH
#define LAG_BENCH_STUDY_UTIL_HH

#include <functional>
#include <string>
#include <vector>

#include "app/study.hh"
#include "core/figure_json.hh"

namespace lag::bench
{

/**
 * The study configuration selected by the environment and, when a
 * harness passes its command line, by `--jobs N` (which overrides
 * LAGALYZER_JOBS; the option is stripped from argv).
 */
app::StudyConfig selectStudyConfig(int argc = 0,
                                   char **argv = nullptr);

/**
 * Everything analyses need from one app, session-averaged. Now the
 * shared core figure-input struct: the bench harnesses and lagd's
 * hot store consume the identical type, averaged by the identical
 * code (engine::finishApp), so their figure bytes
 * cannot drift apart.
 */
using AppAnalysis = core::AppFigureData;

/**
 * Run the full analysis pipeline for every app in the study,
 * averaging the four sessions per app. Sessions, then apps, fan
 * out over the engine pool (engine::aggregateFromCache). Progress
 * lines go to stderr.
 */
std::vector<AppAnalysis> analyzeStudy(app::Study &study);

/** Average the per-app values of @p get over all apps. */
double meanOf(const std::vector<AppAnalysis> &apps,
              const std::function<double(const AppAnalysis &)> &get);

/** Create ./figures/ if needed and return the path of @p name. */
std::string figurePath(const std::string &name);

} // namespace lag::bench

#endif // LAG_BENCH_STUDY_UTIL_HH
