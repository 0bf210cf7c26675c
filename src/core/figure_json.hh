/**
 * @file
 * Strict-JSON emitters for the paper's figure and table data.
 *
 * One function per query shape, consumed by two callers that must
 * agree byte for byte: the batch side (tests deriving reference
 * output straight from engine::aggregateFromCache results) and the
 * serve side (`lagd` answering the /v1 endpoints). Keeping the emitters here
 * — below both — is what makes the serve acceptance criterion
 * ("every response byte-identical to the equivalent batch-derived
 * output") a structural property instead of a maintained promise.
 *
 * Output is strict RFC 8259 JSON (obs::checkJson-clean): doubles go
 * through std::to_chars shortest round-trip form (never NaN/Inf —
 * asserted), strings are escaped, and 64-bit pattern keys are
 * emitted as hex *strings* so JavaScript clients never round them
 * through a double. Each emitter appends every field straight into
 * one output string through the util/json.hh writers; patternsJson()
 * reserves its body once.
 */

#ifndef LAG_CORE_FIGURE_JSON_HH
#define LAG_CORE_FIGURE_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "aggregate.hh"
#include "concurrency.hh"
#include "location.hh"
#include "overview.hh"
#include "pattern_stats.hh"
#include "triggers.hh"

namespace lag::core
{

/** One app's session-averaged analysis results — the inputs every
 * figure draws from (the serve layer's hot per-app state, and what
 * bench::analyzeStudy computes per app). */
struct AppFigureData
{
    std::string name;
    OverviewRow overview;
    TriggerAnalysisResult triggers;
    LocationAnalysisResult location;
    ConcurrencyResult concurrency;
    ThreadStateResult states;
    OccurrenceShares occurrence;
    /** Session-averaged pattern CDF on the percent grid (0..100). */
    std::vector<double> cdfEpisodesAtPatternPercent;
};

/** Pattern keys as fixed-width hex strings ("0x%016x" without the
 * prefix), the `pattern=` query-parameter form. */
std::string patternKeyHex(std::uint64_t key);

/** Parse patternKeyHex() output (or any hex string, with or
 * without 0x); returns false on malformed input. */
bool parsePatternKeyHex(std::string_view text, std::uint64_t &key);

/** Sort orders patternsJson() accepts. */
inline constexpr std::string_view kPatternSortKeys[] = {
    "episodes", "total_lag", "max_lag", "avg_lag"};

/**
 * `/v1/patterns`: the top @p limit patterns of @p set ordered by
 * @p sort ("episodes" keeps the set's most-populous-first order;
 * "total_lag", "max_lag" and "avg_lag" sort descending, stably, so
 * ties keep set order). @p limit 0 means all. Unknown @p sort
 * returns an empty string — the caller's 400.
 */
std::string patternsJson(std::string_view app,
                         const MergedPatternSet &set,
                         std::string_view sort, std::size_t limit);

/** `/v1/cdf`: the session-averaged percent-grid CDF of one app. */
std::string cdfJson(std::string_view app,
                    const std::vector<double> &grid);

/**
 * `/v1/episodes`: drill-down into one merged pattern — which
 * sessions it occurred in, episode counts per session, and the lag
 * envelope.
 */
std::string episodesJson(std::string_view app,
                         const MergedPattern &pattern,
                         std::size_t session_count);

/** Figure/table ids figureJson() serves. */
std::vector<std::string> figureIds();

/**
 * `/v1/figures/<id>`: the data behind one paper figure or table
 * across all apps — "fig3" (pattern CDFs), "fig4" (occurrence),
 * "fig5" (triggers), "fig6" (location), "fig7" (concurrency),
 * "fig8" (thread states), "table3" (overview rows). Unknown id
 * returns an empty string — the caller's 404. @p apps points at
 * figure inputs owned elsewhere (each non-null), in app order.
 */
std::string figureJson(std::string_view id,
                       const std::vector<const AppFigureData *> &apps);

} // namespace lag::core

#endif // LAG_CORE_FIGURE_JSON_HH
