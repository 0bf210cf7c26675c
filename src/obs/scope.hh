/**
 * @file
 * Process-level wiring of the observability layer.
 *
 * Binaries call obs::install() once, right after argument parsing,
 * with the paths the user gave (`--self-trace`, `--metrics-out`, or
 * their LAGALYZER_SELF_TRACE / LAGALYZER_METRICS_OUT env
 * equivalents — see app::parseObsOptions). install() turns span
 * recording on when a self-trace path is present and registers one
 * atexit flush that
 *
 *  - writes the Chrome trace-event JSON,
 *  - writes the metrics dump (JSON when the path ends in ".json",
 *    text otherwise), and
 *  - informs a one-line metrics summary so batch logs show the
 *    pool/cache/decode counters without opening any file.
 *
 * When neither path is set install() is a no-op: spans stay
 * disabled, nothing is registered, and output is byte-identical to
 * a build without the layer.
 */

#ifndef LAG_OBS_SCOPE_HH
#define LAG_OBS_SCOPE_HH

#include <string>

namespace lag::obs
{

/** Export destinations; empty path = that export is off. */
struct ObsOptions
{
    std::string selfTracePath; ///< Chrome trace-event JSON
    std::string metricsPath;   ///< metrics dump (json/text)
    std::string flightrecPath; ///< fatal-signal .flightrec dump

    bool
    any() const
    {
        return !selfTracePath.empty() || !metricsPath.empty() ||
               !flightrecPath.empty();
    }
};

/** Arm exports per @p options; see the file comment. Safe to call
 * once per process (later calls replace unflushed options). */
void install(const ObsOptions &options);

/** Run the installed exports now (idempotent; atexit calls this). */
void flush();

} // namespace lag::obs

#endif // LAG_OBS_SCOPE_HH
