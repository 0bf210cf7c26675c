/**
 * @file
 * Parameterization of the synthetic application models.
 *
 * Each of the paper's 14 benchmark applications (Table II) is
 * modeled as an AppParams instance: rates and cost distributions for
 * user input handling, painting, native calls and allocation, plus
 * background-thread specs and per-app quirks (explicit System.gc()
 * calls, combo-box sleeps, modal-dialog waits, monitor contention).
 * The catalog in catalog.cc holds the calibrated values; this header
 * defines their meaning.
 *
 * Durations are medians of lognormal draws with the given sigma —
 * the heavy upper tail is what makes a small fraction of episodes
 * perceptible, as in the paper's applications.
 */

#ifndef LAG_APP_PARAMS_HH
#define LAG_APP_PARAMS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/scope.hh"
#include "util/types.hh"

namespace lag::app
{

/** A lognormal duration distribution (median + spread + clamp). */
struct CostModel
{
    DurationNs median = 0;
    double sigma = 0.5;
    DurationNs min = 0;
    DurationNs max = 0;

    /** Convenience constructor helper used by the catalog. */
    static CostModel
    of(DurationNs median, double sigma, DurationNs min, DurationNs max)
    {
        return CostModel{median, sigma, min, max};
    }
};

/** A periodic background thread posting events to the GUI queue
 * (animation timers, progress-bar updaters). */
struct TimerSpec
{
    std::string name;
    DurationNs period = 0;

    /** True: posts a repaint (output episode); false: posts an
     * asynchronous model update (async episode). */
    bool postsRepaint = false;

    /** Cost of the posted handler on the EDT. */
    CostModel handlerCost;

    /** Allocation during the handler, bytes per ms of its work. */
    std::uint64_t handlerAllocPerMs = 0;

    /** Start/stop window within the session (fractions of session
     * length); an animation may not run the whole time. */
    double activeFrom = 0.0;
    double activeTo = 1.0;
};

/** A background thread that burns CPU for a while (project loading,
 * background indexing), competing with the EDT for cores. */
struct LoaderSpec
{
    std::string name;
    double startAt = 0.0;  ///< fraction of session length
    double endAt = 1.0;    ///< stops when its window closes
    DurationNs chunkCost = 0; ///< CPU per chunk between yields
    /** Sleep between chunks; controls the duty cycle and thus how
     * hard the loader competes with the EDT (Figure 7). */
    DurationNs restBetweenChunks = 0;
    std::uint64_t allocPerMs = 0;
    double postProb = 0.0; ///< chance to post an async update/chunk
    CostModel postHandlerCost;
};

/** A background thread that periodically holds a monitor, creating
 * contention with listeners that need the same monitor. */
struct HogSpec
{
    std::string name;
    DurationNs period = 0;
    CostModel holdCost;
    int monitorId = 0;
};

/** Full behavioural model of one application. */
struct AppParams
{
    /**
     * Table II identity.
     * @{
     */
    std::string name;
    std::string version;
    int classCount = 0;
    std::string description;
    /** @} */

    /** Package prefix of generated application class names. */
    std::string appPackage;

    /** Target session length. */
    DurationNs sessionLength = secToNs(480);

    /**
     * User activity: interaction bursts per second of session time
     * and the mix of burst kinds (shares should sum to ~1).
     * @{
     */
    double actionsPerSec = 1.0;
    double typingShare = 0.3;
    double clickShare = 0.4;
    double dragShare = 0.3;
    /** @} */

    /** Typing bursts: mean characters and keystroke rate. */
    double typingBurstLen = 12.0;
    double typingRate = 7.0;

    /** Drag bursts: mean mouse-move events and event rate. */
    double dragBurstLen = 80.0;
    double dragRate = 200.0;

    /** Post a repaint every N drag events (continuous canvas
     * feedback while drawing); 0 disables. */
    int dragRepaintEvery = 0;

    /**
     * Handler cost models per input kind. Typing and dragging are
     * normally sub-threshold; clicks carry the perceptible tail.
     * @{
     */
    CostModel typeCost = CostModel::of(usToNs(350), 0.5, usToNs(30),
                                       msToNs(20));
    CostModel dragCost = CostModel::of(usToNs(300), 0.5, usToNs(30),
                                       msToNs(15));
    CostModel clickCost = CostModel::of(msToNs(6), 1.0, usToNs(200),
                                        msToNs(600));
    /** Probability that a click hits a heavy operation. */
    double heavyClickProb = 0.08;
    CostModel heavyClickCost = CostModel::of(msToNs(120), 0.6,
                                             msToNs(30), secToNs(3));
    /** @} */

    /**
     * Painting. Inputs may repaint synchronously (paint child inside
     * the listener) or post a repaint (separate output episode);
     * some posted repaints go through the repaint-manager path that
     * looks asynchronous (async wrapping paint, paper §IV.C).
     * @{
     */
    double paintInListenerProb = 0.35;
    double postRepaintProb = 0.3;
    double asyncRepaintShare = 0.15;
    int paintDepthMin = 2;
    int paintDepthMax = 4;
    double paintFanout = 1.3; ///< mean extra children per paint level
    CostModel paintNodeCost = CostModel::of(msToNs(2), 0.9,
                                            usToNs(100), msToNs(400));
    /** Standalone system repaints per second (window damage etc.). */
    double systemRepaintRate = 0.2;
    /** @} */

    /**
     * Native calls inside handlers/paints (JNI, Table I "Native").
     * @{
     */
    double nativeInPaintProb = 0.12;
    double nativeInListenerProb = 0.04;
    CostModel nativeCost = CostModel::of(msToNs(3), 1.0, usToNs(100),
                                         msToNs(900));
    /** @} */

    /** Allocation rate of handler work, bytes per ms of CPU. */
    std::uint64_t allocPerMsWork = 40 << 10;

    /** Young-generation capacity for this app's VM. */
    std::uint64_t youngCapacityBytes = 24ull << 20;

    /** Major-collection pause median override; 0 keeps the heap
     * default (Arabeske's explicit collections run on a smaller
     * retained set than the default models). */
    DurationNs majorPauseMedian = 0;

    /**
     * Quirks observed in the paper's study.
     * @{
     */
    /** Probability a click handler calls System.gc() (Arabeske). */
    double explicitGcProb = 0.0;
    /** Combo-box blink sleep inside the Apple toolkit (Euclide; the
     * paper found every Thread.sleep came from this code). */
    double comboSleepProb = 0.0;
    CostModel comboSleep = CostModel::of(msToNs(350), 0.3, msToNs(120),
                                         msToNs(900));
    /** Modal-dialog event-processing wait (jEdit). */
    double modalWaitProb = 0.0;
    CostModel modalWait = CostModel::of(msToNs(250), 0.5, msToNs(60),
                                        secToNs(2));
    /** Listener-side monitor acquisition (FreeMind display config);
     * pairs with a HogSpec holding the same monitor. */
    double contentionProb = 0.0;
    int contentionMonitor = 1;
    /** @} */

    /**
     * One-time extra cost the first time a handler class runs
     * (class loading / JIT warm-up) — produces the paper's "once"
     * patterns whose first episode is slow.
     */
    CostModel firstUseCost = CostModel::of(msToNs(10), 1.0, msToNs(2),
                                           msToNs(400));

    /**
     * Pattern-variety knobs: the number of distinct handler and
     * paint component classes the generator draws from, and the
     * Zipf-like skew of their popularity (larger skew → fewer
     * patterns dominate → steeper Figure 3 curve).
     * @{
     */
    int listenerClassCount = 18;
    int paintClassCount = 14;
    double classSkew = 1.2;

    /**
     * Concentration of the template pool (Chinese-restaurant
     * process): the probability of a fresh episode structure is
     * concentration / (n + concentration) after n episodes. Larger
     * values → more distinct patterns (Table III "Dist") and more
     * singletons ("One-Ep").
     */
    double patternConcentration = 60.0;

    /** Concentration of the repaint template pool; negative means
     * 0.6 x patternConcentration. Repaint-heavy apps need this
     * decoupled (GanttProject's pattern variety is mostly paints;
     * Arabeske's mostly clicks). */
    double repaintConcentration = -1.0;

    /** Multiplicative lognormal jitter applied to every node cost
     * when a template is instantiated; creates the within-pattern
     * timing variation behind the "sometimes" occurrence class. */
    double costJitterSigma = 0.45;
    /** @} */

    /** Share of handler work nodes attributed to runtime-library
     * classes (drives Figure 6's app/library split). */
    double libraryTimeShare = 0.5;

    /** Background threads. @{ */
    std::vector<TimerSpec> timers;
    std::vector<LoaderSpec> loaders;
    std::vector<HogSpec> hogs;
    /** @} */

    /** Base seed; combined with the session index. */
    std::uint64_t baseSeed = 0x1a6a1721;

    /** Canonical dump of every parameter, used as the trace-cache
     * key so stale caches are regenerated after recalibration. */
    std::string fingerprint() const;
};

/** Default engine worker count: one per hardware thread. */
std::uint32_t defaultJobs();

/**
 * Extract a `--jobs N` (or `--jobs=N`) option from a command line,
 * compacting argv in place and decrementing @p argc for every
 * consumed argument. Returns the requested worker count, 0 when the
 * option is absent (meaning "use defaultJobs()"); fatal() on a
 * malformed or non-positive value. Harness mains feed the result
 * into StudyConfig::jobs, which plumbs it to the engine pool.
 */
std::uint32_t parseJobsOption(int &argc, char **argv);

/**
 * Parse @p value, the argument of @p option, as a whole decimal int
 * of at least @p min. fatal() naming the option on junk, a trailing
 * suffix ("5s"), a value below @p min or one past INT_MAX.
 */
int parseIntValue(std::string_view option, std::string_view value,
                  int min);

/** Analysis-cache limits parsed off a command line; 0 = unlimited. */
struct CacheLimitOptions
{
    std::uint64_t maxBytes = 0;
    std::uint64_t maxAgeSeconds = 0;
};

/**
 * Extract `--cache-max-bytes N[k|M|G]` and `--cache-max-age SECONDS`
 * (space- or `=`-separated) from a command line, compacting argv in
 * place like parseJobsOption. Returns the limits, zero-valued where
 * absent; fatal() on a malformed value. Harness mains feed the
 * result into StudyConfig::cacheMaxBytes / cacheMaxAgeSeconds.
 */
CacheLimitOptions parseCacheLimitOptions(int &argc, char **argv);

/** lagd listener options parsed off a command line. */
struct ServeOptions
{
    /** TCP port; 0 = ephemeral (lagd prints the bound port). */
    std::uint16_t port = 8437;

    /** In-flight connection cap (admission gate). */
    std::size_t maxConnections = 64;
};

/**
 * Extract `--port N` and `--max-connections N` (space- or
 * `=`-separated) from a command line, compacting argv in place like
 * parseJobsOption. Where `--port` is absent, the LAGALYZER_SERVE_PORT
 * environment variable fills in; the default is 8437. Port 0 asks
 * for an ephemeral port. fatal() on malformed values.
 */
ServeOptions parseServeOptions(int &argc, char **argv);

/**
 * Extract `--self-trace PATH` and `--metrics-out PATH` (space- or
 * `=`-separated) from a command line, compacting argv in place like
 * parseJobsOption. Where a flag is absent, its LAGALYZER_SELF_TRACE /
 * LAGALYZER_METRICS_OUT environment equivalent fills in, so batch
 * harnesses can profile without editing every invocation. Returns
 * the destinations (empty = off); fatal() on a flag without a value.
 * Callers pass the result to obs::install().
 */
obs::ObsOptions parseObsOptions(int &argc, char **argv);

} // namespace lag::app

#endif // LAG_APP_PARAMS_HH
