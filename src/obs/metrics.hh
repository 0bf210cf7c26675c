/**
 * @file
 * Process-wide registry of named counters, gauges and fixed-bucket
 * histograms.
 *
 * Unlike spans, metrics are ALWAYS on: every instrument is a relaxed
 * atomic word (or a small array of them), so an increment costs one
 * uncontended atomic add — noise against the session-sized work the
 * engine schedules, and the reason no enable flag exists. The
 * registry itself (name → instrument) is locked under LockRank::Obs,
 * but instrumented code looks its instruments up once through
 * function-local statics and then touches only the atomics.
 *
 * Naming convention: dotted lowercase paths grouped by subsystem —
 * `pool.task.count`, `cache.hit`, `trace.decode.bytes`. The text
 * and JSON dumps (`--metrics-out`) emit instruments sorted by name,
 * so diffs of two runs line up.
 *
 * Histograms have caller-fixed bucket upper bounds plus an implicit
 * overflow bucket, and track sum/count for mean rates: a value v
 * lands in the first bucket with v <= bound, or in the overflow
 * bucket when v exceeds every bound.
 */

#ifndef LAG_OBS_METRICS_HH
#define LAG_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lag::obs
{

/** Monotonic event count. */
class Counter
{
  public:
    void add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written level plus a high-water mark. */
class Gauge
{
  public:
    void set(std::int64_t value)
    {
        value_.store(value, std::memory_order_relaxed);
        updateMax(value);
    }

    /** Raise the high-water mark without touching the level. */
    void updateMax(std::int64_t value)
    {
        std::int64_t seen = max_.load(std::memory_order_relaxed);
        while (value > seen &&
               !max_.compare_exchange_weak(
                   seen, value, std::memory_order_relaxed)) {
        }
    }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    std::int64_t max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
    std::atomic<std::int64_t> max_{0};
};

/** Fixed-bucket histogram; see the file comment for semantics. */
class Histogram
{
  public:
    /** @param bounds ascending bucket upper bounds (inclusive);
     * an overflow bucket past the last bound is implicit. */
    explicit Histogram(std::vector<std::int64_t> bounds);

    void record(std::int64_t value);

    const std::vector<std::int64_t> &bounds() const
    {
        return bounds_;
    }

    /** Count in bucket @p i; i == bounds().size() is overflow. */
    std::uint64_t bucketCount(std::size_t i) const
    {
        return counts_[i].load(std::memory_order_relaxed);
    }

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::int64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

  private:
    std::vector<std::int64_t> bounds_;
    /** bounds_.size() + 1 slots; the last is the overflow bucket. */
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::int64_t> sum_{0};
};

/** Point-in-time copy of every instrument, sorted by name. */
struct MetricsSnapshot
{
    struct CounterValue
    {
        std::string name;
        std::uint64_t value = 0;
    };

    struct GaugeValue
    {
        std::string name;
        std::int64_t value = 0;
        std::int64_t max = 0;
    };

    struct HistogramValue
    {
        std::string name;
        std::vector<std::int64_t> bounds;
        std::vector<std::uint64_t> counts; ///< bounds + overflow
        std::uint64_t count = 0;
        std::int64_t sum = 0;
    };

    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    /** Counter value by name; 0 when absent (for harness JSON). */
    std::uint64_t counterValue(std::string_view name) const;

    /** Gauge high-water mark by name; 0 when absent. */
    std::int64_t gaugeMax(std::string_view name) const;
};

/** The name → instrument table. One per process; see metrics(). */
class MetricsRegistry
{
  public:
    /** Find-or-create. References stay valid for the process
     * lifetime; look up once, then hit only atomics. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);

    /** Find-or-create with @p bounds; a second caller gets the
     * existing histogram (bounds must then match — checked). */
    Histogram &histogram(std::string_view name,
                         std::vector<std::int64_t> bounds);

    /**
     * Labeled find-or-create: registered under the rendered name
     * `base{key="value"}` (value prom-escaped), which dumpProm()
     * parses back into a labeled sample. Keeping label cardinality
     * bounded (route names, not raw targets) is the caller's job.
     */
    Counter &counter(std::string_view base, std::string_view key,
                     std::string_view value);
    Gauge &gauge(std::string_view base, std::string_view key,
                 std::string_view value);
    Histogram &histogram(std::string_view base,
                         std::vector<std::int64_t> bounds,
                         std::string_view key,
                         std::string_view value);

    MetricsSnapshot snapshot() const;

    /** `name kind value` lines, sorted; for --metrics-out *.txt. */
    std::string dumpText() const;

    /** One JSON object {"counters":…,"gauges":…,"histograms":…}. */
    std::string dumpJson() const;

    /**
     * Prometheus text exposition (format 0.0.4): `# HELP`/`# TYPE`
     * per family, counters as `lag_<name>_total`, gauges as
     * `lag_<name>` plus `lag_<name>_max`, histograms as cumulative
     * `_bucket{le=…}`/`_sum`/`_count` series. Dotted names map to
     * underscores under a `lag_` prefix; label values escape
     * `\\`, `"` and newline per the spec.
     */
    std::string dumpProm() const;

    /** One log-friendly line of every nonzero counter/gauge-max,
     * emitted at exit by obs::flush(). */
    std::string summaryLine() const;
};

/** Escape a label value for the Prometheus text format
 * (`\\` → `\\\\`, `"` → `\"`, newline → `\n`). */
std::string promLabelEscape(std::string_view value);

/** The rendered registry key for a labeled instrument:
 * `base{key="escaped-value"}`. */
std::string labeledMetricName(std::string_view base,
                              std::string_view key,
                              std::string_view value);

/** The process-wide registry (intentionally leaked singleton). */
MetricsRegistry &metrics();

} // namespace lag::obs

#endif // LAG_OBS_METRICS_HH
