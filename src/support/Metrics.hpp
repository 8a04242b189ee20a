/**
 * @file
 * Thread-safe metrics registry: counters, gauges, and log2-bucketed
 * histograms for the exploration pipeline.
 *
 * The paper's claim is *efficiency*, so the library must be able to
 * measure itself without distorting what it measures. The registry is
 * built around three rules:
 *
 *  - *Lock-free hot paths.* Each counter and histogram handle owns
 *    its relaxed atomics, and an update is one to three relaxed
 *    adds on them: no mutex and no per-thread storage. Updates come
 *    at sweep, phase and request granularity, never per access, so
 *    the shared words do not contend.
 *
 *  - *Near-zero cost when disabled.* The default is off, and a
 *    single relaxed atomic load guards each update (enable with
 *    setMetricsEnabled(true) or PICOEVAL_METRICS=1 in the
 *    environment).
 *
 *  - *Outside the result path.* Metrics observe the pipeline, never
 *    feed it: enabling or disabling instrumentation cannot change a
 *    Pareto set, a failure ordering, or a cache-database byte
 *    (enforced by tests/parallel_determinism_test.cpp).
 *
 * Snapshots are deterministic *documents*: names are sorted and the
 * JSON bytes are a pure function of the metric values, so two
 * snapshots of equal state are byte-identical.
 */

#ifndef PICO_SUPPORT_METRICS_HPP
#define PICO_SUPPORT_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "support/ThreadAnnotations.hpp"

namespace pico::support
{

namespace detail
{
/** Runtime master switch (relaxed loads on the hot path). */
extern std::atomic<bool> metricsOn;
} // namespace detail

/** True when metric updates are recorded (runtime switch). */
inline bool
metricsEnabled()
{
    return detail::metricsOn.load(std::memory_order_relaxed);
}

/** Flip the runtime switch (overrides PICOEVAL_METRICS env). */
void setMetricsEnabled(bool on);

/**
 * Nanoseconds since the process-wide monotonic epoch (the first call
 * in the process). Shared by metric timers, trace-event timestamps
 * and log lines so all three tell the same clock.
 */
uint64_t monotonicNowNs();

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &s);

/** Monotonically increasing event count (one relaxed atomic). */
class Counter
{
  public:
    /** Add n to the counter (lock-free; no-op while disabled). */
    void add(uint64_t n = 1);

  private:
    friend class MetricsRegistry;
    Counter() = default;
    std::atomic<uint64_t> value_{0};
};

/** Last-written value (a single global atomic; low-frequency). */
class Gauge
{
  public:
    void set(double v);
    double value() const;

  private:
    friend class MetricsRegistry;
    Gauge() = default;
    std::atomic<double> value_{0.0};
};

/**
 * Fixed log2-bucketed histogram. A value v lands in bucket
 * bit_width(v): bucket 0 holds zeros, bucket k >= 1 holds values in
 * [2^(k-1), 2^k), and the last bucket absorbs everything larger.
 * Count and sum are tracked exactly, so means are not quantized.
 */
class Histogram
{
  public:
    /** Buckets per histogram (indices 0..bucketCount-1). */
    static constexpr size_t bucketCount = 64;

    /** Record one value (lock-free; no-op while disabled). */
    void observe(uint64_t value);

    /** Bucket index a value lands in. */
    static size_t bucketOf(uint64_t value);

  private:
    friend class MetricsRegistry;
    Histogram() = default;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::array<std::atomic<uint64_t>, bucketCount> buckets_{};
};

/** Value of one histogram at snapshot time. */
struct HistogramValue
{
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, Histogram::bucketCount> buckets{};

    double
    mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }
};

/**
 * Point-in-time read of every registered metric. std::map keys give
 * sorted, stable iteration; writeJson() is byte-deterministic for
 * equal values.
 */
struct MetricsSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramValue> histograms;

    /** Deterministic JSON object: {"counters":{...},...}. */
    void writeJson(std::ostream &os) const;
    std::string toJson() const;
};

/**
 * Process-global registry. Handles returned by counter()/gauge()/
 * histogram() are stable for the life of the process; registering the
 * same name twice returns the same handle. Updates through handles
 * are lock-free; registration and snapshotting take a mutex.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name)
        PICO_REQUIRES(!registryMutex_);
    Gauge &gauge(const std::string &name)
        PICO_REQUIRES(!registryMutex_);
    Histogram &histogram(const std::string &name)
        PICO_REQUIRES(!registryMutex_);

    /** Read every handle into one deterministic snapshot. */
    MetricsSnapshot snapshot() const
        PICO_REQUIRES(!registryMutex_);

    /**
     * Zero every counter/histogram/gauge value (registrations and
     * handles stay valid). For tests and repeated measurement runs.
     */
    void resetValues() PICO_REQUIRES(!registryMutex_);

  private:
    MetricsRegistry() = default;

    mutable Mutex registryMutex_{"metrics.registry", rank::kMetricsRegistry};
    std::map<std::string, std::unique_ptr<Counter>> counters_
        PICO_GUARDED_BY(registryMutex_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_
        PICO_GUARDED_BY(registryMutex_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        PICO_GUARDED_BY(registryMutex_);
};

/** Shorthand for MetricsRegistry::instance(). */
inline MetricsRegistry &
metrics()
{
    return MetricsRegistry::instance();
}

} // namespace pico::support

/**
 * Call-site macro. The handle lookup is a function-local static, so
 * each site pays the registry mutex exactly once — which means `name`
 * MUST be a constant at each call site. For dynamic names, call
 * metrics().counter(name).add(n) directly.
 */
#define PICO_METRIC_COUNT(name, n)                                    \
    do {                                                              \
        if (::pico::support::metricsEnabled()) {                      \
            static auto &pico_metric_ctr_ =                           \
                ::pico::support::metrics().counter(name);             \
            pico_metric_ctr_.add(n);                                  \
        }                                                             \
    } while (0)

#endif // PICO_SUPPORT_METRICS_HPP
