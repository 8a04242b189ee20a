#include "support/Metrics.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace pico::support
{

namespace detail
{

/** Initialized from the environment so headless runs (CI, cron) can
 *  switch instrumentation on without touching call sites. */
std::atomic<bool> metricsOn{[] {
    const char *env = std::getenv("PICOEVAL_METRICS");
    return env != nullptr && *env != '\0' &&
           std::string(env) != "0";
}()};

} // namespace detail

void
setMetricsEnabled(bool on)
{
    detail::metricsOn.store(on, std::memory_order_relaxed);
}

uint64_t
monotonicNowNs()
{
    using clock = std::chrono::steady_clock;
    // One epoch for the whole process: timers, trace-event
    // timestamps and log lines all measure from the same zero.
    static const clock::time_point epoch = clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - epoch)
            .count());
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

// --- MetricsRegistry ---------------------------------------------------

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    MutexLock lock(registryMutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_
                 .emplace(name, std::unique_ptr<Counter>(new Counter()))
                 .first;
    }
    return *it->second;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    MutexLock lock(registryMutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_
                 .emplace(name, std::unique_ptr<Gauge>(new Gauge()))
                 .first;
    }
    return *it->second;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    MutexLock lock(registryMutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name,
                          std::unique_ptr<Histogram>(new Histogram()))
                 .first;
    }
    return *it->second;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    // Concurrent updaters use relaxed adds, so a snapshot taken
    // while work is in flight may lag by in-flight increments; the
    // pipeline snapshots after joins, where totals are exact.
    constexpr auto relaxed = std::memory_order_relaxed;
    MutexLock lock(registryMutex_);
    MetricsSnapshot snap;
    for (const auto &[name, ctr] : counters_)
        snap.counters[name] = ctr->value_.load(relaxed);
    for (const auto &[name, g] : gauges_)
        snap.gauges[name] = g->value();
    for (const auto &[name, h] : histograms_) {
        HistogramValue v;
        v.count = h->count_.load(relaxed);
        v.sum = h->sum_.load(relaxed);
        for (size_t b = 0; b < Histogram::bucketCount; ++b)
            v.buckets[b] = h->buckets_[b].load(relaxed);
        snap.histograms[name] = v;
    }
    return snap;
}

void
MetricsRegistry::resetValues()
{
    constexpr auto relaxed = std::memory_order_relaxed;
    MutexLock lock(registryMutex_);
    for (auto &[name, ctr] : counters_)
        ctr->value_.store(0, relaxed);
    for (auto &[name, g] : gauges_)
        g->value_.store(0.0, relaxed);
    for (auto &[name, h] : histograms_) {
        h->count_.store(0, relaxed);
        h->sum_.store(0, relaxed);
        for (auto &bucket : h->buckets_)
            bucket.store(0, relaxed);
    }
}

// --- handles -----------------------------------------------------------

void
Counter::add(uint64_t n)
{
    if (!metricsEnabled())
        return;
    value_.fetch_add(n, std::memory_order_relaxed);
}

void
Gauge::set(double v)
{
    if (!metricsEnabled())
        return;
    value_.store(v, std::memory_order_relaxed);
}

double
Gauge::value() const
{
    return value_.load(std::memory_order_relaxed);
}

size_t
Histogram::bucketOf(uint64_t value)
{
    // bit_width(v): 0 for 0, k for [2^(k-1), 2^k). Cap into the
    // last bucket.
    size_t width = 0;
    while (value != 0) {
        ++width;
        value >>= 1;
    }
    return width < bucketCount ? width : bucketCount - 1;
}

void
Histogram::observe(uint64_t value)
{
    if (!metricsEnabled())
        return;
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
}

// --- snapshot JSON -----------------------------------------------------

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    // Deterministic by construction: std::map iteration is sorted,
    // counters and bucket counts are integers, gauges use a fixed
    // precision. Equal values => equal bytes.
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, v] : counters) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":" << v;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, v] : gauges) {
        std::ostringstream num;
        num.precision(17);
        num << v;
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":" << num.str();
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, v] : histograms) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":{\"count\":" << v.count << ",\"sum\":" << v.sum
           << ",\"buckets\":{";
        bool firstBucket = true;
        for (size_t b = 0; b < v.buckets.size(); ++b) {
            if (v.buckets[b] == 0)
                continue;
            os << (firstBucket ? "" : ",") << '"' << b
               << "\":" << v.buckets[b];
            firstBucket = false;
        }
        os << "}}";
        first = false;
    }
    os << "}}";
}

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream ss;
    writeJson(ss);
    return ss.str();
}

} // namespace pico::support
