/**
 * @file
 * Streaming statistics accumulators.
 */

#ifndef PICO_SUPPORT_STATS_HPP
#define PICO_SUPPORT_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/Logging.hpp"

namespace pico
{

/**
 * Single-pass accumulator for count / mean / variance / extrema
 * (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Fold one sample into the accumulator. */
    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Weighted empirical distribution supporting the cumulative
 * fraction-below queries used by the dilation-distribution figures.
 */
class WeightedDistribution
{
  public:
    /** Add one sample with the given (non-negative) weight. */
    void
    add(double value, double weight = 1.0)
    {
        panicIf(weight < 0.0, "negative weight");
        samples_.push_back({value, weight});
        totalWeight_ += weight;
        sorted_ = false;
    }

    /** Weighted fraction of samples with value <= threshold. */
    double
    fractionAtOrBelow(double threshold) const
    {
        if (totalWeight_ == 0.0)
            return 0.0;
        sortIfNeeded();
        double acc = 0.0;
        for (const auto &s : samples_) {
            if (s.value > threshold)
                break;
            acc += s.weight;
        }
        return acc / totalWeight_;
    }

    /** Smallest value v such that fractionAtOrBelow(v) >= q. */
    double
    quantile(double q) const
    {
        fatalIf(q < 0.0 || q > 1.0, "quantile out of [0,1]");
        fatalIf(totalWeight_ == 0.0, "quantile of empty distribution");
        sortIfNeeded();
        double target = q * totalWeight_;
        double acc = 0.0;
        for (const auto &s : samples_) {
            acc += s.weight;
            if (acc >= target)
                return s.value;
        }
        return samples_.back().value;
    }

    /** Weighted mean of the samples. */
    double
    mean() const
    {
        if (totalWeight_ == 0.0)
            return 0.0;
        double acc = 0.0;
        for (const auto &s : samples_)
            acc += s.value * s.weight;
        return acc / totalWeight_;
    }

    uint64_t count() const { return samples_.size(); }

  private:
    struct Sample
    {
        double value;
        double weight;
    };

    void
    sortIfNeeded() const
    {
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end(),
                      [](const Sample &a, const Sample &b) {
                          return a.value < b.value;
                      });
            sorted_ = true;
        }
    }

    mutable std::vector<Sample> samples_;
    mutable bool sorted_ = true;
    double totalWeight_ = 0.0;
};

} // namespace pico

#endif // PICO_SUPPORT_STATS_HPP
