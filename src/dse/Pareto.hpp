/**
 * @file
 * Pareto-set accumulation for cost/performance design points.
 *
 * A design is kept when no other design has lower-or-equal cost and
 * lower-or-equal time with at least one strict improvement (the
 * paper's definition of cost-performance optimality, section 1).
 */

#ifndef PICO_DSE_PARETO_HPP
#define PICO_DSE_PARETO_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pico::dse
{

/** One candidate design: identifier, silicon cost, execution time. */
struct DesignPoint
{
    std::string id;
    double cost = 0.0;
    /** Execution time or any lower-is-better performance metric. */
    double time = 0.0;

    /** True when this point dominates the other (<= both, < one). */
    bool
    dominates(const DesignPoint &other) const
    {
        return cost <= other.cost && time <= other.time &&
               (cost < other.cost || time < other.time);
    }
};

/**
 * Remove from `offers` every offer that another offer dominates, and
 * keep the survivors in offer order. That is the set, and the order,
 * that ParetoSet::insertPoint leaves after the same offers: dominance
 * is transitive, so an offer survives insertion exactly when no offer
 * dominates it. Equal offers all survive; an offer with a NaN cost or
 * time is never dominated and dominates nothing. One sort by (cost,
 * time, offer index) and one sweep take O(n log n), where insertion
 * takes O(kept) per offer. `Offer` needs double members `cost` and
 * `time`.
 */
template <class Offer>
void
keepParetoFront(std::vector<Offer> &offers)
{
    std::vector<uint32_t> order;
    order.reserve(offers.size());
    for (uint32_t i = 0; i < offers.size(); ++i)
        if (!std::isnan(offers[i].cost) && !std::isnan(offers[i].time))
            order.push_back(i);
    std::sort(order.begin(), order.end(), [&offers](uint32_t a, uint32_t b) {
        const Offer &x = offers[a];
        const Offer &y = offers[b];
        if (x.cost != y.cost)
            return x.cost < y.cost;
        if (x.time != y.time)
            return x.time < y.time;
        return a < b;
    });
    // Sweep the groups of equal cost, cheapest first. A cheaper offer
    // dominates when its time is no larger; an equally costly one
    // when it is strictly faster, and the group's first is fastest.
    std::vector<char> keep(offers.size(), 1);
    bool any_cheaper = false;
    double cheaper_time = 0.0; // least time of the cheaper offers
    for (size_t g = 0; g < order.size();) {
        const double cost = offers[order[g]].cost;
        const double group_time = offers[order[g]].time;
        size_t e = g;
        for (; e < order.size() && offers[order[e]].cost == cost; ++e) {
            const double t = offers[order[e]].time;
            if ((any_cheaper && cheaper_time <= t) || group_time < t)
                keep[order[e]] = 0;
        }
        if (!any_cheaper || group_time < cheaper_time)
            cheaper_time = group_time;
        any_cheaper = true;
        g = e;
    }
    size_t kept = 0;
    for (size_t i = 0; i < offers.size(); ++i) {
        if (!keep[i])
            continue;
        if (kept != i)
            offers[kept] = std::move(offers[i]);
        ++kept;
    }
    offers.erase(offers.begin() + static_cast<std::ptrdiff_t>(kept),
                 offers.end());
}

/** Cumulative Pareto set (the paper's Pareto layer, section 5.1). */
class ParetoSet
{
  public:
    ParetoSet() = default;

    /**
     * The set that `offered` offers leave when `front` holds their
     * survivors in offer order, as keepParetoFront() returns them.
     */
    ParetoSet(std::vector<DesignPoint> front, uint64_t offered)
        : points_(std::move(front)), offered_(offered)
    {}

    /**
     * Offer one design. Dominated offers are discarded; accepted
     * offers evict members they dominate.
     * @return true when the design was inserted
     */
    bool insertPoint(const DesignPoint &point);

    /** Members sorted by ascending cost. */
    std::vector<DesignPoint> sorted() const;

    const std::vector<DesignPoint> &points() const { return points_; }
    size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

    /** Total designs offered, including rejected ones. */
    uint64_t offered() const { return offered_; }

  private:
    std::vector<DesignPoint> points_;
    uint64_t offered_ = 0;
};

} // namespace pico::dse

#endif // PICO_DSE_PARETO_HPP
