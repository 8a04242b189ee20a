/**
 * @file
 * Unit tests for Pareto-set accumulation and the cache design-space
 * enumeration.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dse/CacheSpace.hpp"
#include "dse/Pareto.hpp"
#include "support/Random.hpp"

namespace pico::dse
{
namespace
{

TEST(DesignPoint, DominanceDefinition)
{
    DesignPoint a{"a", 1.0, 1.0};
    DesignPoint b{"b", 2.0, 2.0};
    DesignPoint c{"c", 1.0, 2.0};
    DesignPoint d{"d", 1.0, 1.0};
    EXPECT_TRUE(a.dominates(b));
    EXPECT_TRUE(a.dominates(c));
    EXPECT_FALSE(b.dominates(a));
    // Equal points do not dominate each other.
    EXPECT_FALSE(a.dominates(d));
    EXPECT_FALSE(d.dominates(a));
}

TEST(ParetoSet, KeepsNonDominatedPoints)
{
    ParetoSet set;
    EXPECT_TRUE(set.insertPoint({"cheap-slow", 1.0, 10.0}));
    EXPECT_TRUE(set.insertPoint({"mid", 2.0, 5.0}));
    EXPECT_TRUE(set.insertPoint({"fast-dear", 4.0, 1.0}));
    EXPECT_EQ(set.size(), 3u);
}

TEST(ParetoSet, RejectsDominated)
{
    ParetoSet set;
    set.insertPoint({"good", 1.0, 1.0});
    EXPECT_FALSE(set.insertPoint({"worse", 2.0, 2.0}));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_EQ(set.offered(), 2u);
}

TEST(ParetoSet, EvictsNewlyDominated)
{
    ParetoSet set;
    set.insertPoint({"a", 2.0, 5.0});
    set.insertPoint({"b", 5.0, 2.0});
    // Dominates both.
    EXPECT_TRUE(set.insertPoint({"c", 1.0, 1.0}));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_EQ(set.points()[0].id, "c");
}

TEST(ParetoSet, NoMemberDominatedInvariant)
{
    ParetoSet set;
    // Insert a grid of designs in scrambled order.
    for (int i = 0; i < 50; ++i) {
        int k = (i * 17) % 50;
        double cost = 1.0 + (k % 10);
        double time = 1.0 + (k / 10) * (10 - (k % 10));
        set.insertPoint(
            {std::string("p").append(std::to_string(k)), cost, time});
    }
    for (const auto &a : set.points()) {
        for (const auto &b : set.points()) {
            if (&a != &b) {
                EXPECT_FALSE(a.dominates(b))
                    << a.id << " dominates " << b.id;
            }
        }
    }
}

TEST(ParetoSet, SortedByCost)
{
    ParetoSet set;
    set.insertPoint({"c", 3.0, 1.0});
    set.insertPoint({"a", 1.0, 9.0});
    set.insertPoint({"b", 2.0, 4.0});
    auto sorted = set.sorted();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0].id, "a");
    EXPECT_EQ(sorted[1].id, "b");
    EXPECT_EQ(sorted[2].id, "c");
    // Along a Pareto front, time decreases as cost increases.
    EXPECT_GT(sorted[0].time, sorted[1].time);
    EXPECT_GT(sorted[1].time, sorted[2].time);
}

/** One random coordinate: a small grid, so ties are common, or an
 *  occasional infinity or NaN. */
double
randomCoordinate(Rng &rng)
{
    switch (rng.below(40)) {
    case 0: return std::numeric_limits<double>::infinity();
    case 1: return -std::numeric_limits<double>::infinity();
    case 2: return std::numeric_limits<double>::quiet_NaN();
    case 3: return -0.0;
    default: return static_cast<double>(rng.below(8)) * 0.5;
    }
}

TEST(ParetoFront, FilterKeepsWhatInsertionKeepsInOfferOrder)
{
    auto same_bits = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    for (uint64_t seed = 1; seed <= 400; ++seed) {
        Rng rng(seed);
        std::vector<DesignPoint> offers(rng.below(120));
        for (size_t i = 0; i < offers.size(); ++i) {
            // Every fifth offer repeats an earlier one exactly.
            if (i > 0 && rng.below(5) == 0) {
                offers[i] = offers[rng.below(i)];
                offers[i].id += "'";
                continue;
            }
            offers[i].id = std::to_string(i);
            offers[i].cost = randomCoordinate(rng);
            offers[i].time = randomCoordinate(rng);
        }
        ParetoSet inserted;
        for (const auto &p : offers)
            inserted.insertPoint(p);
        std::vector<DesignPoint> front = offers;
        keepParetoFront(front);
        const ParetoSet filtered(front, offers.size());

        ASSERT_EQ(filtered.offered(), inserted.offered()) << seed;
        ASSERT_EQ(filtered.size(), inserted.size()) << "seed " << seed;
        for (size_t i = 0; i < filtered.size(); ++i) {
            const DesignPoint &a = filtered.points()[i];
            const DesignPoint &b = inserted.points()[i];
            EXPECT_EQ(a.id, b.id) << "seed " << seed << " member " << i;
            EXPECT_TRUE(same_bits(a.cost, b.cost) &&
                        same_bits(a.time, b.time))
                << "seed " << seed << " member " << i;
        }
    }
}

TEST(ParetoFront, NaNOffersSurviveAndDominateNothing)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<DesignPoint> offers = {{"slow", 4.0, 4.0},
                                       {"nan-cost", nan, 0.0},
                                       {"fast", 1.0, 1.0},
                                       {"nan-time", 0.0, nan},
                                       {"tie", 1.0, 1.0}};
    keepParetoFront(offers);
    ASSERT_EQ(offers.size(), 4u);
    EXPECT_EQ(offers[0].id, "nan-cost");
    EXPECT_EQ(offers[1].id, "fast");
    EXPECT_EQ(offers[2].id, "nan-time");
    EXPECT_EQ(offers[3].id, "tie");
}

TEST(CacheSpace, EnumerateSkipsInfeasible)
{
    CacheSpace space;
    space.sizesBytes = {1024};
    space.assocs = {1, 3};
    space.lineSizes = {32};
    auto configs = space.enumerate();
    // 1024/32 = 32 lines; 3-way needs 32 % 3 == 0: skipped.
    ASSERT_EQ(configs.size(), 1u);
    EXPECT_EQ(configs[0].sets, 32u);
}

TEST(CacheSpace, DefaultSpacesHavePaperScale)
{
    // Section 1: "20 or more possible cache designs for each of the
    // three cache types".
    EXPECT_GE(CacheSpace::defaultL1Space().enumerate().size(), 20u);
    EXPECT_GE(CacheSpace::defaultL2Space().enumerate().size(), 20u);
}

TEST(CacheSpace, DistinctLineSizesSortedUnique)
{
    CacheSpace space;
    space.sizesBytes = {4096};
    space.assocs = {1};
    space.lineSizes = {64, 16, 64, 32};
    auto lines = space.distinctLineSizes();
    EXPECT_EQ(lines, (std::vector<uint32_t>{16, 32, 64}));
}

TEST(CacheSpace, SetRanges)
{
    auto space = CacheSpace::defaultL1Space();
    EXPECT_GT(space.maxSets(), space.minSets());
    EXPECT_EQ(space.maxAssoc(), 4u);
}

} // namespace
} // namespace pico::dse
