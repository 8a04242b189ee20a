/**
 * @file
 * Unit tests for the AHH analytic model math (equations 4.6-4.8):
 * the set-occupancy distribution, the two collision computations and
 * their agreement, the tail series against its term-by-term form, and
 * the miss-scaling rule (equation 4.7).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/AhhModel.hpp"
#include "core/DilationModel.hpp"
#include "core/TraceModel.hpp"
#include "dse/CacheSpace.hpp"
#include "support/BitUtils.hpp"
#include "support/Logging.hpp"

namespace pico::core::ahh
{
namespace
{

TEST(SetOccupancy, SumsToOne)
{
    double uL = 50.0;
    uint32_t sets = 16;
    double total = 0.0;
    for (uint32_t a = 0; a <= 50; ++a)
        total += setOccupancyProb(uL, a, sets);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SetOccupancy, MeanIsULinesOverSets)
{
    double uL = 80.0;
    uint32_t sets = 8;
    double mean = 0.0;
    for (uint32_t a = 0; a <= 80; ++a)
        mean += a * setOccupancyProb(uL, a, sets);
    EXPECT_NEAR(mean, uL / sets, 1e-9);
}

TEST(SetOccupancy, FractionalLineCount)
{
    // The dilation model evaluates u(L) at non-integer values.
    double p = setOccupancyProb(10.5, 2, 8);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
}

TEST(SetOccupancy, ZeroBeyondPopulation)
{
    EXPECT_DOUBLE_EQ(setOccupancyProb(3.0, 5, 8), 0.0);
}

TEST(SetOccupancy, SingleSetDegenerate)
{
    EXPECT_DOUBLE_EQ(setOccupancyProb(5.0, 5, 1), 1.0);
    EXPECT_DOUBLE_EQ(setOccupancyProb(5.0, 2, 1), 0.0);
}

TEST(Collisions, ZeroWhenNoLines)
{
    EXPECT_DOUBLE_EQ(collisions(0.0, 16, 2), 0.0);
}

TEST(Collisions, NearZeroWhenCacheMuchBigger)
{
    // 10 lines into 256 sets, 4-way: collisions essentially zero.
    EXPECT_LT(collisions(10.0, 256, 4), 1e-6);
}

TEST(Collisions, LargeWhenCacheOverwhelmed)
{
    // 10000 lines into 16 sets, 1-way: nearly everything collides.
    double coll = collisions(10000.0, 16, 1);
    EXPECT_GT(coll, 10000.0 - 16.0 - 1.0);
    EXPECT_LE(coll, 10000.0);
}

TEST(Collisions, MonotoneDecreasingInAssociativity)
{
    double prev = collisions(500.0, 64, 1);
    for (uint32_t a = 2; a <= 16; ++a) {
        double cur = collisions(500.0, 64, a);
        EXPECT_LE(cur, prev) << "assoc=" << a;
        prev = cur;
    }
}

TEST(Collisions, MonotoneDecreasingInSets)
{
    double prev = collisions(500.0, 16, 2);
    for (uint32_t s = 32; s <= 1024; s *= 2) {
        double cur = collisions(500.0, s, 2);
        EXPECT_LT(cur, prev) << "sets=" << s;
        prev = cur;
    }
}

TEST(Collisions, TailSeriesMatchesDirectFormWhenWellConditioned)
{
    // In regimes where the direct form is numerically healthy the
    // two computations agree tightly.
    struct Case
    {
        double uL;
        uint32_t sets;
        uint32_t assoc;
    };
    for (const auto &c : {Case{200.0, 32, 1}, Case{200.0, 32, 2},
                          Case{1000.0, 128, 4}, Case{64.0, 16, 2},
                          Case{500.0, 64, 8}}) {
        double tail = collisions(c.uL, c.sets, c.assoc);
        double direct = collisionsDirect(c.uL, c.sets, c.assoc);
        EXPECT_NEAR(tail, direct, 1e-6 * (1.0 + direct))
            << "uL=" << c.uL << " S=" << c.sets << " A=" << c.assoc;
    }
}

TEST(Collisions, TailSeriesStableWhereDirectFormCancels)
{
    // 100 lines into 4096 sets, 8-way: Coll is astronomically small;
    // the direct form is pure cancellation noise while the tail
    // series returns a clean non-negative value.
    double tail = collisions(100.0, 4096, 8);
    EXPECT_GE(tail, 0.0);
    EXPECT_LT(tail, 1e-12);
}

TEST(Collisions, SingleSetDegenerate)
{
    EXPECT_DOUBLE_EQ(collisions(10.0, 1, 4), 6.0);
    EXPECT_DOUBLE_EQ(collisions(3.0, 1, 4), 0.0);
}

TEST(Collisions, OverloadedCacheMatchesDirectForm)
{
    // Past u(L)/S of several hundred lines per set, the first terms of
    // the tail series underflow to 0; the sum must not stop there.
    struct Case
    {
        double uL;
        uint32_t sets;
        uint32_t assoc;
    };
    for (const auto &c : {Case{5000.0, 4, 1}, Case{12000.0, 16, 1}}) {
        double tail = collisions(c.uL, c.sets, c.assoc);
        double direct = collisionsDirect(c.uL, c.sets, c.assoc);
        EXPECT_GT(tail, 0.0) << "uL=" << c.uL << " S=" << c.sets;
        EXPECT_NEAR(tail, direct, 1e-9 * direct)
            << "uL=" << c.uL << " S=" << c.sets;
    }
}

/**
 * The tail series as collisions() summed it before its terms shared
 * their per-call work: each term is S * a * setOccupancyProb(uL, a, S).
 * The historical stopping rule also stopped while the terms still
 * rose; `wait_for_peak` adds the current rule's condition.
 */
double
termByTermCollisions(double uL, uint32_t sets, uint32_t assoc,
                     bool wait_for_peak)
{
    if (uL <= 0.0)
        return 0.0;
    if (sets == 1)
        return uL > assoc ? uL - assoc : 0.0;
    double total = 0.0;
    double prev_term = HUGE_VAL;
    double s = static_cast<double>(sets);
    auto a_limit = static_cast<uint32_t>(uL) + 2;
    for (uint32_t a = assoc + 1; a <= a_limit; ++a) {
        double term = s * static_cast<double>(a) *
                      setOccupancyProb(uL, a, sets);
        total += term;
        if (term < 1e-15 * (total + 1e-300) && a > assoc + 4 &&
            (term < prev_term || !wait_for_peak))
            break;
        prev_term = term;
    }
    return std::min(total, uL);
}

struct Triple
{
    double uL;
    uint32_t sets;
    uint32_t assoc;
};

/**
 * The (u(L), S, A) triples the dilation model's estimates pass to
 * collisions() over two spaces: three per interpolated I$
 * configuration (equation 4.12) and two per U$ configuration
 * (equation 4.15), at each dilation.
 */
std::vector<Triple>
estimateTriples(const dse::CacheSpace &ispace, const dse::CacheSpace &uspace,
                const ComponentParams &ip, const ComponentParams &uip,
                const ComponentParams &udp)
{
    const double min_line = DilationModel::minLineBytes;
    std::vector<Triple> out;
    for (double d : {1.25, 1.4, 1.8, 2.5, 3.3}) {
        for (const auto &cfg : ispace.enumerate()) {
            double contracted = std::max(cfg.lineBytes / d, min_line);
            double rounded = std::round(contracted);
            if (std::abs(contracted - rounded) < 1e-9 &&
                isPowerOfTwo(static_cast<uint64_t>(rounded)))
                continue; // simulated, not interpolated
            double lower = static_cast<double>(
                uint64_t{1} << log2Floor(static_cast<uint64_t>(contracted)));
            for (double line : {lower, 2.0 * lower, contracted})
                out.push_back({ip.uLines(line / 4.0), cfg.sets, cfg.assoc});
        }
        for (const auto &cfg : uspace.enumerate()) {
            double words = cfg.lineBytes / 4.0;
            for (double dil : {1.0, d}) {
                double contracted = std::max(words / dil, min_line / 4.0);
                out.push_back({udp.uLines(words) + uip.uLines(contracted),
                               cfg.sets, cfg.assoc});
            }
        }
    }
    return out;
}

TEST(Collisions, SharedTermWorkIsBitIdenticalToTermByTermSeries)
{
    using dse::CacheSpace;
    const CacheSpace l1 = CacheSpace::defaultL1Space();
    CacheSpace classic_l2 = CacheSpace::defaultL2Space();
    CacheSpace extended_l2 = classic_l2;
    extended_l2.replacements = {cache::ReplacementPolicy::LRU,
                                cache::ReplacementPolicy::FIFO,
                                cache::ReplacementPolicy::Random};
    extended_l2.writePolicies = {cache::WritePolicy::WriteBack,
                                 cache::WritePolicy::WriteThrough};
    // rasta's parameters at 40,000 trace blocks (I, unified I, unified
    // D), then denser ones whose small caches hold thousands of lines
    // per set, where the leading terms underflow.
    struct Params
    {
        ComponentParams i, ui, ud;
    };
    const Params params[] = {
        {{958.38983050847457, 0.0, 40.14102511522632},
         {1318.2857142857142, 0.0, 44.839738964738963},
         {13470.428571428571, 0.03050367549641067, 27.249219899380481}},
        {{9500.0, 1.0, 1.0}, {20000.0, 0.5, 2.0}, {40000.0, 0.8, 1.2}},
    };
    std::vector<Triple> triples;
    for (const Params &p : params)
        for (const CacheSpace *l2 : {&classic_l2, &extended_l2}) {
            auto more = estimateTriples(l1, *l2, p.i, p.ui, p.ud);
            triples.insert(triples.end(), more.begin(), more.end());
        }
    const uint32_t table_end = logFactorialTableSize;
    triples.insert(
        triples.end(),
        {{10.3, 2, 1},  // S = 2
         {700.7, 2, 2}, // S = 2, many terms
         {3.5, 16, 4},  // u(L) < A + 1: no term
         {0.5, 8, 1},   // fractional, below one line
         {4.75, 8, 3},  // fractional, one term
         // Terms that cross the end of the log(a!) table, and terms
         // that start past it.
         {2.0 * table_end + 0.5, 2, table_end - 3},
         {3.0 * table_end + 0.5, 2, 3 * table_end / 2}});
    ASSERT_GT(triples.size(), 2000u);

    auto same_bits = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    size_t mismatches = 0;
    size_t zero_before = 0;
    for (const Triple &t : triples) {
        const double now = collisions(t.uL, t.sets, t.assoc);
        const double want =
            termByTermCollisions(t.uL, t.sets, t.assoc, true);
        const double before =
            termByTermCollisions(t.uL, t.sets, t.assoc, false);
        // The historical rule could stop while the terms rose only
        // below 1e-300; every sum it left a normal double is
        // unchanged.
        if (!same_bits(now, want) ||
            (std::isnormal(before) && !same_bits(now, before))) {
            if (++mismatches <= 5)
                ADD_FAILURE() << "uL=" << t.uL << " S=" << t.sets
                              << " A=" << t.assoc << ": " << now
                              << " vs " << want << " (was " << before
                              << ")";
        }
        if (!std::isnormal(before) && now > 1.0)
            ++zero_before;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << triples.size() << " triples";
    // The dense parameters reach the overloaded regime.
    EXPECT_GT(zero_before, 0u);
}

TEST(ScaleMisses, ProportionalScaling)
{
    EXPECT_DOUBLE_EQ(scaleMisses(1000.0, 50.0, 100.0), 2000.0);
    EXPECT_DOUBLE_EQ(scaleMisses(1000.0, 50.0, 25.0), 500.0);
}

TEST(ScaleMisses, DegenerateReferenceFallsBack)
{
    EXPECT_DOUBLE_EQ(scaleMisses(1000.0, 0.0, 10.0), 1000.0);
}

TEST(ScaleMisses, RejectsNegativeMisses)
{
    EXPECT_THROW(scaleMisses(-1.0, 1.0, 1.0), FatalError);
}

} // namespace
} // namespace pico::core::ahh
