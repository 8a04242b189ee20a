/**
 * @file
 * Unit tests for the support library: logging, RNG, bit utilities,
 * statistics accumulators and table formatting.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "support/BitUtils.hpp"
#include "support/Logging.hpp"
#include "support/Random.hpp"
#include "support/Stats.hpp"
#include "support/Table.hpp"

namespace pico
{
namespace
{

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", "x"), FatalError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "no"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "no"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs |= a.next() != b.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    uint64_t first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(99);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowZeroPanics)
{
    Rng rng(1);
    EXPECT_THROW(rng.below(0), PanicError);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GeometricMeanApproximatelyCorrect)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(6.0));
    EXPECT_NEAR(sum / n, 6.0, 0.3);
}

TEST(Rng, ZipfStaysInRangeAndIsSkewed)
{
    Rng rng(17);
    uint64_t low = 0, total = 5000;
    for (uint64_t i = 0; i < total; ++i) {
        uint64_t v = rng.zipf(1000, 1.2);
        EXPECT_LT(v, 1000u);
        if (v < 10)
            ++low;
    }
    // Zipf mass concentrates at small indices.
    EXPECT_GT(low, total / 4);
}

TEST(BitUtils, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(1023));
}

TEST(BitUtils, Log2FloorAndCeil)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(1024), 10u);
    EXPECT_EQ(log2Ceil(1025), 11u);
    EXPECT_THROW(log2Floor(0), PanicError);
}

TEST(BitUtils, AlignUpDown)
{
    EXPECT_EQ(alignUp(0, 16), 0u);
    EXPECT_EQ(alignUp(1, 16), 16u);
    EXPECT_EQ(alignUp(16, 16), 16u);
    EXPECT_EQ(alignUp(17, 16), 32u);
    EXPECT_EQ(alignDown(17, 16), 16u);
    EXPECT_THROW(alignUp(5, 3), PanicError);
}

TEST(BitUtils, BitsFor)
{
    EXPECT_EQ(bitsFor(0), 1u);
    EXPECT_EQ(bitsFor(1), 1u);
    EXPECT_EQ(bitsFor(2), 1u);
    EXPECT_EQ(bitsFor(32), 5u);
    EXPECT_EQ(bitsFor(33), 6u);
    EXPECT_EQ(bitsFor(128), 7u);
}

TEST(RunningStat, MeanVarianceExtrema)
{
    RunningStat stat;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(v);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.stddev(), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
}

TEST(WeightedDistribution, UnweightedCdf)
{
    WeightedDistribution dist;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        dist.add(v);
    EXPECT_DOUBLE_EQ(dist.fractionAtOrBelow(0.5), 0.0);
    EXPECT_DOUBLE_EQ(dist.fractionAtOrBelow(2.0), 0.5);
    EXPECT_DOUBLE_EQ(dist.fractionAtOrBelow(10.0), 1.0);
}

TEST(WeightedDistribution, WeightsShiftCdf)
{
    WeightedDistribution dist;
    dist.add(1.0, 9.0);
    dist.add(2.0, 1.0);
    EXPECT_DOUBLE_EQ(dist.fractionAtOrBelow(1.0), 0.9);
    EXPECT_DOUBLE_EQ(dist.mean(), 1.1);
}

TEST(WeightedDistribution, Quantile)
{
    WeightedDistribution dist;
    for (int i = 1; i <= 100; ++i)
        dist.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(dist.quantile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(dist.quantile(1.0), 100.0);
    EXPECT_THROW(dist.quantile(1.5), FatalError);
}

TEST(TextTable, AlignedOutputContainsCells)
{
    TextTable table("demo");
    table.setHeader({"name", "value"});
    table.addRow({"alpha", TextTable::num(1.234, 2)});
    table.addRow({"b", "2"});
    std::ostringstream oss;
    table.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.23"), std::string::npos);
}

TEST(TextTable, CsvOutput)
{
    TextTable table;
    table.setHeader({"a", "b"});
    table.addRow({"1", "2"});
    std::ostringstream oss;
    table.printCsv(oss);
    EXPECT_EQ(oss.str(), "a,b\n1,2\n");
}

} // namespace
} // namespace pico
