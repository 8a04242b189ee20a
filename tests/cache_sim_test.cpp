/**
 * @file
 * Unit tests for CacheSim (reference LRU simulator) and ImpactSim
 * (the independent validation simulator), including the
 * cross-validation property of paper section 6.1.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "cache/CacheSim.hpp"
#include "cache/ImpactSim.hpp"
#include "support/Random.hpp"

namespace pico::cache
{

/**
 * Print a test parameter by its geometry, e.g. S32_A1_L32. Without
 * this, gtest prints a CacheConfig's raw bytes, two of which are
 * uninitialized padding, and the ctest ids of SimCrossValidation,
 * which carry the printed parameter, changed from build to build.
 */
static void
PrintTo(const CacheConfig &cfg, std::ostream *os)
{
    *os << "S" << cfg.sets << "_A" << cfg.assoc << "_L" << cfg.lineBytes;
}

namespace
{

TEST(CacheSim, ColdMissThenHit)
{
    CacheSim sim(CacheConfig{4, 1, 16});
    EXPECT_FALSE(sim.access(0x100).hit);
    EXPECT_TRUE(sim.access(0x100).hit);
    EXPECT_TRUE(sim.access(0x10c).hit); // same 16B line
    EXPECT_EQ(sim.misses(), 1u);
    EXPECT_EQ(sim.accesses(), 3u);
}

TEST(CacheSim, DirectMappedConflict)
{
    // 4 sets x 16B: addresses 0x000 and 0x040 share set 0.
    CacheSim sim(CacheConfig{4, 1, 16});
    sim.access(0x000);
    sim.access(0x040);
    EXPECT_FALSE(sim.access(0x000).hit); // evicted by 0x040
    EXPECT_EQ(sim.misses(), 3u);
}

TEST(CacheSim, TwoWayAvoidsThatConflict)
{
    CacheSim sim(CacheConfig{4, 2, 16});
    sim.access(0x000);
    sim.access(0x040);
    EXPECT_TRUE(sim.access(0x000).hit);
}

TEST(CacheSim, LruReplacementOrder)
{
    // One set, 2-way: A B A C -> C evicts B, not A.
    CacheSim sim(CacheConfig{1, 2, 16});
    sim.access(0x000); // A
    sim.access(0x010); // B
    sim.access(0x000); // A (MRU)
    sim.access(0x020); // C evicts B
    EXPECT_TRUE(sim.access(0x000).hit);
    EXPECT_FALSE(sim.access(0x010).hit);
}

TEST(CacheSim, VictimReported)
{
    CacheSim sim(CacheConfig{1, 1, 16});
    auto first = sim.access(0x000);
    EXPECT_FALSE(first.hasVictim);
    auto second = sim.access(0x010);
    EXPECT_TRUE(second.hasVictim);
    EXPECT_EQ(second.victimLine, 0u);
}

TEST(CacheSim, CompulsoryMissTracking)
{
    CacheSim sim(CacheConfig{1, 1, 16}, true);
    sim.access(0x000);
    sim.access(0x010);
    sim.access(0x000); // conflict miss, not compulsory
    EXPECT_EQ(sim.misses(), 3u);
    EXPECT_EQ(sim.compulsoryMisses(), 2u);
}

TEST(CacheSim, InvalidateLineForcesMiss)
{
    CacheSim sim(CacheConfig{4, 2, 16});
    sim.access(0x100);
    sim.invalidateLine(0x100 / 16);
    EXPECT_FALSE(sim.access(0x100).hit);
}

TEST(CacheSim, InvalidateRangeCoversMultipleLines)
{
    CacheSim sim(CacheConfig{16, 2, 16});
    sim.access(0x100);
    sim.access(0x110);
    sim.access(0x120);
    sim.invalidateRange(0x100, 0x120); // lines 0x100 and 0x110
    EXPECT_FALSE(sim.access(0x100).hit);
    EXPECT_FALSE(sim.access(0x110).hit);
    EXPECT_TRUE(sim.access(0x120).hit);
}

TEST(CacheSim, ResetClearsEverything)
{
    CacheSim sim(CacheConfig{4, 1, 16});
    sim.access(0x000);
    sim.reset();
    EXPECT_EQ(sim.accesses(), 0u);
    EXPECT_EQ(sim.misses(), 0u);
    EXPECT_FALSE(sim.access(0x000).hit);
}

TEST(CacheSim, MissRate)
{
    CacheSim sim(CacheConfig{64, 1, 16});
    for (int i = 0; i < 10; ++i)
        sim.access(static_cast<uint64_t>(i) * 16);
    for (int i = 0; i < 10; ++i)
        sim.access(static_cast<uint64_t>(i) * 16);
    EXPECT_DOUBLE_EQ(sim.missRate(), 0.5);
}

TEST(ImpactSim, AgreesOnSimpleSequence)
{
    CacheConfig cfg{4, 2, 16};
    CacheSim a(cfg);
    ImpactSim b(cfg);
    std::vector<uint64_t> addrs = {0x000, 0x040, 0x000, 0x020,
                                   0x060, 0x040, 0x000};
    for (auto addr : addrs) {
        a.access(addr);
        b.access(addr);
    }
    EXPECT_EQ(a.misses(), b.misses());
}

/**
 * Section 6.1 cross-validation: the two independently implemented
 * simulators produce identical miss counts over random traces and a
 * range of configurations.
 */
class SimCrossValidation
    : public ::testing::TestWithParam<CacheConfig>
{};

TEST_P(SimCrossValidation, IdenticalMissCounts)
{
    CacheConfig cfg = GetParam();
    CacheSim ref(cfg);
    ImpactSim alt(cfg);
    Rng rng(0xc0ffee ^ cfg.sets ^ cfg.assoc ^ cfg.lineBytes);
    for (int i = 0; i < 50000; ++i) {
        // Mixture of a hot region and a cold wide region.
        uint64_t addr = rng.coin(0.7)
                            ? rng.below(1 << 12)
                            : rng.below(1 << 20);
        addr &= ~3ULL;
        bool write = rng.coin(0.3);
        ref.access(addr, write);
        alt.access(addr, write);
    }
    EXPECT_EQ(ref.misses(), alt.misses());
    EXPECT_EQ(ref.accesses(), alt.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimCrossValidation,
    ::testing::Values(CacheConfig{32, 1, 32},   // paper small D$
                      CacheConfig{256, 2, 32},  // paper large D$
                      CacheConfig{128, 2, 64},  // paper small U$
                      CacheConfig{512, 4, 64},  // paper large U$
                      CacheConfig{1, 8, 16},    // fully associative
                      CacheConfig{64, 3, 16})); // odd associativity

TEST(ImpactSim, WriteBufferModelDivergesSlightly)
{
    // With the write-buffer model on, repeated missing stores to the
    // same line may merge; miss counts may only ever be lower.
    CacheConfig cfg{8, 1, 16};
    CacheSim ref(cfg);
    ImpactSim alt(cfg, true);
    Rng rng(42);
    for (int i = 0; i < 20000; ++i) {
        uint64_t addr = rng.below(1 << 10) & ~3ULL;
        bool write = rng.coin(0.5);
        ref.access(addr, write);
        alt.access(addr, write);
    }
    EXPECT_LE(alt.misses(), ref.misses());
    // ... but stays close (paper: "virtually identical").
    double rel = static_cast<double>(ref.misses() - alt.misses()) /
                 static_cast<double>(ref.misses());
    EXPECT_LT(rel, 0.05);
}

} // namespace
} // namespace pico::cache
