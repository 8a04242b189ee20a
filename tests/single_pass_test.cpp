/**
 * @file
 * Tests for the Cheetah-style single-pass simulator: hand-checked
 * cases plus the central property that one pass reproduces, for every
 * covered (sets, assoc) pair, exactly the misses of a dedicated
 * single-configuration simulation — and, when it counts write-backs,
 * exactly its write-back and write-through traffic, fed per
 * reference or in blocks that split store runs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/CacheSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "support/Logging.hpp"
#include "support/Random.hpp"

#include "PolicySims.hpp"

namespace pico::cache
{
namespace
{

TEST(SinglePassSim, RejectsBadRanges)
{
    EXPECT_THROW(SinglePassSim(24, 16, 64, 4), FatalError); // line
    EXPECT_THROW(SinglePassSim(32, 12, 64, 4), FatalError); // sets
    EXPECT_THROW(SinglePassSim(32, 64, 16, 4), FatalError); // order
    EXPECT_THROW(SinglePassSim(32, 16, 64, 0), FatalError); // assoc
    // A dirty byte must hold maxAssoc + 1.
    EXPECT_THROW(SinglePassSim(32, 1, 2, 255, true), FatalError);
    EXPECT_NO_THROW(SinglePassSim(32, 1, 2, 254, true));
    EXPECT_NO_THROW(SinglePassSim(32, 1, 2, 255));
    // Write-backs are answered only when counted.
    EXPECT_THROW(SinglePassSim(32, 16, 64, 4).writebacks(16, 1),
                 FatalError);
}

TEST(SinglePassSim, SimpleHitMissAccounting)
{
    SinglePassSim sim(16, 1, 1, 2);
    sim.access(0x000); // miss
    sim.access(0x000); // hit at distance 0
    sim.access(0x010); // miss
    sim.access(0x000); // hit at distance 1
    EXPECT_EQ(sim.accesses(), 4u);
    // Direct-mapped (1 set, 1 way): distance-1 hit becomes a miss.
    EXPECT_EQ(sim.misses(1, 1), 3u);
    // 2-way: both re-references hit.
    EXPECT_EQ(sim.misses(1, 2), 2u);
}

TEST(SinglePassSim, MissesMonotoneInAssociativity)
{
    SinglePassSim sim(32, 8, 64, 8);
    Rng rng(1234);
    for (int i = 0; i < 30000; ++i)
        sim.access(rng.below(1 << 16) & ~3ULL);
    for (uint32_t sets = 8; sets <= 64; sets *= 2) {
        for (uint32_t a = 2; a <= 8; ++a)
            EXPECT_LE(sim.misses(sets, a), sim.misses(sets, a - 1))
                << "sets=" << sets << " assoc=" << a;
    }
}

TEST(SinglePassSim, MissesMonotoneInCacheSizeAtFixedAssoc)
{
    // For LRU set-associative caches of the same line size and
    // associativity, more sets never increases misses on the same
    // trace only under set-refinement; verify empirically on a
    // random trace (holds for uniformly spread addresses).
    SinglePassSim sim(32, 8, 128, 4);
    Rng rng(99);
    for (int i = 0; i < 40000; ++i)
        sim.access(rng.below(1 << 15) & ~3ULL);
    for (uint32_t sets = 16; sets <= 128; sets *= 2)
        EXPECT_LE(sim.misses(sets, 2), sim.misses(sets / 2, 2));
}

TEST(SinglePassSim, OutOfRangeQueriesRejected)
{
    SinglePassSim sim(32, 16, 64, 4);
    EXPECT_THROW(sim.misses(8, 2), FatalError);
    EXPECT_THROW(sim.misses(128, 2), FatalError);
    EXPECT_THROW(sim.misses(32, 5), FatalError);
    EXPECT_THROW(sim.misses(24, 2), FatalError);
}

TEST(SinglePassSim, CoveredConfigsEnumeration)
{
    SinglePassSim sim(32, 16, 64, 2);
    auto configs = sim.coveredConfigs();
    // 3 set counts x 2 associativities.
    EXPECT_EQ(configs.size(), 6u);
    for (const auto &cfg : configs)
        EXPECT_TRUE(sim.covers(cfg));
}

/**
 * Property: single-pass results equal per-configuration simulation
 * for every covered configuration, over several trace shapes.
 */
class SinglePassEquivalence : public ::testing::TestWithParam<int>
{
  protected:
    std::vector<uint64_t>
    makeTrace(int shape, int length)
    {
        Rng rng(777 + static_cast<uint64_t>(shape));
        std::vector<uint64_t> out;
        out.reserve(static_cast<size_t>(length));
        uint64_t cursor = 0;
        for (int i = 0; i < length; ++i) {
            uint64_t addr = 0;
            switch (shape) {
              case 0: // uniform random
                addr = rng.below(1 << 16);
                break;
              case 1: // sequential with occasional jumps
                cursor = rng.coin(0.05) ? rng.below(1 << 16)
                                        : cursor + 4;
                addr = cursor;
                break;
              case 2: // hot/cold mixture
                addr = rng.coin(0.8) ? rng.below(1 << 10)
                                     : rng.below(1 << 18);
                break;
              default: // strided
                cursor += 128;
                addr = cursor % (1 << 15);
                break;
            }
            out.push_back(addr & ~3ULL);
        }
        return out;
    }
};

TEST_P(SinglePassEquivalence, MatchesDirectSimulation)
{
    auto addrs = makeTrace(GetParam(), 20000);

    SinglePassSim fast(16, 4, 64, 4);
    for (auto addr : addrs)
        fast.access(addr);

    for (uint32_t sets = 4; sets <= 64; sets *= 2) {
        for (uint32_t assoc = 1; assoc <= 4; ++assoc) {
            CacheSim slow(CacheConfig{sets, assoc, 16});
            for (auto addr : addrs)
                slow.access(addr);
            EXPECT_EQ(fast.misses(sets, assoc), slow.misses())
                << "sets=" << sets << " assoc=" << assoc;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(TraceShapes, SinglePassEquivalence,
                         ::testing::Values(0, 1, 2, 3));

/**
 * Store-heavy stream with locality: a walk over 16 KB that jumps a
 * fifth of the time, with 45% stores.
 */
std::vector<trace::Access>
storeHeavyTrace(uint64_t stream)
{
    Rng rng = Rng::forStream(20261020, stream);
    std::vector<trace::Access> out;
    uint64_t pc = 0;
    for (int i = 0; i < 1500; ++i) {
        if (rng.coin(0.2))
            pc = rng.below(1 << 14) & ~3ULL;
        out.push_back({pc, false, rng.coin(0.45)});
        pc += 4 * (1 + rng.below(3));
    }
    return out;
}

/**
 * One rectangle of the kernel against the oracle: a write-back
 * counting simulator fed per reference and one fed in `chunks`, plus
 * a filter-only one fed in `chunks`, must match one CacheSim pass per
 * (sets, assoc) and write policy — misses, write-back traffic and
 * write-through traffic.
 */
void
expectKernelMatchesOracle(uint32_t line, uint32_t min_sets,
                          uint32_t max_sets, uint32_t max_assoc,
                          const std::vector<trace::Access> &refs,
                          const std::vector<size_t> &chunks)
{
    SinglePassSim one(line, min_sets, max_sets, max_assoc, true);
    for (const auto &a : refs)
        one(a);
    SinglePassSim blocks(line, min_sets, max_sets, max_assoc, true);
    testutil::feedBlocks(blocks, refs, chunks);
    SinglePassSim filter_only(line, min_sets, max_sets, max_assoc);
    testutil::feedBlocks(filter_only, refs, chunks);
    EXPECT_FALSE(filter_only.countsWritebacks());

    for (uint32_t sets = min_sets; sets <= max_sets; sets *= 2) {
        for (uint32_t assoc = 1; assoc <= max_assoc; ++assoc) {
            CacheConfig wb{sets, assoc, line};
            CacheConfig wt = wb;
            wt.write = WritePolicy::WriteThrough;
            CacheSim wb_ref(wb), wt_ref(wt);
            for (const auto &a : refs) {
                wb_ref(a);
                wt_ref(a);
            }
            for (const SinglePassSim *sim : {&one, &blocks, &filter_only})
                EXPECT_EQ(sim->misses(sets, assoc), wb_ref.misses())
                    << wb.name();
            EXPECT_EQ(one.writebacks(sets, assoc), wb_ref.writeTraffic())
                << wb.name();
            EXPECT_EQ(blocks.writebacks(sets, assoc), wb_ref.writeTraffic())
                << wb.name() << " (blocks)";
            EXPECT_EQ(one.stores(), wt_ref.writeTraffic()) << wt.name();
            EXPECT_EQ(blocks.stores(), wt_ref.writeTraffic())
                << wt.name() << " (blocks)";
        }
    }
}

/** Both rectangles the kernel suite checks. */
void
expectRectanglesMatchOracle(const std::vector<trace::Access> &refs,
                            const std::vector<size_t> &chunks)
{
    expectKernelMatchesOracle(32, 1, 64, 4, refs, chunks);
    expectKernelMatchesOracle(16, 4, 128, 8, refs, chunks);
}

TEST(SinglePassWritebacks, MatchOracleOnStoreHeavyStreams)
{
    for (uint64_t stream = 0; stream < 16; ++stream) {
        SCOPED_TRACE(stream);
        expectRectanglesMatchOracle(storeHeavyTrace(stream),
                                    {13, 1, 64, 7, 250, 3});
    }
}

TEST(SinglePassWritebacks, MatchOracleWhenStoreRunsStraddleBlocks)
{
    // Ten-record blocks split same-line runs, some of which store
    // only after the boundary: the store opens the next block on the
    // previous block's last line.
    for (uint64_t seed : {8080u, 5150u}) {
        const auto refs = testutil::runHeavyTrace(seed, 10, 2000);
        expectRectanglesMatchOracle(
            refs, std::vector<size_t>(refs.size() / 10, 10));
    }
}

TEST(SinglePassWritebacks, MatchOracleWhenEveryReHitIsAtDepthZero)
{
    // Phases of 64 new lines, one per set at the smallest set count
    // (64), each line referenced four times in round-robin order with
    // stores in the later rounds. Every reference but a line's first
    // hits at depth 0 of its set at 64 sets, so the set-refinement
    // filter drops it there unless it stores to a line not yet dirty
    // at every associativity; each phase evicts the last one's lines.
    std::vector<trace::Access> refs;
    Rng rng = Rng::forStream(77, 0);
    for (uint64_t phase = 0; phase < 12; ++phase)
        for (int round = 0; round < 4; ++round)
            for (uint64_t set = 0; set < 64; ++set)
                refs.push_back({((phase * 64 + set) * 32) | 4 * rng.below(8),
                                false, round > 1 && rng.coin(0.5)});
    for (const std::vector<size_t> &chunks :
         {std::vector<size_t>{13, 1, 64, 7, 250, 3},
          std::vector<size_t>(refs.size() / 10, 10)}) {
        expectKernelMatchesOracle(32, 64, 1024, 4, refs, chunks);
        expectKernelMatchesOracle(32, 64, 256, 2, refs, chunks);
    }
}

TEST(SinglePassWritebacks, MatchOracleWhenNoReferenceIsAtDepthZero)
{
    // Eight lines in one set at every simulated set count, never the
    // same line twice in a row: every reference meets another line
    // above it in its set, so none leaves the sweep early.
    std::vector<trace::Access> refs;
    Rng rng = Rng::forStream(78, 0);
    uint64_t prev = 8;
    for (int i = 0; i < 3000; ++i) {
        uint64_t j = rng.below(8);
        if (j == prev)
            j = (j + 1) % 8;
        prev = j;
        refs.push_back({j * 256 * 32, false, rng.coin(0.4)});
    }
    for (const std::vector<size_t> &chunks :
         {std::vector<size_t>{13, 1, 64, 7, 250, 3},
          std::vector<size_t>(refs.size() / 10, 10)}) {
        expectKernelMatchesOracle(32, 1, 256, 8, refs, chunks);
        expectKernelMatchesOracle(32, 16, 64, 4, refs, chunks);
    }
}

} // namespace
} // namespace pico::cache
