/**
 * @file
 * Differential tests: the single-pass (Cheetah) simulator against
 * the reference per-configuration CacheSim, the core invariant the
 * whole one-pass evaluation rests on. SinglePassSim claims that one
 * sweep reproduces, for every (sets, assoc) in its ranges, exactly
 * the miss count a dedicated LRU simulator of that one configuration
 * would report — here each claim is checked against an independent
 * implementation, on randomized traces, serial and parallel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/CacheSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "dse/Evaluators.hpp"
#include "support/Random.hpp"
#include "support/ThreadPool.hpp"
#include "trace/ColumnarTrace.hpp"

namespace pico
{
namespace
{

/** 1k-access random trace with some locality, one per stream id. */
std::vector<uint64_t>
randomTrace(uint64_t seed, uint64_t stream)
{
    Rng rng = Rng::forStream(seed, stream);
    std::vector<uint64_t> out;
    out.reserve(1000);
    uint64_t pc = 0;
    for (int i = 0; i < 1000; ++i) {
        if (rng.coin(0.2))
            pc = rng.below(1 << 14) & ~3ULL;
        out.push_back(pc);
        pc += 4;
    }
    return out;
}

/**
 * Exhaustive cross-check of one SinglePassSim against per-config
 * CacheSim runs over its whole covered (sets, assoc) range.
 */
void
crossCheck(uint32_t line, uint32_t min_sets, uint32_t max_sets,
           uint32_t max_assoc, const std::vector<uint64_t> &trace)
{
    cache::SinglePassSim fast(line, min_sets, max_sets, max_assoc);
    for (auto addr : trace)
        fast.access(addr);

    for (uint32_t sets = min_sets; sets <= max_sets; sets *= 2) {
        for (uint32_t assoc = 1; assoc <= max_assoc; ++assoc) {
            cache::CacheSim ref(
                cache::CacheConfig{sets, assoc, line});
            for (auto addr : trace)
                ref.access(addr);
            EXPECT_EQ(fast.misses(sets, assoc), ref.misses())
                << "line=" << line << " sets=" << sets
                << " assoc=" << assoc;
        }
    }
}

TEST(Differential, SinglePassMatchesCacheSimOnRandomTraces)
{
    // Several independent random traces; every (sets, assoc) of the
    // sweep is checked against a direct simulation.
    for (uint64_t stream = 0; stream < 8; ++stream)
        crossCheck(32, 16, 256, 4,
                   randomTrace(20260805, stream));
}

TEST(Differential, SinglePassMatchesCacheSimAcrossLineSizes)
{
    for (uint32_t line : {4u, 8u, 16u, 64u, 128u})
        crossCheck(line, 8, 64, 8, randomTrace(7, line));
}

TEST(Differential, SinglePassMatchesCacheSimOnAdversarialTraces)
{
    // Pathological patterns: pure thrash of one set, and a cyclic
    // working set one line larger than the associativity.
    std::vector<uint64_t> thrash;
    for (int i = 0; i < 1000; ++i)
        thrash.push_back(static_cast<uint64_t>(i % 5) * 32 * 16);
    crossCheck(32, 16, 64, 4, thrash);

    std::vector<uint64_t> cyclic;
    for (int i = 0; i < 1000; ++i)
        cyclic.push_back(static_cast<uint64_t>(i % 3) * 4096);
    crossCheck(16, 8, 128, 2, cyclic);
}

TEST(Differential, SimBankParallelSweepMatchesDirectSims)
{
    // The parallel per-line-size sweep must agree with direct
    // CacheSim runs for every configuration the bank covers — this
    // ties the thread-pool path itself to the external oracle.
    dse::CacheSpace space;
    space.sizesBytes = {2048, 4096, 8192};
    space.assocs = {1, 2, 4};
    space.lineSizes = {16, 32, 64};

    auto addrs = randomTrace(321, 0);
    trace::ColumnarTraceBuffer cols;
    for (auto addr : addrs)
        cols(trace::Access{addr, true, false});

    support::ThreadPool pool(4);
    for (auto coverage : {dse::SimBank::Coverage::ContractedLines,
                          dse::SimBank::Coverage::Enumerated}) {
        dse::SimBank bank(space, coverage);
        bank.simulate(cols, &pool);

        for (const auto &cfg : space.enumerate()) {
            cache::CacheSim ref(cfg);
            for (auto addr : addrs)
                ref.access(addr);
            EXPECT_EQ(bank.misses(cfg),
                      static_cast<double>(ref.misses()))
                << cfg.name();
        }
    }
}

TEST(Differential, AccessBlockMatchesPerAccessCalls)
{
    // The block-wise SoA entry point (what the columnar replay
    // feeds) against the one-address-at-a-time entry point, same
    // addresses, every covered configuration.
    auto trace = randomTrace(987, 1);
    cache::SinglePassSim one(32, 16, 256, 4);
    cache::SinglePassSim block(32, 16, 256, 4);
    for (auto addr : trace)
        one.access(addr);
    // Feed in uneven chunks so block boundaries land mid-run.
    size_t i = 0;
    for (size_t chunk : {7ul, 100ul, 1ul, 500ul}) {
        block.accessBlock(trace.data() + i,
                          std::min(chunk, trace.size() - i));
        i += std::min(chunk, trace.size() - i);
    }
    block.accessBlock(trace.data() + i, trace.size() - i);

    for (const auto &cfg : one.coveredConfigs())
        EXPECT_EQ(block.misses(cfg), one.misses(cfg)) << cfg.name();
}

TEST(Differential, ColumnarReplayMatchesRowReplayAcrossCacheSpace)
{
    // The tentpole claim: the fused columnar sweep produces, for
    // every configuration in the cache space, exactly the miss
    // count of a row-wise replay (one access() per reference into
    // a fresh simulator of the same line size) — and both match the
    // external per-config oracle.
    dse::CacheSpace space;
    space.sizesBytes = {2048, 4096, 8192, 16384};
    space.assocs = {1, 2, 4};
    space.lineSizes = {8, 16, 32, 64};

    auto addrs = randomTrace(20260808, 2);
    trace::ColumnarTraceBuffer cols(/*block_capacity=*/128);
    for (auto addr : addrs)
        cols(trace::Access{addr, true, false});

    dse::SimBank col_bank(space);
    col_bank.simulate(cols, nullptr);

    for (const auto &cfg : space.enumerate()) {
        cache::SinglePassSim rows(cfg.lineBytes, space.minSets(),
                                  space.maxSets(), space.maxAssoc());
        cache::CacheSim ref(cfg);
        for (auto addr : addrs) {
            rows.access(addr);
            ref.access(addr);
        }
        EXPECT_EQ(col_bank.misses(cfg),
                  static_cast<double>(rows.misses(cfg)))
            << cfg.name();
        EXPECT_EQ(col_bank.misses(cfg),
                  static_cast<double>(ref.misses()))
            << cfg.name();
    }
}

TEST(Differential, ColumnarSweepIsJobCountInvariant)
{
    // Serial fused, 2 jobs, 8 jobs: identical misses everywhere.
    dse::CacheSpace space;
    space.sizesBytes = {2048, 8192};
    space.assocs = {1, 2, 4};
    space.lineSizes = {16, 32, 64};

    trace::ColumnarTraceBuffer cols;
    for (auto addr : randomTrace(555, 3))
        cols(trace::Access{addr, false, false});

    for (auto coverage : {dse::SimBank::Coverage::ContractedLines,
                          dse::SimBank::Coverage::Enumerated}) {
        dse::SimBank serial(space, coverage);
        serial.simulate(cols, nullptr);
        for (unsigned jobs : {2u, 8u}) {
            support::ThreadPool pool(jobs);
            dse::SimBank parallel(space, coverage);
            parallel.simulate(cols, &pool);
            for (const auto &cfg : space.enumerate())
                EXPECT_EQ(parallel.misses(cfg), serial.misses(cfg))
                    << cfg.name() << " jobs=" << jobs;
        }
    }
}

} // namespace
} // namespace pico
