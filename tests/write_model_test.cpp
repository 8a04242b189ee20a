/**
 * @file
 * Property and fuzz tests for the write model: on generated and
 * fuzzed traces, write-back traffic never exceeds misses or stores
 * (a writeback rides a dirty eviction; a line is dirty only after a
 * store since install), write-through traffic equals the store count
 * exactly, invalidation conserves dirty lines, and the result.writes
 * verifier rule accepts exactly the counts the simulators produce.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cache/CacheSim.hpp"
#include "cache/Policy.hpp"
#include "cache/SetResidentSim.hpp"
#include "support/Random.hpp"
#include "trace/Access.hpp"
#include "verify/Diagnostics.hpp"
#include "verify/ResultVerifier.hpp"

namespace pico
{
namespace
{

using cache::ReplacementPolicy;
using cache::WritePolicy;

constexpr ReplacementPolicy kPolicies[] = {ReplacementPolicy::LRU,
                                           ReplacementPolicy::FIFO,
                                           ReplacementPolicy::Random};

/**
 * Fuzzed trace: random length, address range, alignment and write
 * fraction, all drawn from the stream — wilder than the structured
 * traces of the differential suite.
 */
std::vector<trace::Access>
fuzzTrace(uint64_t seed, uint64_t stream)
{
    Rng rng = Rng::forStream(seed, stream);
    size_t n = 100 + rng.below(2000);
    uint64_t span = 1ULL << (8 + rng.below(10)); // 256B..128KB
    double write_frac = rng.uniform();           // 0..100% stores
    std::vector<trace::Access> out;
    out.reserve(n);
    uint64_t pc = rng.below(span) & ~3ULL;
    for (size_t i = 0; i < n; ++i) {
        if (rng.coin(0.3))
            pc = rng.below(span) & ~3ULL;
        out.push_back({pc, false, rng.coin(write_frac)});
        pc += 4 * (1 + rng.below(4));
    }
    return out;
}

/** Every (sets, assoc) with sets in [min, max] and assoc <= max. */
std::vector<cache::SetResidentSim::Geometry>
rectangle(uint32_t min_sets, uint32_t max_sets, uint32_t max_assoc)
{
    std::vector<cache::SetResidentSim::Geometry> out;
    for (uint32_t sets = min_sets; sets <= max_sets; sets *= 2)
        for (uint32_t assoc = 1; assoc <= max_assoc; ++assoc)
            out.push_back({sets, assoc});
    return out;
}

TEST(WriteModel, ConservationHoldsOnFuzzedTraces)
{
    // For every fuzzed trace, policy and geometry: writebacks are
    // bounded by misses AND stores, write-through traffic is the
    // store count exactly, and the verifier rule agrees.
    for (uint64_t stream = 0; stream < 24; ++stream) {
        auto refs = fuzzTrace(20260808, stream);
        uint64_t stores = 0;
        for (const auto &a : refs)
            stores += a.isWrite ? 1 : 0;

        for (ReplacementPolicy policy : kPolicies) {
            cache::SetResidentSim sim(16, rectangle(4, 16, 3), policy);
            for (const auto &a : refs)
                sim(a);
            EXPECT_EQ(sim.stores(), stores);
            for (uint32_t sets = 4; sets <= 16; sets *= 2) {
                for (uint32_t assoc = 1; assoc <= 3; ++assoc) {
                    uint64_t misses = sim.misses(sets, assoc);
                    uint64_t wb = sim.writebacks(sets, assoc);
                    EXPECT_LE(wb, misses)
                        << "stream=" << stream << " sets=" << sets;
                    EXPECT_LE(wb, stores)
                        << "stream=" << stream << " sets=" << sets;

                    verify::Diagnostics diags;
                    EXPECT_TRUE(verify::verifyWriteModel(
                        static_cast<double>(wb),
                        static_cast<double>(misses),
                        static_cast<double>(stores),
                        WritePolicy::WriteBack, "fuzz", diags));
                    EXPECT_TRUE(verify::verifyWriteModel(
                        static_cast<double>(stores),
                        static_cast<double>(misses),
                        static_cast<double>(stores),
                        WritePolicy::WriteThrough, "fuzz", diags));
                }
            }
        }
    }
}

TEST(WriteModel, WriteThroughTrafficIsExactlyTheStoreCount)
{
    for (uint64_t stream = 0; stream < 8; ++stream) {
        auto refs = fuzzTrace(7, stream);
        uint64_t stores = 0;
        for (const auto &a : refs)
            stores += a.isWrite ? 1 : 0;
        for (ReplacementPolicy policy : kPolicies) {
            cache::CacheConfig cfg{8, 2, 16, 1, policy,
                                   WritePolicy::WriteThrough};
            cache::CacheSim sim(cfg);
            for (const auto &a : refs)
                sim(a);
            EXPECT_EQ(sim.writeTraffic(), stores);
            // Write-through leaves nothing dirty: no writebacks.
            EXPECT_EQ(sim.writebacks(), 0u);
        }
    }
}

TEST(WriteModel, ReadOnlyTraceGeneratesNoWriteTraffic)
{
    auto refs = fuzzTrace(99, 0);
    for (auto &a : refs)
        a.isWrite = false;
    for (ReplacementPolicy policy : kPolicies) {
        cache::SetResidentSim sim(16, rectangle(4, 16, 2), policy);
        for (const auto &a : refs)
            sim(a);
        EXPECT_EQ(sim.stores(), 0u);
        for (uint32_t sets = 4; sets <= 16; sets *= 2)
            for (uint32_t assoc = 1; assoc <= 2; ++assoc)
                EXPECT_EQ(sim.writebacks(sets, assoc), 0u);

        cache::CacheConfig cfg{8, 2, 16, 1, policy,
                               WritePolicy::WriteBack};
        cache::CacheSim ref(cfg);
        for (const auto &a : refs)
            ref(a);
        EXPECT_EQ(ref.writeTraffic(), 0u);
    }
}

TEST(WriteModel, InvalidationWritesBackDirtyLinesExactlyOnce)
{
    // A dirty line flushed by back-invalidation is written back once
    // and only once: re-invalidating, or evicting the slot later,
    // must not write it again.
    cache::CacheConfig cfg{4, 2, 16};
    cache::CacheSim sim(cfg);
    sim.access(0x1000, /*write=*/true);
    EXPECT_EQ(sim.writebacks(), 0u);
    sim.invalidateLine(0x1000 / 16);
    EXPECT_EQ(sim.writebacks(), 1u);
    sim.invalidateLine(0x1000 / 16);
    EXPECT_EQ(sim.writebacks(), 1u);

    // A clean line invalidates silently.
    sim.access(0x2000, /*write=*/false);
    sim.invalidateLine(0x2000 / 16);
    EXPECT_EQ(sim.writebacks(), 1u);

    // Repeated stores to a resident line stay one writeback: dirty
    // is a bit, not a counter.
    sim.access(0x3000, true);
    sim.access(0x3000, true);
    sim.access(0x3004, true);
    sim.invalidateRange(0x3000, 0x3010);
    EXPECT_EQ(sim.writebacks(), 2u);
}

TEST(WriteModel, DirtyBitSurvivesHitsUnderEveryPolicy)
{
    // Install clean (load miss), dirty on a later store hit, then
    // force the eviction: exactly one writeback under write-back.
    // This is the scenario that outlaws an MRU shortcut that drops
    // stores in the set-resident simulator — the store hit must
    // reach the bank (accessBlock's run folding carries it).
    for (ReplacementPolicy policy : kPolicies) {
        cache::SetResidentSim sim(16, {{1, 1}}, policy);
        sim.access(0x000, false); // install clean
        sim.access(0x000, true);  // dirty on hit
        sim.access(0x100, false); // evict -> writeback
        EXPECT_EQ(sim.writebacks(1, 1), 1u)
            << cache::replacementName(policy);

        cache::CacheConfig cfg{1, 1, 16, 1, policy,
                               WritePolicy::WriteBack};
        cache::CacheSim ref(cfg);
        ref.access(0x000, false);
        ref.access(0x000, true);
        ref.access(0x100, false);
        EXPECT_EQ(ref.writebacks(), 1u)
            << cache::replacementName(policy);
    }
}

TEST(WriteModel, VerifierRejectsImpossibleTraffic)
{
    verify::Diagnostics diags;
    // Write-back traffic above the miss count is impossible.
    EXPECT_FALSE(verify::verifyWriteModel(
        11.0, 10.0, 100.0, WritePolicy::WriteBack, "bad", diags));
    // ... as is write-back traffic above the store count.
    EXPECT_FALSE(verify::verifyWriteModel(
        6.0, 10.0, 5.0, WritePolicy::WriteBack, "bad", diags));
    // Write-through traffic must equal stores exactly.
    EXPECT_FALSE(verify::verifyWriteModel(
        4.0, 10.0, 5.0, WritePolicy::WriteThrough, "bad", diags));
    // Negative and non-finite traffic are always errors.
    EXPECT_FALSE(verify::verifyWriteModel(
        -1.0, 10.0, 5.0, WritePolicy::WriteBack, "bad", diags));
    EXPECT_FALSE(verify::verifyWriteModel(
        std::numeric_limits<double>::quiet_NaN(), 10.0, 5.0,
        WritePolicy::WriteThrough, "bad", diags));
    EXPECT_EQ(diags.errorCount(), 5u);

    // And accepts a consistent write-back cell.
    verify::Diagnostics ok;
    EXPECT_TRUE(verify::verifyWriteModel(
        5.0, 10.0, 8.0, WritePolicy::WriteBack, "good", ok));
    EXPECT_TRUE(ok.clean());
}

TEST(WriteModel, ResetRestoresDeterminism)
{
    // reset() must restore the victim stream too, or a reused
    // random-policy oracle would diverge from a fresh one.
    auto refs = fuzzTrace(1234, 5);
    cache::CacheConfig cfg{8, 4, 16, 1, ReplacementPolicy::Random,
                           WritePolicy::WriteBack};
    cache::CacheSim sim(cfg);
    for (const auto &a : refs)
        sim(a);
    uint64_t misses = sim.misses();
    uint64_t wb = sim.writebacks();
    sim.reset();
    for (const auto &a : refs)
        sim(a);
    EXPECT_EQ(sim.misses(), misses);
    EXPECT_EQ(sim.writebacks(), wb);
}

} // namespace
} // namespace pico
