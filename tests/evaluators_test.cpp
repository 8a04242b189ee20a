/**
 * @file
 * Tests for the cache-subsystem evaluators and the memory walker:
 * single-pass banks, dilation-aware miss queries, Pareto
 * construction, and inclusion filtering.
 */

#include <gtest/gtest.h>

#include "dse/Evaluators.hpp"
#include "dse/Spacewalker.hpp"
#include "support/Random.hpp"

namespace pico::dse
{
namespace
{

CacheSpace
smallSpace()
{
    CacheSpace space;
    space.sizesBytes = {1024, 4096, 16384};
    space.assocs = {1, 2};
    space.lineSizes = {16, 32};
    return space;
}

TraceSource
syntheticInstrTrace(uint64_t seed, int length)
{
    return [seed, length](const TraceSink &sink) {
        Rng rng(seed);
        uint64_t pc = 0x01000000;
        for (int i = 0; i < length; ++i) {
            if (rng.coin(0.12))
                pc = 0x01000000 + (rng.below(1 << 15) & ~3ULL);
            sink({pc, true, false});
            pc += 4;
        }
    };
}

TraceSource
syntheticDataTrace(uint64_t seed, int length)
{
    return [seed, length](const TraceSink &sink) {
        Rng rng(seed);
        for (int i = 0; i < length; ++i) {
            uint64_t addr =
                0x40000000 + (rng.below(1 << 16) & ~3ULL);
            sink({addr, false, rng.coin(0.3)});
        }
    };
}

TraceSource
syntheticUnifiedTrace(uint64_t seed, int length)
{
    return [seed, length](const TraceSink &sink) {
        Rng rng(seed);
        uint64_t pc = 0x01000000;
        for (int i = 0; i < length; ++i) {
            if (rng.coin(0.65)) {
                if (rng.coin(0.12))
                    pc = 0x01000000 +
                         (rng.below(1 << 15) & ~3ULL);
                sink({pc, true, false});
                pc += 4;
            } else {
                sink({0x40000000 + (rng.below(1 << 16) & ~3ULL),
                      false, false});
            }
        }
    };
}

TEST(SimBank, CoversDownToOneWordLines)
{
    SimBank bank(smallSpace());
    // Lines 4, 8, 16, 32 -> four single-pass runs.
    EXPECT_EQ(bank.simRuns(), 4u);
    EXPECT_TRUE(bank.covers(cache::CacheConfig{64, 1, 4}));
    EXPECT_TRUE(bank.covers(cache::CacheConfig{64, 2, 32}));
    EXPECT_FALSE(bank.covers(cache::CacheConfig{64, 1, 64}));
}

TEST(SimBank, MissesThrowOutsideCoverage)
{
    SimBank bank(smallSpace());
    trace::ColumnarTraceBuffer captured;
    syntheticInstrTrace(1, 1000)(
        [&captured](const trace::Access &a) { captured(a); });
    bank.simulate(captured, nullptr);
    EXPECT_THROW(bank.misses(cache::CacheConfig{64, 1, 128}),
                 FatalError);
}

TEST(IcacheEvaluator, UnitDilationEqualsSimulation)
{
    IcacheEvaluator eval(smallSpace(), 2000);
    eval.evaluate(syntheticInstrTrace(3, 60000));
    for (const auto &cfg : smallSpace().enumerate()) {
        EXPECT_DOUBLE_EQ(eval.misses(cfg, 1.0),
                         eval.bank().misses(cfg))
            << cfg.name();
    }
}

TEST(IcacheEvaluator, DilationIncreasesMisses)
{
    IcacheEvaluator eval(smallSpace(), 2000);
    eval.evaluate(syntheticInstrTrace(4, 60000));
    cache::CacheConfig cfg{64, 1, 32};
    double base = eval.misses(cfg, 1.0);
    double dil = eval.misses(cfg, 2.0);
    EXPECT_GT(dil, base);
}

TEST(IcacheEvaluator, RejectsQueriesBeforeEvaluate)
{
    IcacheEvaluator eval(smallSpace());
    EXPECT_THROW(eval.misses(cache::CacheConfig{64, 1, 32}, 1.0),
                 FatalError);
}

TEST(IcacheEvaluator, RejectsDataReferences)
{
    IcacheEvaluator eval(smallSpace(), 1000);
    EXPECT_THROW(eval.evaluate(syntheticDataTrace(5, 5000)),
                 FatalError);
}

TEST(DcacheEvaluator, SimulatesAndIgnoresDilation)
{
    DcacheEvaluator eval(smallSpace());
    eval.evaluate(syntheticDataTrace(6, 50000));
    cache::CacheConfig cfg{128, 2, 32};
    EXPECT_GT(eval.misses(cfg), 0.0);
}

TEST(UcacheEvaluator, DilationScalesUnifiedMisses)
{
    UcacheEvaluator eval(smallSpace(), 10000);
    eval.evaluate(syntheticUnifiedTrace(7, 120000));
    cache::CacheConfig cfg{256, 2, 32};
    double base = eval.misses(cfg, 1.0);
    double dil = eval.misses(cfg, 2.5);
    EXPECT_DOUBLE_EQ(base, eval.misses(cfg, 1.0));
    EXPECT_GE(dil, base);
}

TEST(Evaluators, ParetoSetsAreNonEmptyAndConsistent)
{
    IcacheEvaluator ieval(smallSpace(), 2000);
    ieval.evaluate(syntheticInstrTrace(8, 60000));
    auto front = ieval.pareto(1.5, 10.0);
    EXPECT_FALSE(front.empty());
    // Every front member's misses must be reproducible.
    for (const auto &p : front.points()) {
        EXPECT_GT(p.cost, 0.0);
        EXPECT_GE(p.time, 0.0);
    }
    // The largest, most associative cache must have the fewest
    // misses; it can only be excluded by cost.
    auto sorted = front.sorted();
    for (size_t i = 1; i < sorted.size(); ++i)
        EXPECT_LE(sorted[i].time, sorted[i - 1].time);
}

TEST(MemoryWalker, StallCyclesAdditive)
{
    MemorySpaces spaces;
    spaces.icache = smallSpace();
    spaces.dcache = smallSpace();
    spaces.ucache = CacheSpace::defaultL2Space();
    StallModel stalls;
    MemoryWalker walker(spaces, stalls);
    walker.evaluate(syntheticUnifiedTrace(11, 250000));

    cache::CacheConfig ic{64, 1, 32};
    cache::CacheConfig dc{64, 2, 32};
    cache::CacheConfig uc{512, 2, 64};
    double total = walker.stallCycles(ic, dc, uc, 1.3);
    double manual =
        walker.icache().misses(ic, 1.3) * stalls.l2HitLatency +
        walker.dcache().misses(dc) * stalls.l2HitLatency +
        walker.ucache().misses(uc, 1.3) * stalls.memoryLatency;
    EXPECT_DOUBLE_EQ(total, manual);
}

TEST(MemoryWalker, OneUnifiedSourceMatchesComponentEvaluators)
{
    // evaluate() splits one unified trace by isInstr; every answer
    // must equal evaluating each subsystem on its own component.
    MemorySpaces spaces{smallSpace(), smallSpace(), smallSpace()};
    MemoryWalker walker(spaces, StallModel{}, 2000, 10000);
    TraceSource unified = syntheticUnifiedTrace(15, 120000);
    walker.evaluate(unified);

    auto component = [&unified](bool instr) {
        return TraceSource([&unified, instr](const TraceSink &sink) {
            unified([&](const trace::Access &a) {
                if (a.isInstr == instr)
                    sink(a);
            });
        });
    };
    IcacheEvaluator ieval(spaces.icache, 2000);
    ieval.evaluate(component(true));
    DcacheEvaluator deval(spaces.dcache);
    deval.evaluate(component(false));
    UcacheEvaluator ueval(spaces.ucache, 10000);
    ueval.evaluate(unified);
    for (const auto &cfg : smallSpace().enumerate()) {
        EXPECT_EQ(walker.icache().misses(cfg, 1.5),
                  ieval.misses(cfg, 1.5))
            << cfg.name();
        EXPECT_EQ(walker.dcache().misses(cfg), deval.misses(cfg))
            << cfg.name();
        EXPECT_EQ(walker.ucache().misses(cfg, 1.5),
                  ueval.misses(cfg, 1.5))
            << cfg.name();
    }
}

TEST(MemoryWalker, ParetoRespectsInclusion)
{
    MemorySpaces spaces;
    spaces.icache = smallSpace();
    spaces.dcache = smallSpace();
    CacheSpace l2;
    l2.sizesBytes = {8192, 32768};
    l2.assocs = {2};
    l2.lineSizes = {32, 64};
    spaces.ucache = l2;

    MemoryWalker walker(spaces, StallModel{});
    walker.evaluate(syntheticUnifiedTrace(14, 250000));
    auto front = walker.pareto(1.0);
    EXPECT_FALSE(front.empty());
    // Hierarchy ids embed the component names; an 8KB L2 may never
    // appear together with a 16KB L1.
    for (const auto &p : front.points()) {
        bool small_l2 = p.id.find("U$8KB") != std::string::npos;
        bool big_l1 = p.id.find("I$16KB") != std::string::npos ||
                      p.id.find("D$16KB") != std::string::npos;
        EXPECT_FALSE(small_l2 && big_l1) << p.id;
    }
}

} // namespace
} // namespace pico::dse
