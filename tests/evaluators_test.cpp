/**
 * @file
 * Tests for the cache-subsystem evaluators and the memory walker:
 * single-pass banks, dilation-aware miss queries, Pareto
 * construction, and inclusion filtering.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "dse/Evaluators.hpp"
#include "dse/Spacewalker.hpp"
#include "support/Metrics.hpp"
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

/** Unified trace; store_frac of the data references are stores. */
TraceSource
syntheticUnifiedTrace(uint64_t seed, int length, double store_frac = 0.0)
{
    return [seed, length, store_frac](const TraceSink &sink) {
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
                uint64_t addr =
                    0x40000000 + (rng.below(1 << 16) & ~3ULL);
                sink({addr, false,
                      store_frac > 0.0 && rng.coin(store_frac)});
            }
        }
    };
}

/** The default memory spaces with the D$ and U$ policy axes on. */
MemorySpaces
extendedSpaces()
{
    MemorySpaces spaces;
    for (CacheSpace *space : {&spaces.dcache, &spaces.ucache}) {
        space->replacements = {cache::ReplacementPolicy::LRU,
                               cache::ReplacementPolicy::FIFO,
                               cache::ReplacementPolicy::Random};
        space->writePolicies = {cache::WritePolicy::WriteBack,
                                cache::WritePolicy::WriteThrough};
    }
    return spaces;
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

TEST(SimBank, EvaluatorBanksCoverWhatTheirModelsRead)
{
    // The I$ model reads contracted line sizes, so its bank keeps the
    // full coverage of SimBank(space). The D$ and U$ estimates read
    // only the configurations their spaces enumerate, so their banks
    // hold one Cheetah pass per listed line size, over the set band
    // the space enumerates at that line: 11 passes, not 16.
    MemorySpaces spaces;
    MemoryWalker walker(spaces, StallModel{}, 2000, 10000);
    walker.evaluate(syntheticUnifiedTrace(31, 60000));

    SimBank full_l1(spaces.icache);
    const SimBank &ibank = walker.icache().bank();
    EXPECT_EQ(ibank.simRuns(), full_l1.simRuns());
    EXPECT_EQ(ibank.simRuns(), 5u);
    for (uint32_t line = SimBank::minCoveredLine; line <= 128; line *= 2)
        for (uint32_t sets = 1; sets <= 8192; sets *= 2)
            for (uint32_t assoc = 1; assoc <= 8; ++assoc) {
                cache::CacheConfig cfg{sets, assoc, line};
                EXPECT_EQ(ibank.covers(cfg), full_l1.covers(cfg))
                    << cfg.name();
            }
    EXPECT_TRUE(ibank.covers(cache::CacheConfig{2048, 1, 4}));

    const SimBank &dbank = walker.dcache().bank();
    const SimBank &ubank = walker.ucache().bank();
    EXPECT_EQ(dbank.simRuns(), 3u);
    EXPECT_EQ(ubank.simRuns(), 3u);
    for (const auto &cfg : spaces.dcache.enumerate())
        EXPECT_TRUE(dbank.covers(cfg)) << cfg.name();
    for (const auto &cfg : spaces.ucache.enumerate())
        EXPECT_TRUE(ubank.covers(cfg)) << cfg.name();

    // A line below the space's smallest, and a set count outside a
    // line's band: the full-coverage bank simulates both, the
    // evaluator's bank neither.
    SimBank full_l2(spaces.ucache);
    for (cache::CacheConfig cfg : {cache::CacheConfig{128, 1, 8},
                                   cache::CacheConfig{2048, 1, 64}}) {
        EXPECT_TRUE(full_l1.covers(cfg)) << cfg.name();
        EXPECT_FALSE(dbank.covers(cfg)) << cfg.name();
        EXPECT_THROW(walker.dcache().misses(cfg), FatalError)
            << cfg.name();
    }
    for (cache::CacheConfig cfg : {cache::CacheConfig{1024, 1, 16},
                                   cache::CacheConfig{8192, 1, 128}}) {
        EXPECT_TRUE(full_l2.covers(cfg)) << cfg.name();
        EXPECT_FALSE(ubank.covers(cfg)) << cfg.name();
        EXPECT_THROW(walker.ucache().misses(cfg, 1.0), FatalError)
            << cfg.name();
    }
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

TEST(MemoryWalker, LaneLoopIsJobCountInvariant)
{
    // evaluate() sweeps the three banks in one lane loop: one fused
    // lane per bank without pool workers, one lane per simulator with
    // them. Every enumerated cell's misses and write traffic, and
    // every sweep.* counter, must not depend on which ran.
    for (const MemorySpaces &spaces : {MemorySpaces{}, extendedSpaces()}) {
        auto run = [&spaces](unsigned jobs) {
            support::ThreadPool pool(jobs - 1);
            MemoryWalker walker(spaces, StallModel{}, 2000, 10000);
            walker.setThreadPool(&pool);
            support::metrics().resetValues();
            walker.evaluate(syntheticUnifiedTrace(51, 120000, 0.3));
            std::map<std::string, double> out;
            for (const auto &[name, value] :
                 support::metrics().snapshot().counters) {
                if (name.rfind("sweep.", 0) == 0 && value != 0)
                    out[name] = static_cast<double>(value);
            }
            for (const auto &cfg : spaces.icache.enumerate()) {
                out["I$" + cfg.name()] = walker.icache().misses(cfg, 1.0);
                out["I$1.5" + cfg.name()] =
                    walker.icache().misses(cfg, 1.5);
            }
            for (const auto &cfg : spaces.dcache.enumerate()) {
                out["D$" + cfg.name()] = walker.dcache().misses(cfg);
                out["D$w" + cfg.name()] = walker.dcache().writeTraffic(cfg);
            }
            for (const auto &cfg : spaces.ucache.enumerate()) {
                out["U$" + cfg.name()] = walker.ucache().misses(cfg, 1.0);
                out["U$1.5" + cfg.name()] =
                    walker.ucache().misses(cfg, 1.5);
                out["U$w" + cfg.name()] = walker.ucache().writeTraffic(cfg);
            }
            out["runs"] = static_cast<double>(
                walker.icache().bank().simRuns() +
                walker.dcache().bank().simRuns() +
                walker.ucache().bank().simRuns());
            return out;
        };
        support::setMetricsEnabled(true);
        auto serial = run(1);
        auto two = run(2);
        auto eight = run(8);
        support::setMetricsEnabled(false);
        EXPECT_EQ(serial["sweep.runs"], serial["runs"]);
        EXPECT_EQ(serial, two);
        EXPECT_EQ(serial, eight);
    }
}

TEST(MemoryWalker, CancelDuringSweepRejectsQueries)
{
    // The token is cancelled once the last reference is captured, so
    // the first checkpoint to see it is the lane loop's. The walk
    // unwinds with CancelledError and no evaluator answers.
    for (unsigned jobs : {1u, 4u}) {
        support::ThreadPool pool(jobs - 1);
        MemorySpaces spaces;
        MemoryWalker walker(spaces, StallModel{}, 2000, 10000);
        walker.setThreadPool(&pool);
        support::CancelToken token;
        TraceSource trace = syntheticUnifiedTrace(61, 60000);
        try {
            walker.evaluate(
                [&](const TraceSink &sink) {
                    trace(sink);
                    token.cancel();
                },
                &token);
            ADD_FAILURE() << "not cancelled, jobs=" << jobs;
        } catch (const CancelledError &e) {
            EXPECT_NE(std::string(e.what()).find("SimBank::simulate"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_FALSE(walker.icache().evaluated());
        EXPECT_FALSE(walker.dcache().evaluated());
        EXPECT_FALSE(walker.ucache().evaluated());
        cache::CacheConfig l1{64, 2, 32};
        cache::CacheConfig l2{512, 2, 64};
        EXPECT_THROW(walker.icache().misses(l1, 1.0), FatalError);
        EXPECT_THROW(walker.dcache().misses(l1), FatalError);
        EXPECT_THROW(walker.ucache().misses(l2, 1.0), FatalError);
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
