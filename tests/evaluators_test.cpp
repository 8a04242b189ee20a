/**
 * @file
 * Tests for the cache-subsystem evaluators and the memory walker:
 * single-pass banks, dilation-aware miss queries, Pareto
 * construction, and inclusion filtering.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/CacheSim.hpp"
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

/** A walker over one sweep of a trace, on no pool. */
MemoryWalker
sweptWalker(const MemorySpaces &spaces, const TraceSource &trace,
            StallModel stalls = {}, uint64_t i_granule = 2000,
            uint64_t u_granule = 10000)
{
    SweptReference swept =
        sweepReference(spaces, trace, i_granule, u_granule, nullptr);
    return MemoryWalker(spaces, stalls, std::move(swept.set),
                        std::move(swept.capture));
}

/** A walker over small spaces, swept over one synthetic trace. */
std::unique_ptr<MemoryWalker>
smallWalker(uint64_t seed, int length)
{
    return std::make_unique<MemoryWalker>(
        sweptWalker(MemorySpaces{smallSpace(), smallSpace(), smallSpace()},
                    syntheticUnifiedTrace(seed, length)));
}

TEST(SimBank, CoversDownToOneWordLines)
{
    SimBank bank(smallSpace());
    // Lines 4, 8, 16, 32 -> four single-pass runs.
    EXPECT_EQ(bank.simRuns(), 4u);
    const FrozenBank frozen = bank.freeze();
    EXPECT_TRUE(frozen.covers(cache::CacheConfig{64, 1, 4}));
    EXPECT_TRUE(frozen.covers(cache::CacheConfig{64, 2, 32}));
    EXPECT_FALSE(frozen.covers(cache::CacheConfig{64, 1, 64}));
}

TEST(SimBank, MissesThrowOutsideCoverage)
{
    // Every query outside a frozen bank's coverage fails loudly,
    // naming the configuration (or, for write-through traffic on a
    // classic bank, saying that stores are not counted).
    using cache::ReplacementPolicy;
    using cache::WritePolicy;
    CacheSpace extended = smallSpace();
    extended.replacements = {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
                             ReplacementPolicy::Random};
    extended.writePolicies = {WritePolicy::WriteBack,
                              WritePolicy::WriteThrough};
    auto expectFatal = [](auto query, const std::string &needle) {
        try {
            query();
            ADD_FAILURE() << "no error for " << needle;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << e.what();
        }
    };
    // smallSpace lists 16..1024 sets at 16-byte lines and 16..512 at
    // 32-byte lines, at most two ways; 32 sets x 2 ways (2 KB) is
    // inside the 32-byte rectangle but not listed.
    const std::vector<cache::CacheConfig> lru_outside = {
        {64, 1, 64},   // a line size the bank does not simulate
        {4096, 1, 32}, // above the line's set band
        {8, 1, 32},    // below it
        {48, 1, 32},   // not a power of two
        {64, 0, 32},   // no ways
        {64, 3, 32},   // above the largest associativity
    };
    const cache::CacheConfig unlisted{32, 2, 32};
    for (const CacheSpace &space : {smallSpace(), extended}) {
        for (auto coverage :
             {Coverage::ContractedLines, Coverage::Enumerated}) {
            SCOPED_TRACE(space.extendedAxes() ? "extended" : "classic");
            SimBank bank(space, coverage);
            trace::ColumnarTraceBuffer captured;
            syntheticUnifiedTrace(1, 1000, 0.3)(
                [&captured](const trace::Access &a) { captured(a); });
            bank.simulate(captured, nullptr);
            const FrozenBank frozen = bank.freeze();
            for (const auto &cfg : lru_outside) {
                EXPECT_FALSE(frozen.covers(cfg)) << cfg.name();
                expectFatal([&] { frozen.misses(cfg); }, cfg.name());
            }
            for (auto policy :
                 {ReplacementPolicy::FIFO, ReplacementPolicy::Random}) {
                cache::CacheConfig cfg = unlisted;
                cfg.replacement = policy;
                expectFatal([&] { frozen.misses(cfg); }, cfg.name());
            }
            cache::CacheConfig wt{64, 2, 32};
            wt.write = WritePolicy::WriteThrough;
            if (!space.extendedAxes()) {
                expectFatal([&] { frozen.writeTraffic(wt); },
                            "store counts need the set-resident bank");
                continue;
            }
            EXPECT_EQ(frozen.writeTraffic(wt),
                      static_cast<double>(frozen.stores()));
            for (auto policy : {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
                                ReplacementPolicy::Random}) {
                cache::CacheConfig cfg = unlisted;
                cfg.replacement = policy;
                expectFatal([&] { frozen.writeTraffic(cfg); }, cfg.name());
            }
        }
    }
}

TEST(SimBank, EvaluatorBanksCoverWhatTheirModelsRead)
{
    // The I$ model reads contracted line sizes, so its bank keeps the
    // full coverage of SimBank(space). The D$ and U$ estimates read
    // only the configurations their spaces enumerate, so their banks
    // hold one Cheetah pass per listed line size, over the set band
    // the space enumerates at that line: 11 passes, not 16.
    MemorySpaces spaces;
    const MemoryWalker walker =
        sweptWalker(spaces, syntheticUnifiedTrace(31, 60000));

    SimBank full_l1_bank(spaces.icache);
    const FrozenBank full_l1 = full_l1_bank.freeze();
    const FrozenBank &ibank = walker.icache().bank();
    const SimBank i_sims(spaces.icache, IcacheEvaluator::coverage);
    EXPECT_EQ(i_sims.simRuns(), full_l1_bank.simRuns());
    EXPECT_EQ(i_sims.simRuns(), 5u);
    for (uint32_t line = SimBank::minCoveredLine; line <= 128; line *= 2)
        for (uint32_t sets = 1; sets <= 8192; sets *= 2)
            for (uint32_t assoc = 1; assoc <= 8; ++assoc) {
                cache::CacheConfig cfg{sets, assoc, line};
                EXPECT_EQ(ibank.covers(cfg), full_l1.covers(cfg))
                    << cfg.name();
            }
    EXPECT_TRUE(ibank.covers(cache::CacheConfig{2048, 1, 4}));

    const FrozenBank &dbank = walker.dcache().bank();
    const FrozenBank &ubank = walker.ucache().bank();
    EXPECT_EQ(SimBank(spaces.dcache, DcacheEvaluator::coverage).simRuns(),
              3u);
    EXPECT_EQ(SimBank(spaces.ucache, UcacheEvaluator::coverage).simRuns(),
              3u);
    for (const auto &cfg : spaces.dcache.enumerate())
        EXPECT_TRUE(dbank.covers(cfg)) << cfg.name();
    for (const auto &cfg : spaces.ucache.enumerate())
        EXPECT_TRUE(ubank.covers(cfg)) << cfg.name();

    // A line below the space's smallest, and a set count outside a
    // line's band: the full-coverage bank simulates both, the
    // evaluator's bank neither.
    const FrozenBank full_l2 = SimBank(spaces.ucache).freeze();
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
    // Dilation 1 reads the simulated count itself: a dedicated
    // CacheSim run over the trace's instruction references.
    auto walker = smallWalker(3, 60000);
    for (const auto &cfg : smallSpace().enumerate()) {
        cache::CacheSim oracle(cfg);
        syntheticUnifiedTrace(3, 60000)([&oracle](const trace::Access &a) {
            if (a.isInstr)
                oracle(a);
        });
        EXPECT_DOUBLE_EQ(walker->icache().misses(cfg, 1.0),
                         static_cast<double>(oracle.misses()))
            << cfg.name();
    }
}

TEST(IcacheEvaluator, DilationIncreasesMisses)
{
    auto walker = smallWalker(4, 60000);
    cache::CacheConfig cfg{64, 1, 32};
    double base = walker->icache().misses(cfg, 1.0);
    double dil = walker->icache().misses(cfg, 2.0);
    EXPECT_GT(dil, base);
}

TEST(DcacheEvaluator, SimulatesAndIgnoresDilation)
{
    auto walker = smallWalker(6, 50000);
    cache::CacheConfig cfg{128, 2, 32};
    EXPECT_GT(walker->dcache().misses(cfg), 0.0);
}

TEST(UcacheEvaluator, DilationScalesUnifiedMisses)
{
    auto walker = smallWalker(7, 120000);
    cache::CacheConfig cfg{256, 2, 32};
    double base = walker->ucache().misses(cfg, 1.0);
    double dil = walker->ucache().misses(cfg, 2.5);
    EXPECT_DOUBLE_EQ(base, walker->ucache().misses(cfg, 1.0));
    EXPECT_GE(dil, base);
}

TEST(Evaluators, ParetoSetsAreNonEmptyAndConsistent)
{
    auto walker = smallWalker(8, 60000);
    auto front = walker->pareto(1.5);
    EXPECT_FALSE(front.empty());
    for (const auto &p : front.points()) {
        EXPECT_GT(p.cost, 0.0);
        EXPECT_GE(p.time, 0.0);
    }
    // A costlier member of the front must be faster; otherwise a
    // cheaper one would dominate it.
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
    const MemoryWalker walker =
        sweptWalker(spaces, syntheticUnifiedTrace(11, 250000), stalls,
                    core::defaultIGranule, core::defaultUGranule);

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

TEST(MemoryWalker, StallCyclesPricesEveryParetoPointBitForBit)
{
    // stallCycles() sums the same per-subsystem prices as pareto(), in
    // the same order, so a Pareto point's time is exactly the stall
    // cycles of its three configurations, write traffic included.
    MemorySpaces spaces = extendedSpaces();
    spaces.dcache.portCounts = {1, 2};
    StallModel stalls;
    stalls.writeCost = 6.0;
    const MemoryWalker walker = sweptWalker(
        spaces, syntheticUnifiedTrace(23, 60000, 0.3), stalls);
    std::map<std::string, cache::CacheConfig> configs;
    for (const auto &[prefix, space] :
         {std::pair{"I$", &spaces.icache}, std::pair{"D$", &spaces.dcache},
          std::pair{"U$", &spaces.ucache}})
        for (const auto &cfg : space->enumerate())
            configs.emplace(prefix + cfg.name(), cfg);
    size_t points = 0;
    size_t differing = 0;
    for (double dilation : {1.0, 1.25, 1.4, 1.8, 2.5, 3.3})
        for (uint32_t ports : {0u, 1u, 2u}) {
            const ParetoSet front = walker.pareto(dilation, ports);
            for (const DesignPoint &p : front.points()) {
                const size_t d = p.id.find('+');
                const size_t u = p.id.find('+', d + 1);
                const double time = walker.stallCycles(
                    configs.at(p.id.substr(0, d)),
                    configs.at(p.id.substr(d + 1, u - d - 1)),
                    configs.at(p.id.substr(u + 1)), dilation);
                ++points;
                differing += std::memcmp(&time, &p.time, sizeof time) != 0;
            }
        }
    EXPECT_GT(points, 1000u);
    EXPECT_EQ(differing, 0u) << "of " << points << " Pareto points";
}

TEST(MemoryWalker, OneUnifiedSourceMatchesComponentEvaluators)
{
    // sweepReference captures one unified trace, and each bank reads its
    // own records of it; every answer, write traffic included, must
    // equal the one built from each subsystem's own component: its
    // capture swept by a bank of the evaluator's coverage, frozen, and
    // read through the trace model the evaluator fits. The trace opens
    // with a block of instruction fetches only and a block of data
    // references only, so the D$ and then the I$ selection of a block
    // is empty, with and without pool workers.
    const uint32_t block = trace::ColumnarTraceBuffer::defaultBlockCapacity;
    const TraceSource mixed = syntheticUnifiedTrace(15, 120000, 0.3);
    const TraceSource unified = [&](const TraceSink &sink) {
        for (uint32_t i = 0; i < block; ++i)
            sink({0x01000000 + 4ULL * (i % 1536), true, false});
        for (uint32_t i = 0; i < block; ++i)
            sink({0x40000000 + 4ULL * (i * 7 % 6144), false, i % 3 == 0});
        mixed(sink);
    };
    trace::ColumnarTraceBuffer instr, data, all;
    core::ItraceModeler imodeler(2000);
    core::UtraceModeler umodeler(10000);
    unified([&](const trace::Access &a) {
        if (a.isInstr) {
            instr(a);
            imodeler.access(a);
        } else {
            data(a);
        }
        all(a);
        umodeler.access(a);
    });
    const core::ComponentParams ip = imodeler.params();
    const core::DilationModel imodel(ip, ip, ip);
    const core::DilationModel umodel(umodeler.instrParams(),
                                     umodeler.instrParams(),
                                     umodeler.dataParams());
    auto sweep = [](const CacheSpace &space, Coverage coverage,
                    const trace::ColumnarTraceBuffer &capture) {
        SimBank bank(space, coverage);
        bank.simulate(capture, nullptr);
        return bank.freeze();
    };
    support::ThreadPool workers(4);
    for (const MemorySpaces &spaces :
         {MemorySpaces{smallSpace(), smallSpace(), smallSpace()},
          extendedSpaces()}) {
        const FrozenBank ibank =
            sweep(spaces.icache, IcacheEvaluator::coverage, instr);
        const FrozenBank dbank =
            sweep(spaces.dcache, DcacheEvaluator::coverage, data);
        const FrozenBank ubank =
            sweep(spaces.ucache, UcacheEvaluator::coverage, all);
        for (support::ThreadPool *pool :
             {static_cast<support::ThreadPool *>(nullptr), &workers}) {
            SCOPED_TRACE(std::string(spaces.ucache.extendedAxes()
                                         ? "extended"
                                         : "classic") +
                         (pool ? ", 4 workers" : ", no pool"));
            SweptReference swept =
                sweepReference(spaces, unified, 2000, 10000, pool);
            EXPECT_EQ(swept.set.icache, ibank);
            EXPECT_EQ(swept.set.dcache, dbank);
            EXPECT_EQ(swept.set.ucache, ubank);
            const MemoryWalker walker(spaces, StallModel{},
                                      std::move(swept.set),
                                      std::move(swept.capture));
            // The walker keeps the very records the class captured.
            const trace::ColumnarTraceBuffer &captured =
                walker.ucache().capturedTrace();
            ASSERT_EQ(captured.size(), all.size());
            std::vector<trace::Access> want;
            all.replay(
                [&want](const trace::Access &a) { want.push_back(a); });
            size_t record = 0, differing_records = 0;
            captured.replay([&](const trace::Access &a) {
                const trace::Access &w = want[record++];
                differing_records += a.addr != w.addr ||
                                     a.isInstr != w.isInstr ||
                                     a.isWrite != w.isWrite;
            });
            EXPECT_EQ(differing_records, 0u)
                << "of " << captured.size() << " records";
            for (const auto &cfg : spaces.icache.enumerate()) {
                EXPECT_EQ(walker.icache().misses(cfg, 1.0), ibank.misses(cfg))
                    << cfg.name();
                EXPECT_EQ(walker.icache().misses(cfg, 1.5),
                          imodel.estimateIcacheMisses(cfg, 1.5,
                                                      ibank.oracle()))
                    << cfg.name();
                EXPECT_EQ(walker.icache().writeTraffic(cfg),
                          ibank.writeTraffic(cfg))
                    << cfg.name();
            }
            for (const auto &cfg : spaces.dcache.enumerate()) {
                EXPECT_EQ(walker.dcache().misses(cfg), dbank.misses(cfg))
                    << cfg.name();
                EXPECT_EQ(walker.dcache().writeTraffic(cfg),
                          dbank.writeTraffic(cfg))
                    << cfg.name();
            }
            for (const auto &cfg : spaces.ucache.enumerate()) {
                EXPECT_EQ(walker.ucache().misses(cfg, 1.5),
                          umodel.estimateUcacheMisses(cfg, 1.5,
                                                      ubank.misses(cfg)))
                    << cfg.name();
                EXPECT_EQ(walker.ucache().writeTraffic(cfg),
                          ubank.writeTraffic(cfg))
                    << cfg.name();
            }
        }
    }
}

TEST(MemoryWalker, LaneLoopIsJobCountInvariant)
{
    // sweepReference sweeps the three banks in one lane loop: one
    // fused lane for every bank without pool workers, one lane per
    // simulator with them. The encoded set's bytes, every enumerated
    // cell's misses and write traffic, and every sweep.* counter must
    // not depend on which ran. A counter counts the records its
    // simulator read: on the default spaces only the I$ bank simulates
    // 4-byte lines, the I$ and D$ banks 16-byte lines and only the U$
    // bank 128-byte lines.
    for (const MemorySpaces &spaces : {MemorySpaces{}, extendedSpaces()}) {
        std::vector<std::vector<double>> encoded;
        auto run = [&spaces, &encoded](unsigned jobs) {
            support::ThreadPool pool(jobs - 1);
            support::metrics().resetValues();
            SweptReference swept = sweepReference(
                spaces, syntheticUnifiedTrace(51, 120000, 0.3), 2000,
                10000, &pool);
            encoded.push_back(swept.set.encode());
            const MemoryWalker walker(spaces, StallModel{},
                                      std::move(swept.set));
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
                SimBank(spaces.icache, IcacheEvaluator::coverage)
                    .simRuns() +
                SimBank(spaces.dcache, DcacheEvaluator::coverage)
                    .simRuns() +
                SimBank(spaces.ucache, UcacheEvaluator::coverage)
                    .simRuns());
            out["I$accesses"] = walker.icache().bank().accesses();
            out["D$accesses"] = walker.dcache().bank().accesses();
            out["U$accesses"] = walker.ucache().bank().accesses();
            return out;
        };
        support::setMetricsEnabled(true);
        auto serial = run(1);
        auto two = run(2);
        auto eight = run(8);
        support::setMetricsEnabled(false);
        EXPECT_EQ(serial["sweep.runs"], serial["runs"]);
        EXPECT_EQ(serial["sweep.line4.accesses"], serial["I$accesses"]);
        EXPECT_EQ(serial["sweep.line16.accesses"],
                  serial["I$accesses"] + serial["D$accesses"]);
        EXPECT_EQ(serial["sweep.line128.accesses"], serial["U$accesses"]);
        EXPECT_EQ(serial["U$accesses"], 120000);
        EXPECT_EQ(serial, two);
        EXPECT_EQ(serial, eight);
        ASSERT_EQ(encoded.size(), 3u);
        for (const auto &other : {encoded[1], encoded[2]}) {
            ASSERT_EQ(other.size(), encoded[0].size());
            EXPECT_EQ(std::memcmp(other.data(), encoded[0].data(),
                                  other.size() * sizeof(double)),
                      0);
        }
    }
}

TEST(MemoryWalker, CancelDuringSweepReturnsNothing)
{
    // The token is cancelled once the last reference is captured, so
    // the first checkpoint to see it is the lane loop's. The sweep
    // unwinds with CancelledError and returns nothing, so no
    // half-swept walker exists to query.
    for (unsigned jobs : {1u, 4u}) {
        support::ThreadPool pool(jobs - 1);
        support::CancelToken token;
        TraceSource trace = syntheticUnifiedTrace(61, 60000);
        std::optional<SweptReference> swept;
        try {
            swept = sweepReference(
                MemorySpaces{},
                [&](const TraceSink &sink) {
                    trace(sink);
                    token.cancel();
                },
                2000, 10000, &pool, &token);
            ADD_FAILURE() << "not cancelled, jobs=" << jobs;
        } catch (const CancelledError &e) {
            EXPECT_NE(std::string(e.what()).find("SimBank::simulate"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_FALSE(swept.has_value()) << "jobs=" << jobs;
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

    const MemoryWalker walker =
        sweptWalker(spaces, syntheticUnifiedTrace(14, 250000), StallModel{},
                    core::defaultIGranule, core::defaultUGranule);
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

/** CacheConfig::name() as an ostringstream formatted it. */
std::string
streamName(const cache::CacheConfig &cfg)
{
    std::ostringstream oss;
    uint64_t size = cfg.sizeBytes();
    if (size >= 1024 && size % 1024 == 0)
        oss << (size / 1024) << "KB";
    else
        oss << size << "B";
    oss << "/" << cfg.assoc << "way/" << cfg.lineBytes << "B";
    if (cfg.ports > 1)
        oss << "/" << cfg.ports << "p";
    if (cfg.replacement != cache::ReplacementPolicy::LRU)
        oss << "/" << cache::replacementName(cfg.replacement);
    if (cfg.write != cache::WritePolicy::WriteBack)
        oss << "/" << cache::writePolicyName(cfg.write);
    return oss.str();
}

/**
 * MemoryWalker::pareto as it composed before its candidates and
 * offers carried numbers only: every candidate named, each front
 * built by testing every pair, and one ParetoSet::insertPoint per
 * inclusion-feasible offer.
 */
ParetoSet
stringCarryingPareto(const MemoryWalker &walker, const MemorySpaces &spaces,
                     double dilation, uint32_t dcache_ports)
{
    struct Candidate
    {
        cache::CacheConfig cfg;
        DesignPoint point;
    };
    const StallModel &stalls = walker.stalls();
    auto front = [](const CacheSpace &space, const char *prefix,
                    uint32_t ports, const auto &stall_cycles) {
        std::vector<Candidate> cands;
        for (const auto &cfg : space.enumerate())
            if (ports == 0 || cfg.ports == ports)
                cands.push_back({cfg, DesignPoint{prefix + streamName(cfg),
                                                  cfg.areaCost(),
                                                  stall_cycles(cfg)}});
        std::vector<Candidate> kept;
        for (const auto &c : cands) {
            bool dominated = false;
            for (const auto &other : cands)
                dominated = dominated || other.point.dominates(c.point);
            if (!dominated)
                kept.push_back(c);
        }
        return kept;
    };
    const auto i_front =
        front(spaces.icache, "I$", 0, [&](const cache::CacheConfig &cfg) {
            return walker.icache().misses(cfg, dilation) *
                   stalls.l2HitLatency;
        });
    const auto d_front = front(
        spaces.dcache, "D$", dcache_ports,
        [&](const cache::CacheConfig &cfg) {
            double t = walker.dcache().misses(cfg) * stalls.l2HitLatency;
            if (stalls.writeCost != 0.0)
                t += walker.dcache().writeTraffic(cfg) * stalls.writeCost;
            return t;
        });
    const auto u_front =
        front(spaces.ucache, "U$", 0, [&](const cache::CacheConfig &cfg) {
            double t = walker.ucache().misses(cfg, dilation) *
                       stalls.memoryLatency;
            if (stalls.writeCost != 0.0)
                t += walker.ucache().writeTraffic(cfg) * stalls.writeCost;
            return t;
        });
    ParetoSet out;
    for (const auto &ic : i_front)
        for (const auto &dc : d_front)
            for (const auto &uc : u_front) {
                if (uc.cfg.sizeBytes() < ic.cfg.sizeBytes() ||
                    uc.cfg.sizeBytes() < dc.cfg.sizeBytes() ||
                    uc.cfg.lineBytes < ic.cfg.lineBytes ||
                    uc.cfg.lineBytes < dc.cfg.lineBytes)
                    continue;
                DesignPoint point;
                point.id = ic.point.id + "+" + dc.point.id + "+" +
                           uc.point.id;
                point.cost = ic.point.cost + dc.point.cost + uc.point.cost;
                point.time = ic.point.time + dc.point.time + uc.point.time;
                out.insertPoint(point);
            }
    return out;
}

TEST(MemoryWalker, ParetoMatchesTheStringCarryingComposition)
{
    auto same_bits = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    MemorySpaces extended = extendedSpaces();
    extended.dcache.portCounts = {1, 2};
    for (const MemorySpaces &spaces : {MemorySpaces{}, extended}) {
        const ReferenceSet set =
            sweepReference(spaces, syntheticUnifiedTrace(23, 60000, 0.3),
                           2000, 10000, nullptr)
                .set;
        for (double write_cost : {0.0, 6.0}) {
            StallModel stalls;
            stalls.writeCost = write_cost;
            const MemoryWalker walker(spaces, stalls, set);
            std::vector<uint32_t> port_filters = spaces.dcache.portCounts;
            port_filters.push_back(0);
            for (double dilation : {1.0, 1.4, 2.5})
                for (uint32_t ports : port_filters) {
                    const ParetoSet want =
                        stringCarryingPareto(walker, spaces, dilation, ports);
                    const ParetoSet got = walker.pareto(dilation, ports);
                    const std::string what =
                        "extended " + std::to_string(&spaces == &extended) +
                        " write cost " + std::to_string(write_cost) +
                        " dilation " + std::to_string(dilation) +
                        " ports " + std::to_string(ports);
                    ASSERT_EQ(got.offered(), want.offered()) << what;
                    ASSERT_EQ(got.size(), want.size()) << what;
                    EXPECT_GT(got.size(), 1u) << what;
                    for (size_t i = 0; i < got.size(); ++i) {
                        const DesignPoint &a = got.points()[i];
                        const DesignPoint &b = want.points()[i];
                        EXPECT_EQ(a.id, b.id) << what;
                        EXPECT_TRUE(same_bits(a.cost, b.cost) &&
                                    same_bits(a.time, b.time))
                            << what << " " << a.id;
                    }
                }
        }
    }
}

} // namespace
} // namespace pico::dse
