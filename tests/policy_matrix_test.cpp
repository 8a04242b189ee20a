/**
 * @file
 * Differential policy-matrix suite: every (replacement policy x
 * write policy) cell of the extended design space is proven against
 * the per-configuration CacheSim oracle — miss counts AND write
 * traffic, bit-identical — across seeds, geometries and line sizes.
 * Also covers the SimBank routing (LRU -> Cheetah, FIFO/random ->
 * set-resident), job-count invariance of the extended sweeps, the
 * extended-space enumeration/naming, and Pareto differentiation on
 * the accelerator workloads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dse/Spacewalker.hpp"

#include "cache/CacheSim.hpp"
#include "cache/Policy.hpp"
#include "cache/SetResidentSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "dse/Evaluators.hpp"
#include "support/Metrics.hpp"
#include "support/Random.hpp"
#include "support/ThreadPool.hpp"
#include "trace/ColumnarTrace.hpp"
#include "trace/TraceGenerator.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico
{
namespace
{

using cache::ReplacementPolicy;
using cache::WritePolicy;

constexpr ReplacementPolicy kPolicies[] = {ReplacementPolicy::LRU,
                                           ReplacementPolicy::FIFO,
                                           ReplacementPolicy::Random};
constexpr WritePolicy kWrites[] = {WritePolicy::WriteBack,
                                   WritePolicy::WriteThrough};

/**
 * 1k-access random trace with locality and ~30% stores, one per
 * stream id.
 */
std::vector<trace::Access>
randomWriteTrace(uint64_t seed, uint64_t stream)
{
    Rng rng = Rng::forStream(seed, stream);
    std::vector<trace::Access> out;
    out.reserve(1000);
    uint64_t pc = 0;
    for (int i = 0; i < 1000; ++i) {
        if (rng.coin(0.2))
            pc = rng.below(1 << 14) & ~3ULL;
        out.push_back({pc, false, rng.coin(0.3)});
        pc += 4;
    }
    return out;
}

/**
 * Same-line runs of 1..20 references over 512 lines (16 KB at
 * 32-byte lines), four run kinds in turn: a store at the start, a
 * store in the middle, a store only after a boundary of `chunk`
 * (the run starts before it), and no store. Fed in `chunk`-sized
 * blocks, runs straddle block boundaries.
 */
std::vector<trace::Access>
runHeavyTrace(uint64_t seed, size_t chunk, size_t length)
{
    Rng rng = Rng::forStream(seed, 0);
    std::vector<trace::Access> out;
    uint64_t prev_line = ~0ULL;
    for (size_t kind = 0; out.size() < length; kind = (kind + 1) % 4) {
        uint64_t line = rng.below(512);
        if (line == prev_line)
            line = (line + 1) % 512;
        prev_line = line;
        size_t pos = out.size();
        size_t len = 1 + rng.below(20);
        size_t store = 0;
        if (kind == 1)
            store = len / 2;
        if (kind == 2) {
            size_t to_boundary = chunk - pos % chunk;
            len = to_boundary + 1 + rng.below(8);
            store = to_boundary + rng.below(len - to_boundary);
        }
        for (size_t i = 0; i < len; ++i)
            out.push_back({line * 32 + 4 * (i % 8), false,
                           kind != 3 && i == store});
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

/**
 * Feed references through accessBlock(): one block per entry of
 * `chunks`, then the rest in one block.
 */
void
feedBlocks(cache::SetResidentSim &sim,
           const std::vector<trace::Access> &refs,
           const std::vector<size_t> &chunks)
{
    std::vector<uint64_t> addrs;
    std::vector<uint8_t> kinds;
    for (const auto &a : refs) {
        addrs.push_back(a.addr);
        kinds.push_back(a.isWrite ? 1 : 0);
    }
    size_t i = 0;
    for (size_t chunk : chunks) {
        size_t n = std::min(chunk, addrs.size() - i);
        sim.accessBlock(addrs.data() + i, kinds.data() + i, n);
        i += n;
    }
    sim.accessBlock(addrs.data() + i, kinds.data() + i,
                    addrs.size() - i);
}

/**
 * Exhaustive cross-check of one SetResidentSim against per-config
 * CacheSim oracles over its whole covered (sets, assoc) range, for
 * both write policies: misses and write traffic must be
 * bit-identical in every cell. The simulator is fed twice over: per
 * reference through access(), and through accessBlock() in uneven
 * blocks, as the product sweep feeds it.
 */
void
crossCheckPolicy(ReplacementPolicy policy, uint32_t line,
                 uint32_t min_sets, uint32_t max_sets,
                 uint32_t max_assoc,
                 const std::vector<trace::Access> &refs)
{
    const auto shapes = rectangle(min_sets, max_sets, max_assoc);
    cache::SetResidentSim fast(line, shapes, policy);
    for (const auto &a : refs)
        fast(a);
    cache::SetResidentSim blocks(line, shapes, policy);
    feedBlocks(blocks, refs, {13, 1, 64, 7, 250, 3});

    uint64_t stores = 0;
    for (const auto &a : refs)
        stores += a.isWrite ? 1 : 0;
    EXPECT_EQ(fast.stores(), stores);
    EXPECT_EQ(blocks.stores(), stores);
    EXPECT_EQ(blocks.accesses(), refs.size());

    for (uint32_t sets = min_sets; sets <= max_sets; sets *= 2) {
        for (uint32_t assoc = 1; assoc <= max_assoc; ++assoc) {
            for (WritePolicy wp : kWrites) {
                cache::CacheConfig cfg{sets, assoc, line, 1, policy,
                                       wp};
                cache::CacheSim ref(cfg);
                for (const auto &a : refs)
                    ref(a);
                EXPECT_EQ(fast.misses(sets, assoc), ref.misses())
                    << cfg.name();
                // The oracle's write traffic under WB is its dirty
                // writebacks (the set-resident dirty-bit model);
                // under WT it is the store count, which needs no
                // simulation.
                uint64_t fast_traffic =
                    wp == WritePolicy::WriteBack
                        ? fast.writebacks(sets, assoc)
                        : fast.stores();
                EXPECT_EQ(fast_traffic, ref.writeTraffic())
                    << cfg.name();
                EXPECT_EQ(blocks.misses(sets, assoc), ref.misses())
                    << cfg.name() << " (accessBlock)";
                uint64_t block_traffic =
                    wp == WritePolicy::WriteBack
                        ? blocks.writebacks(sets, assoc)
                        : blocks.stores();
                EXPECT_EQ(block_traffic, ref.writeTraffic())
                    << cfg.name() << " (accessBlock)";
            }
        }
    }
}

TEST(PolicyMatrix, SetResidentMatchesOracleAcrossSeeds)
{
    // The tentpole claim: 16 independent traces, every policy, both
    // write modes, every (sets, assoc) — bit-identical to the
    // oracle on misses and write traffic.
    for (uint64_t stream = 0; stream < 16; ++stream)
        for (ReplacementPolicy policy : kPolicies)
            crossCheckPolicy(policy, 32, 16, 64, 4,
                             randomWriteTrace(20260808, stream));
}

TEST(PolicyMatrix, SetResidentMatchesOracleAcrossGeometries)
{
    for (uint32_t line : {8u, 16u, 64u})
        for (ReplacementPolicy policy : kPolicies)
            crossCheckPolicy(policy, line, 8, 32, 8,
                             randomWriteTrace(7, line));
}

TEST(PolicyMatrix, SetResidentMatchesOracleOnAdversarialTraces)
{
    // Pure thrash of one set (forces constant eviction) and a cyclic
    // working set one line larger than the associativity, both
    // store-heavy — the patterns where replacement policies differ
    // the most.
    std::vector<trace::Access> thrash;
    for (int i = 0; i < 1000; ++i)
        thrash.push_back({static_cast<uint64_t>(i % 5) * 32 * 16,
                          false, i % 2 == 0});
    std::vector<trace::Access> cyclic;
    for (int i = 0; i < 1000; ++i)
        cyclic.push_back(
            {static_cast<uint64_t>(i % 3) * 4096, false, i % 3 == 0});
    for (ReplacementPolicy policy : kPolicies) {
        crossCheckPolicy(policy, 32, 16, 64, 4, thrash);
        crossCheckPolicy(policy, 16, 8, 32, 2, cyclic);
        crossCheckPolicy(policy, 32, 1, 64, 4,
                         runHeavyTrace(8080, 10, 1500));
    }
}

TEST(PolicyMatrix, SetResidentLruAgreesWithSinglePass)
{
    // Three implementations of LRU — the stack-distance single-pass
    // simulator, the set-resident simulator, and the oracle — must
    // agree exactly; this pins the new simulator to the Cheetah
    // bank it extends.
    auto refs = randomWriteTrace(99, 0);
    cache::SinglePassSim stack(32, 16, 64, 4);
    cache::SetResidentSim resident(32, rectangle(16, 64, 4),
                                   ReplacementPolicy::LRU);
    for (const auto &a : refs) {
        stack.access(a.addr);
        resident(a);
    }
    for (uint32_t sets = 16; sets <= 64; sets *= 2)
        for (uint32_t assoc = 1; assoc <= 4; ++assoc)
            EXPECT_EQ(resident.misses(sets, assoc),
                      stack.misses(sets, assoc))
                << "sets=" << sets << " assoc=" << assoc;
}

TEST(PolicyMatrix, AccessBlockMatchesPerAccessCalls)
{
    // The SoA entry point the columnar replay feeds, against the
    // per-reference one, with kind codes (1 = write) in play: a
    // random trace in uneven blocks, and a run-heavy trace in
    // 10-reference blocks that split its same-line runs (stores at
    // a run's start, middle, only past a block boundary, or none).
    auto check = [](const std::vector<trace::Access> &refs,
                    const std::vector<size_t> &chunks) {
        for (ReplacementPolicy policy : kPolicies) {
            cache::SetResidentSim one(32, rectangle(16, 64, 4),
                                      policy);
            cache::SetResidentSim block(32, rectangle(16, 64, 4),
                                        policy);
            for (const auto &a : refs)
                one(a);
            feedBlocks(block, refs, chunks);
            EXPECT_EQ(block.accesses(), one.accesses());
            EXPECT_EQ(block.stores(), one.stores());
            for (uint32_t sets = 16; sets <= 64; sets *= 2)
                for (uint32_t assoc = 1; assoc <= 4; ++assoc) {
                    EXPECT_EQ(block.misses(sets, assoc),
                              one.misses(sets, assoc));
                    EXPECT_EQ(block.writebacks(sets, assoc),
                              one.writebacks(sets, assoc));
                }
        }
    };
    check(randomWriteTrace(5150, 2), {7, 100, 1, 500});
    auto runs = runHeavyTrace(5150, 10, 2000);
    check(runs, std::vector<size_t>(runs.size() / 10, 10));
}

TEST(PolicyMatrix, RandomReplacementIsDeterministic)
{
    // Two independent instances — and the per-config oracle — draw
    // from the same geometry-derived victim stream, so counts are
    // reproducible run to run (the basis of --jobs invariance).
    auto refs = randomWriteTrace(42, 11);
    cache::SetResidentSim a(32, rectangle(16, 64, 4),
                            ReplacementPolicy::Random);
    cache::SetResidentSim b(32, rectangle(16, 64, 4),
                            ReplacementPolicy::Random);
    for (const auto &r : refs) {
        a(r);
        b(r);
    }
    for (uint32_t sets = 16; sets <= 64; sets *= 2)
        for (uint32_t assoc = 1; assoc <= 4; ++assoc) {
            EXPECT_EQ(a.misses(sets, assoc), b.misses(sets, assoc));
            EXPECT_EQ(a.writebacks(sets, assoc),
                      b.writebacks(sets, assoc));
        }

    // A different policy seed must (in general) change the walk —
    // guard against the seed being silently ignored.
    cache::CacheConfig cfg{16, 4, 32, 1, ReplacementPolicy::Random,
                           WritePolicy::WriteBack};
    cache::CacheSim seeded(cfg, false, 0x1234);
    cache::CacheSim default_seeded(cfg);
    for (const auto &r : refs) {
        seeded(r);
        default_seeded(r);
    }
    cache::CacheSim again(cfg, false, 0x1234);
    for (const auto &r : refs)
        again(r);
    EXPECT_EQ(seeded.misses(), again.misses());
    EXPECT_EQ(seeded.writebacks(), again.writebacks());
}

/** Extended 3x2 space over a few geometries. */
dse::CacheSpace
extendedSpace()
{
    dse::CacheSpace space;
    space.sizesBytes = {2048, 4096, 8192};
    space.assocs = {1, 2, 4};
    space.lineSizes = {16, 32};
    space.replacements = {ReplacementPolicy::LRU,
                          ReplacementPolicy::FIFO,
                          ReplacementPolicy::Random};
    space.writePolicies = {WritePolicy::WriteBack,
                           WritePolicy::WriteThrough};
    return space;
}

/** Per-config oracle run of one cell over a reference list. */
cache::CacheSim
oracleRun(const cache::CacheConfig &cfg,
          const std::vector<trace::Access> &refs)
{
    cache::CacheSim ref(cfg);
    for (const auto &a : refs)
        ref(a);
    return ref;
}

TEST(PolicyMatrix, SimBankRoutesEveryCellToTheOracle)
{
    // The SimBank serves LRU misses from the Cheetah bank and
    // FIFO/random from the set-resident bank; every enumerated cell
    // (policy x write mode x geometry) must match a dedicated
    // CacheSim run — misses and write traffic.
    auto space = extendedSpace();
    auto refs = randomWriteTrace(321, 0);
    trace::ColumnarTraceBuffer cols;
    for (const auto &a : refs)
        cols(a);

    for (auto coverage : {dse::SimBank::Coverage::ContractedLines,
                          dse::SimBank::Coverage::Enumerated}) {
        dse::SimBank bank(space, coverage);
        EXPECT_TRUE(bank.extended());
        bank.simulate(cols, nullptr);
        const dse::FrozenBank frozen = bank.freeze();

        for (const auto &cfg : space.enumerate()) {
            ASSERT_TRUE(frozen.covers(cfg)) << cfg.name();
            cache::CacheSim ref = oracleRun(cfg, refs);
            EXPECT_EQ(frozen.misses(cfg),
                      static_cast<double>(ref.misses()))
                << cfg.name();
            EXPECT_EQ(frozen.writeTraffic(cfg),
                      static_cast<double>(ref.writeTraffic()))
                << cfg.name();
        }
    }
}

TEST(PolicyMatrix, SimBankSimulatesOnlyListedGeometries)
{
    // The set-resident bank holds the geometries the space lists at
    // each line size, not their bounding rectangle. Every listed
    // non-LRU cell is covered and matches the oracle; a geometry
    // inside the rectangle but not listed — an associativity off
    // the axis, or a set count outside its line size's band — is
    // not covered, and asking for it throws.
    auto space = extendedSpace();
    space.assocs = {1, 2, 4, 8};
    auto refs = randomWriteTrace(4242, 1);
    trace::ColumnarTraceBuffer cols(/*block_capacity=*/100);
    for (const auto &a : refs)
        cols(a);
    dse::SimBank bank(space);
    bank.simulate(cols, nullptr);
    const dse::FrozenBank frozen = bank.freeze();

    size_t checked = 0;
    for (const auto &cfg : space.enumerate()) {
        if (cfg.replacement == ReplacementPolicy::LRU)
            continue;
        ASSERT_TRUE(frozen.covers(cfg)) << cfg.name();
        cache::CacheSim ref = oracleRun(cfg, refs);
        EXPECT_EQ(frozen.misses(cfg),
                  static_cast<double>(ref.misses()))
            << cfg.name();
        EXPECT_EQ(frozen.writeTraffic(cfg),
                  static_cast<double>(ref.writeTraffic()))
            << cfg.name();
        ++checked;
    }
    EXPECT_EQ(checked, space.enumerate().size() * 2 / 3);

    // At 32-byte lines the space lists 8..256 sets; 512 sets is
    // listed only at 16-byte lines (8 KB direct-mapped).
    for (ReplacementPolicy policy :
         {ReplacementPolicy::FIFO, ReplacementPolicy::Random}) {
        for (cache::CacheConfig cfg :
             {cache::CacheConfig{64, 3, 32, 1, policy,
                                 WritePolicy::WriteBack},
              cache::CacheConfig{512, 1, 32, 1, policy,
                                 WritePolicy::WriteBack}}) {
            EXPECT_FALSE(frozen.covers(cfg)) << cfg.name();
            EXPECT_THROW(frozen.misses(cfg), FatalError) << cfg.name();
            EXPECT_THROW(frozen.writeTraffic(cfg), FatalError)
                << cfg.name();
        }
    }
    EXPECT_TRUE(frozen.covers(cache::CacheConfig{
        512, 1, 16, 1, ReplacementPolicy::FIFO,
        WritePolicy::WriteBack}));
}

TEST(PolicyMatrix, ExtendedColumnarSweepIsJobCountInvariant)
{
    // Serial fused decode, 2 jobs, 8 jobs: identical misses and
    // write traffic for every extended-space cell, and identical to
    // the per-config oracle.
    auto space = extendedSpace();
    auto refs = randomWriteTrace(555, 3);
    trace::ColumnarTraceBuffer cols(/*block_capacity=*/128);
    for (const auto &a : refs)
        cols(a);

    dse::SimBank serial_bank(space);
    serial_bank.simulate(cols, nullptr);
    const dse::FrozenBank serial = serial_bank.freeze();
    for (const auto &cfg : space.enumerate()) {
        cache::CacheSim ref = oracleRun(cfg, refs);
        EXPECT_EQ(serial.misses(cfg),
                  static_cast<double>(ref.misses()))
            << cfg.name();
        EXPECT_EQ(serial.writeTraffic(cfg),
                  static_cast<double>(ref.writeTraffic()))
            << cfg.name();
    }
    for (unsigned jobs : {2u, 8u}) {
        support::ThreadPool pool(jobs);
        for (auto coverage : {dse::SimBank::Coverage::ContractedLines,
                              dse::SimBank::Coverage::Enumerated}) {
            dse::SimBank parallel_bank(space, coverage);
            parallel_bank.simulate(cols, &pool);
            const dse::FrozenBank parallel = parallel_bank.freeze();
            for (const auto &cfg : space.enumerate()) {
                EXPECT_EQ(parallel.misses(cfg), serial.misses(cfg))
                    << cfg.name() << " jobs=" << jobs;
                EXPECT_EQ(parallel.writeTraffic(cfg),
                          serial.writeTraffic(cfg))
                    << cfg.name() << " jobs=" << jobs;
            }
        }
    }

    // The sweep counters are observables too: one per simulator,
    // Cheetah and set-resident alike, at jobs 1 and jobs 4.
    support::setMetricsEnabled(true);
    std::map<std::string, uint64_t> counters[2];
    for (unsigned jobs : {1u, 4u}) {
        support::metrics().resetValues();
        support::ThreadPool pool(jobs - 1);
        dse::SimBank bank(space);
        bank.simulate(cols, &pool);
        for (const auto &[name, value] :
             support::metrics().snapshot().counters) {
            if (name.rfind("sweep.", 0) == 0 && value != 0)
                counters[jobs == 4][name] = value;
        }
    }
    support::setMetricsEnabled(false);
    EXPECT_EQ(counters[0], counters[1]);
    EXPECT_EQ(counters[0]["sweep.runs"], serial_bank.simRuns());
    EXPECT_EQ(counters[0]["sweep.fifo.line32.accesses"], cols.size());
    EXPECT_EQ(counters[0]["sweep.line4.accesses"], cols.size());
}

TEST(PolicyMatrix, EnumerateExpandsAxesWithoutPerturbingClassic)
{
    dse::CacheSpace classic;
    classic.sizesBytes = {2048, 4096};
    classic.assocs = {1, 2};
    classic.lineSizes = {16, 32};
    EXPECT_FALSE(classic.extendedAxes());

    auto base = classic.enumerate();
    for (const auto &cfg : base) {
        EXPECT_EQ(cfg.replacement, ReplacementPolicy::LRU);
        EXPECT_EQ(cfg.write, WritePolicy::WriteBack);
        // Classic names carry no policy suffix (cache keys and walk
        // outputs stay byte-identical to the LRU-only era).
        EXPECT_EQ(cfg.name().find("/lru"), std::string::npos);
        EXPECT_EQ(cfg.name().find("/wb"), std::string::npos);
    }

    auto extended = classic;
    extended.replacements = {ReplacementPolicy::LRU,
                             ReplacementPolicy::FIFO,
                             ReplacementPolicy::Random};
    extended.writePolicies = {WritePolicy::WriteBack,
                              WritePolicy::WriteThrough};
    EXPECT_TRUE(extended.extendedAxes());
    auto cells = extended.enumerate();
    EXPECT_EQ(cells.size(), base.size() * 6);

    // The policy loops are innermost: cell i*6 has the geometry of
    // base[i], and all six policy combinations follow consecutively
    // with unique names.
    for (size_t i = 0; i < base.size(); ++i) {
        std::vector<std::string> names;
        for (size_t j = 0; j < 6; ++j) {
            const auto &cfg = cells[i * 6 + j];
            EXPECT_EQ(cfg.sets, base[i].sets);
            EXPECT_EQ(cfg.assoc, base[i].assoc);
            EXPECT_EQ(cfg.lineBytes, base[i].lineBytes);
            names.push_back(cfg.name());
        }
        for (size_t a = 0; a < names.size(); ++a)
            for (size_t b = a + 1; b < names.size(); ++b)
                EXPECT_NE(names[a], names[b]);
    }

    // Suffix spot checks.
    cache::CacheConfig fifo_wt{16, 2, 32, 1, ReplacementPolicy::FIFO,
                               WritePolicy::WriteThrough};
    EXPECT_NE(fifo_wt.name().find("/fifo"), std::string::npos);
    EXPECT_NE(fifo_wt.name().find("/wt"), std::string::npos);
    cache::CacheConfig rand_wb{16, 2, 32, 1,
                               ReplacementPolicy::Random,
                               WritePolicy::WriteBack};
    EXPECT_NE(rand_wb.name().find("/rand"), std::string::npos);
    EXPECT_EQ(rand_wb.name().find("/wb"), std::string::npos);
}

TEST(PolicyMatrix, WriteThroughAreaIsCheaperThanWriteBack)
{
    // The dirty bit is real silicon: dropping it must show up in the
    // area model (this is what makes write policies Pareto-visible
    // on the cost axis), while the write-back area stays the
    // LRU-only model's value.
    cache::CacheConfig wb{64, 2, 32};
    auto wt = wb;
    wt.write = WritePolicy::WriteThrough;
    EXPECT_LT(wt.areaCost(), wb.areaCost());
    auto fifo = wb;
    fifo.replacement = ReplacementPolicy::FIFO;
    EXPECT_EQ(fifo.areaCost(), wb.areaCost());
}

TEST(PolicyMatrix, IcacheDilationScalingStaysSaneForNonLru)
{
    // Non-LRU designs at dilation != 1 scale their simulated count
    // by the LRU twin's model ratio: the result must be finite,
    // non-negative, and exact at dilation 1.
    dse::CacheSpace space;
    space.sizesBytes = {2048, 4096};
    space.assocs = {1, 2};
    space.lineSizes = {32};
    space.replacements = {ReplacementPolicy::LRU,
                          ReplacementPolicy::FIFO};

    // Each reference is fetched as an instruction, then read or
    // written as data: the I$ sees the 1000 fetches. The traces are
    // short, so shrink the model granules so the AHH fits still see
    // several granules.
    auto refs = randomWriteTrace(77, 4);
    std::vector<trace::Access> fetches;
    for (const auto &a : refs)
        fetches.push_back({a.addr, true, false});
    dse::MemoryWalker walker(dse::MemorySpaces{space, space, space},
                             dse::StallModel{}, /*i_granule=*/250,
                             /*u_granule=*/500);
    walker.evaluate([&](const dse::TraceSink &sink) {
        for (size_t i = 0; i < refs.size(); ++i) {
            sink(fetches[i]);
            sink(refs[i]);
        }
    });
    const dse::IcacheEvaluator &eval = walker.icache();

    for (const auto &cfg : space.enumerate()) {
        double at_one = eval.misses(cfg, 1.0);
        EXPECT_EQ(at_one,
                  static_cast<double>(oracleRun(cfg, fetches).misses()))
            << cfg.name();
        for (double dilation : {1.3, 2.0}) {
            double scaled = eval.misses(cfg, dilation);
            EXPECT_TRUE(std::isfinite(scaled)) << cfg.name();
            EXPECT_GE(scaled, 0.0) << cfg.name();
        }
    }
}

TEST(PolicyMatrix, AcceleratorWorkloadsDifferentiatePolicies)
{
    // Acceptance criterion: on the new tiled-matmul and Zipf
    // workloads, the extended-space D$ Pareto front must contain at
    // least one point that is not a default (LRU/write-back) design
    // — i.e. the new axes change actual design decisions.
    using machine::MachineDesc;
    for (const char *app : {"matmul-tile8", "zipf-lut"}) {
        auto prog = workloads::buildAndProfile(
            workloads::specByName(app), 6000);
        auto ref = workloads::buildFor(
            prog, MachineDesc::fromName("1111"));
        trace::TraceGenerator gen(prog, ref.sched, ref.bin);

        dse::MemorySpaces spaces;
        dse::CacheSpace &space = spaces.dcache;
        space.sizesBytes = {1024, 2048, 4096, 8192};
        space.assocs = {1, 2, 4};
        space.lineSizes = {16, 32};
        space.replacements = {ReplacementPolicy::LRU,
                              ReplacementPolicy::FIFO,
                              ReplacementPolicy::Random};
        space.writePolicies = {WritePolicy::WriteBack,
                               WritePolicy::WriteThrough};

        dse::MemoryWalker walker(spaces, dse::StallModel{},
                                 /*i_granule=*/2000, /*u_granule=*/5000);
        walker.evaluate([&](const dse::TraceSink &sink) {
            gen.generate(trace::TraceKind::Unified, sink, 6000);
        });

        // The D$ front alone: misses at an 80-cycle penalty plus
        // write traffic at 6 cycles per write.
        dse::ParetoSet front;
        for (const auto &cfg : space.enumerate())
            front.insertPoint(dse::DesignPoint{
                "D$" + cfg.name(), cfg.areaCost(),
                walker.dcache().misses(cfg) * 80.0 +
                    walker.dcache().writeTraffic(cfg) * 6.0});
        bool has_non_default = false;
        for (const auto &point : front.points()) {
            if (point.id.find("/fifo") != std::string::npos ||
                point.id.find("/rand") != std::string::npos ||
                point.id.find("/wt") != std::string::npos)
                has_non_default = true;
        }
        EXPECT_TRUE(has_non_default)
            << app << ": front is all-default over "
            << front.points().size() << " point(s)";
    }
}

/** Flatten a Pareto set for exact comparison (order included). */
std::string
flatten(const dse::ParetoSet &set)
{
    std::ostringstream ss;
    ss.precision(17);
    for (const auto &p : set.points())
        ss << p.id << ";" << p.cost << ";" << p.time << "\n";
    return ss.str();
}

TEST(PolicyMatrix, ExtendedWalkIsJobCountInvariant)
{
    // The whole exploration — policy axes on, write cost in the
    // stall model, verification enabled — must stay bit-identical
    // across --jobs, exactly like the classic walk. This is the walk
    // -level guarantee that random replacement's geometry-derived
    // victim streams make possible.
    auto prog = workloads::buildAndProfile(
        workloads::specByName("zipf-dispatch"), 3000);

    dse::MemorySpaces spaces;
    dse::CacheSpace l1;
    l1.sizesBytes = {2048, 4096};
    l1.assocs = {1, 2};
    l1.lineSizes = {16, 32};
    spaces.icache = l1;
    spaces.dcache = l1;
    spaces.dcache.replacements = {ReplacementPolicy::LRU,
                                  ReplacementPolicy::FIFO,
                                  ReplacementPolicy::Random};
    spaces.dcache.writePolicies = {WritePolicy::WriteBack,
                                   WritePolicy::WriteThrough};
    dse::CacheSpace l2;
    l2.sizesBytes = {32768};
    l2.assocs = {4};
    l2.lineSizes = {64};
    spaces.ucache = l2;
    spaces.ucache.replacements = {ReplacementPolicy::LRU,
                                  ReplacementPolicy::FIFO};

    auto run = [&](unsigned jobs) {
        dse::Spacewalker::Options opts;
        opts.traceBlocks = 3000;
        opts.uGranule = 20000;
        opts.jobs = jobs;
        opts.verify = 1;
        opts.stalls.writeCost = 4.0;
        dse::Spacewalker walker(spaces, {"1111", "2211", "3221"},
                                opts);
        auto result = walker.explore(prog);
        EXPECT_TRUE(result.complete());
        EXPECT_TRUE(result.diagnostics.clean())
            << result.diagnostics.report();
        return flatten(result.processors) + "\n" +
               flatten(result.systems);
    };

    auto serial = run(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
}

} // namespace
} // namespace pico
