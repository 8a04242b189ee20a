/**
 * @file
 * Tests for the frozen reference set: its tables hold, in the
 * documented order, exactly what the bank's simulators count, it
 * survives encode/decode in memory and through a database file,
 * malformed entries do not decode, and a walker built from it answers
 * exactly as the walker that swept the class.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "cache/CacheSim.hpp"
#include "cache/SetResidentSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "dse/EvaluationCache.hpp"
#include "dse/Spacewalker.hpp"
#include "machine/MachineDesc.hpp"
#include "trace/TraceGenerator.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico::dse
{
namespace
{

constexpr uint64_t traceBlocks = 3000;
constexpr uint64_t iGranule = 7500;
constexpr uint64_t uGranule = 15000;

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

/** One class swept as Spacewalker's phase 2 sweeps it. */
struct SweptClass
{
    /** The class's set, its reference text size filled in. */
    ReferenceSet set;
    /** A walker over that set and its capture. */
    std::unique_ptr<MemoryWalker> walker;
};

SweptClass
sweepClass(const std::string &reference, const MemorySpaces &spaces,
           StallModel stalls = {})
{
    static const ir::Program base = workloads::buildAndProfile(
        workloads::specByName("unepic"), traceBlocks);
    auto mdes = machine::MachineDesc::fromName(reference);
    auto prog = workloads::programForClass(base, mdes, traceBlocks);
    auto build = workloads::buildFor(prog, mdes);
    trace::TraceGenerator gen(prog, build.sched, build.bin);
    SweptReference swept = sweepReference(
        spaces,
        [&gen](const TraceSink &sink) {
            gen.generate(trace::TraceKind::Unified, sink, traceBlocks);
        },
        iGranule, uGranule, nullptr);
    swept.set.textBytes = build.bin.textSize();
    SweptClass out;
    out.set = swept.set;
    out.walker = std::make_unique<MemoryWalker>(
        spaces, stalls, std::move(swept.set), std::move(swept.capture));
    return out;
}

/** The records a bank reads of a class's capture, in capture order. */
struct BankRecords
{
    std::vector<uint64_t> addrs;
    std::vector<uint8_t> kinds;
};

BankRecords
recordsOf(const trace::ColumnarTraceBuffer &capture,
          SimBank::Records records)
{
    BankRecords out;
    capture.replay([&](const trace::Access &a) {
        if (records == SimBank::Records::All ||
            a.isInstr == (records == SimBank::Records::Instructions)) {
            out.addrs.push_back(a.addr);
            out.kinds.push_back(trace::recordKind(a));
        }
    });
    return out;
}

/** Feed a bank's records to one simulator. */
template <typename Sim>
void
replay(const BankRecords &records, Sim &sim)
{
    sim.accessBlock(records.addrs.data(), records.kinds.data(),
                    records.addrs.size());
}

/** Write-backs of one CacheSim pass over a bank's records. */
uint64_t
oracleWritebacks(const BankRecords &records, const cache::CacheConfig &cfg)
{
    cache::CacheSim sim(cfg);
    for (size_t i = 0; i < records.addrs.size(); ++i)
        sim.access(records.addrs[i], records.kinds[i] == trace::kindWrite);
    return sim.writebacks();
}

/**
 * Every table cell of one frozen bank, in the documented order,
 * against the bank's simulators re-run over the records it reads of
 * the class's capture. A `ref;` entry stores its tables without
 * geometry, so this order is part of the entry format: the miss
 * table holds the stacks by line size,
 * set counts ascending and then associativity ascending, then each
 * non-LRU resident's shapes; the write-back table holds every
 * resident's shapes. Each cell's configuration must read its own
 * table slot (a resident's shape under both write policies), and
 * every enumerated configuration must be covered. The stacks count
 * LRU write-backs, so those are checked against one CacheSim pass
 * per geometry instead of a re-run of the bank's own kernel.
 */
void
expectFrozenMatchesLive(const SubsystemEvaluator &eval,
                        SimBank::Coverage coverage,
                        SimBank::Records records, const char *what)
{
    SCOPED_TRACE(what);
    const FrozenBank &frozen = eval.bank();
    const BankLayout layout(eval.space(), coverage);
    const BankRecords capture = recordsOf(eval.capturedTrace(), records);
    EXPECT_EQ(frozen.accesses(), capture.addrs.size());
    EXPECT_EQ(frozen.extended(), !layout.residents.empty());
    const auto &misses = frozen.missTable();
    const auto &writebacks = frozen.writebackTable();
    ASSERT_EQ(misses.size(), layout.missCount());
    ASSERT_EQ(writebacks.size(), layout.writebackCount());

    size_t m = 0;
    uint32_t prev_line = 0;
    for (const auto &s : layout.stacks) {
        EXPECT_GT(s.line, prev_line);
        prev_line = s.line;
        cache::SinglePassSim sim(s.line, s.minSets, s.maxSets, s.maxAssoc);
        replay(capture, sim);
        for (uint32_t sets = s.minSets; sets <= s.maxSets; sets *= 2) {
            for (uint32_t assoc = 1; assoc <= s.maxAssoc; ++assoc, ++m) {
                const cache::CacheConfig cfg{sets, assoc, s.line};
                ASSERT_LT(m, misses.size());
                EXPECT_EQ(misses[m],
                          static_cast<double>(sim.misses(sets, assoc)))
                    << cfg.name();
                EXPECT_EQ(frozen.misses(cfg), misses[m]) << cfg.name();
            }
        }
    }
    size_t w = 0;
    const auto stores = static_cast<uint64_t>(std::count(
        capture.kinds.begin(), capture.kinds.end(), trace::kindWrite));
    if (frozen.extended()) {
        EXPECT_EQ(frozen.stores(), stores);
    }
    for (const auto &r : layout.residents) {
        EXPECT_TRUE(std::is_sorted(r.shapes.begin(), r.shapes.end()));
        const bool lru = r.policy == cache::ReplacementPolicy::LRU;
        std::optional<cache::SetResidentSim> sim;
        if (!lru) {
            sim.emplace(r.line, r.shapes, r.policy);
            replay(capture, *sim);
            EXPECT_EQ(sim->stores(), stores);
        }
        for (const auto &g : r.shapes) {
            cache::CacheConfig cfg{g.sets, g.assoc, r.line, 1, r.policy,
                                   cache::WritePolicy::WriteBack};
            if (!lru) {
                ASSERT_LT(m, misses.size());
                EXPECT_EQ(misses[m],
                          static_cast<double>(sim->misses(g.sets, g.assoc)))
                    << cfg.name();
                EXPECT_EQ(frozen.misses(cfg), misses[m]) << cfg.name();
                ++m;
            }
            ASSERT_LT(w, writebacks.size());
            const uint64_t expect = lru ? oracleWritebacks(capture, cfg)
                                        : sim->writebacks(g.sets, g.assoc);
            EXPECT_EQ(writebacks[w], static_cast<double>(expect))
                << cfg.name();
            EXPECT_EQ(frozen.writeTraffic(cfg), writebacks[w]) << cfg.name();
            ++w;
            cfg.write = cache::WritePolicy::WriteThrough;
            EXPECT_EQ(frozen.writeTraffic(cfg), static_cast<double>(stores))
                << cfg.name();
        }
    }
    EXPECT_EQ(m, misses.size());
    EXPECT_EQ(w, writebacks.size());
    for (const auto &cfg : eval.space().enumerate())
        EXPECT_TRUE(frozen.covers(cfg)) << cfg.name();
}

TEST(ReferenceSet, FrozenBanksMatchLiveBanks)
{
    struct Case
    {
        const char *reference;
        MemorySpaces spaces;
    };
    for (const auto &c : {Case{"1111", MemorySpaces{}},
                          Case{"1111", extendedSpaces()},
                          Case{"1111p", MemorySpaces{}}}) {
        SCOPED_TRACE(std::string(c.reference) +
                     (c.spaces.dcache.extendedAxes() ? " extended"
                                                      : " default"));
        auto swept = sweepClass(c.reference, c.spaces);
        const MemoryWalker &w = *swept.walker;
        expectFrozenMatchesLive(w.icache(), IcacheEvaluator::coverage,
                                SimBank::Records::Instructions, "I$");
        expectFrozenMatchesLive(w.dcache(), DcacheEvaluator::coverage,
                                SimBank::Records::Data, "D$");
        expectFrozenMatchesLive(w.ucache(), UcacheEvaluator::coverage,
                                SimBank::Records::All, "U$");
        // The dilation model reads the frozen oracle at contracted
        // line sizes too, exactly as it reads a direct simulation.
        const auto &ip = w.icache().params();
        core::DilationModel model(ip, ip, ip);
        const BankRecords fetches = recordsOf(
            w.icache().capturedTrace(), SimBank::Records::Instructions);
        std::map<uint32_t, cache::SinglePassSim> sims;
        for (const auto &s :
             BankLayout(c.spaces.icache, IcacheEvaluator::coverage).stacks) {
            auto it = sims.try_emplace(s.line, s.line, s.minSets, s.maxSets,
                                       s.maxAssoc)
                          .first;
            replay(fetches, it->second);
        }
        core::MissOracle direct = [&sims](const cache::CacheConfig &cfg) {
            return static_cast<double>(sims.at(cfg.lineBytes).misses(cfg));
        };
        for (const auto &cfg : c.spaces.icache.enumerate()) {
            for (double d : {1.3, 1.75, 2.4})
                EXPECT_EQ(w.icache().misses(cfg, d),
                          model.estimateIcacheMisses(cfg, d, direct))
                    << cfg.name() << " at " << d;
        }
        // The walker answers from the set it was built from.
        const ReferenceSet &set = swept.set;
        EXPECT_EQ(set.iParams, w.icache().params());
        EXPECT_EQ(set.uiParams, w.ucache().instrParams());
        EXPECT_EQ(set.udParams, w.ucache().dataParams());
        EXPECT_EQ(set.icache, w.icache().bank());
        EXPECT_EQ(set.dcache, w.dcache().bank());
        EXPECT_EQ(set.ucache, w.ucache().bank());
    }
}

TEST(ReferenceSet, CapturedAhhParametersArePinned)
{
    // unepic's 1111 class. Each parameter is a mean of integer counts
    // and their ratios, so its bits do not depend on the platform's
    // libm: a change to granule processing that moves one bit fails
    // here.
    auto swept = sweepClass("1111", MemorySpaces{});
    EXPECT_EQ(swept.set.iParams,
              (core::ComponentParams{0x1.0c4p+10, 0x0p+0,
                                     0x1.4ec4b73dfa9c5p+5}));
    EXPECT_EQ(swept.set.uiParams,
              (core::ComponentParams{0x1.73cp+10, 0x0p+0,
                                     0x1.43dfe651db15ap+5}));
    EXPECT_EQ(swept.set.udParams,
              (core::ComponentParams{0x1.86fp+11, 0x1.5b5cedb5a7b39p-2,
                                     0x1.7add18f070be8p+1}));
}

/** A table's length, sum and index-weighted sum of (i+1)·value. */
struct TablePin
{
    size_t length = 0;
    uint64_t sum = 0;
    uint64_t weighted = 0;

    bool operator==(const TablePin &) const = default;
};

TablePin
pinOf(const std::vector<double> &table)
{
    TablePin pin{table.size()};
    for (size_t i = 0; i < table.size(); ++i) {
        const auto count = static_cast<uint64_t>(table[i]);
        pin.sum += count;
        pin.weighted += (i + 1) * count;
    }
    return pin;
}

void
PrintTo(const TablePin &pin, std::ostream *os)
{
    *os << "{" << pin.length << ", " << pin.sum << ", " << pin.weighted
        << "}";
}

TEST(ReferenceSet, ExtendedBanksArePinned)
{
    // unepic's 1111 class with the D$ and U$ policy axes on: every
    // miss and write-back table, LRU write-backs included, by its
    // length, sum and index-weighted sum. The counts are integers, so
    // the pin does not depend on the platform, and a count that moves
    // to another cell changes the weighted sum.
    auto swept = sweepClass("1111", extendedSpaces());
    const ReferenceSet &set = swept.set;
    EXPECT_EQ(pinOf(set.dcache.missTable()),
              (TablePin{204, 867204, 86066614}));
    EXPECT_EQ(pinOf(set.dcache.writebackTable()),
              (TablePin{162, 238370, 18957632}));
    EXPECT_EQ(pinOf(set.ucache.missTable()),
              (TablePin{312, 1065906, 156332105}));
    EXPECT_EQ(pinOf(set.ucache.writebackTable()),
              (TablePin{180, 119545, 10460362}));
    EXPECT_EQ(set.dcache.accesses(), 10302u);
    EXPECT_EQ(set.ucache.accesses(), 44244u);
    EXPECT_EQ(set.dcache.stores(), 3343u);
    EXPECT_EQ(set.ucache.stores(), 3343u);
}

TEST(ReferenceSet, DefaultSpacesHoldFourHundredEightyEightMissCounts)
{
    // I$ 5 lines x 10 set counts x 4 ways; D$ 3 lines x 8 x 4; U$
    // 3 x 8 x 8. A classic space has no write-back table.
    MemorySpaces spaces;
    EXPECT_EQ(BankLayout(spaces.icache, IcacheEvaluator::coverage)
                  .missCount(),
              200u);
    EXPECT_EQ(BankLayout(spaces.dcache, DcacheEvaluator::coverage)
                  .missCount(),
              96u);
    EXPECT_EQ(BankLayout(spaces.ucache, UcacheEvaluator::coverage)
                  .missCount(),
              192u);
    EXPECT_EQ(BankLayout(spaces.ucache, UcacheEvaluator::coverage)
                  .writebackCount(),
              0u);
}

TEST(ReferenceSet, EncodeDecodeRoundTripsInMemoryAndThroughAFile)
{
    for (const MemorySpaces &spaces : {MemorySpaces{}, extendedSpaces()}) {
        auto swept = sweepClass("1111", spaces);
        const ReferenceSet &set = swept.set;
        const auto encoded = set.encode();
        auto decoded =
            ReferenceSet::decode(encoded, spaces, iGranule, uGranule);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(*decoded, set);

        auto path = std::filesystem::temp_directory_path() /
                    "pico_reference_set_roundtrip.db";
        std::filesystem::remove(path);
        {
            EvaluationCache cache(path.string());
            cache.store("ref;roundtrip", encoded);
            cache.flush();
        }
        EvaluationCache reloaded(path.string());
        std::vector<double> values;
        ASSERT_TRUE(reloaded.lookup("ref;roundtrip", values));
        EXPECT_EQ(values, encoded);
        auto from_file =
            ReferenceSet::decode(values, spaces, iGranule, uGranule);
        ASSERT_TRUE(from_file.has_value());
        EXPECT_EQ(*from_file, set);
        std::filesystem::remove(path);
    }
}

TEST(ReferenceSet, MalformedEntriesDoNotDecode)
{
    MemorySpaces spaces;
    auto swept = sweepClass("1111", spaces);
    const auto good = swept.set.encode();
    // The I$ parameters u(1), p1, lav follow version and text size;
    // the I$ bank starts after the nine parameters.
    const size_t i_u1 = 2, i_p1 = 3, i_lav = 4;
    const size_t i_accesses = 11;
    const size_t i_first_miss = i_accesses + 3;
    auto rejects = [&spaces](const std::vector<double> &v,
                             const char *why) {
        std::string reason;
        EXPECT_FALSE(ReferenceSet::decode(v, spaces, iGranule, uGranule,
                                          &reason))
            << why;
        EXPECT_FALSE(reason.empty()) << why;
    };
    auto edit = [&good](size_t at, double value) {
        auto v = good;
        v[at] = value;
        return v;
    };
    rejects({}, "empty");
    rejects(edit(0, 2), "unknown version");
    rejects(edit(1, 0), "no text");
    rejects(edit(1, 1.5), "fractional text size");
    // Parameters outside the AHH domain that the verifier reports.
    rejects(edit(i_lav, 0.14102511522632), "I$ lav below 1");
    rejects(edit(i_p1, 8), "I$ p1 above 1");
    rejects(edit(i_u1, iGranule + 1.0), "I$ u(1) above its granule");
    rejects(edit(i_u1, std::nan("")), "non-finite I$ u(1)");
    rejects(edit(i_first_miss, good[i_accesses] + 1),
            "count above accesses");
    rejects(edit(i_first_miss, -1), "negative count");
    rejects(edit(i_first_miss, 0.5), "fractional count");
    rejects(edit(i_accesses + 2, 199), "short I$ table");
    rejects(std::vector<double>(good.begin(), good.end() - 1),
            "truncated");
    auto longer = good;
    longer.push_back(0);
    rejects(longer, "trailing value");
    // The same entry read for other spaces has the wrong lengths.
    EXPECT_FALSE(ReferenceSet::decode(good, extendedSpaces(), iGranule,
                                      uGranule));
    EXPECT_TRUE(ReferenceSet::decode(good, spaces, iGranule, uGranule));
}

TEST(ReferenceSet, FrozenWalkerAnswersAsTheSweptOne)
{
    for (const MemorySpaces &spaces : {MemorySpaces{}, extendedSpaces()}) {
        StallModel stalls;
        stalls.writeCost = spaces.dcache.extendedAxes() ? 6.0 : 0.0;
        auto swept = sweepClass("1111", spaces, stalls);
        auto set = ReferenceSet::decode(swept.set.encode(), spaces, iGranule,
                                        uGranule);
        ASSERT_TRUE(set.has_value());
        MemoryWalker from_set(spaces, stalls, *set);
        for (double d : {1.0, 1.3, 2.1}) {
            for (uint32_t ports : {0u, 1u}) {
                auto a = swept.walker->pareto(d, ports).points();
                auto b = from_set.pareto(d, ports).points();
                ASSERT_EQ(a.size(), b.size());
                for (size_t i = 0; i < a.size(); ++i) {
                    EXPECT_EQ(a[i].id, b[i].id);
                    EXPECT_EQ(a[i].cost, b[i].cost);
                    EXPECT_EQ(a[i].time, b[i].time);
                }
            }
        }
        // Its banks hold the swept tables; it captured no trace.
        EXPECT_EQ(from_set.icache().bank(), swept.walker->icache().bank());
        EXPECT_EQ(from_set.dcache().bank(), swept.walker->dcache().bank());
        EXPECT_EQ(from_set.ucache().bank(), swept.walker->ucache().bank());
        EXPECT_THROW(from_set.ucache().capturedTrace(), FatalError);
        // Outside coverage fails as in the walker that swept it.
        cache::CacheConfig outside{8192, 1, 256};
        EXPECT_THROW(from_set.dcache().misses(outside), FatalError);
        EXPECT_THROW(swept.walker->dcache().misses(outside), FatalError);
    }
}

} // namespace
} // namespace pico::dse
