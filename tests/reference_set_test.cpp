/**
 * @file
 * Tests for the frozen reference set: its tables equal the live banks
 * bit for bit, it survives encode/decode in memory and through a
 * database file, malformed entries do not decode, and a walker built
 * from it answers exactly as the walker that swept the class.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

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
    std::unique_ptr<MemoryWalker> walker;
    uint64_t textBytes = 0;
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
    SweptClass out;
    out.walker = std::make_unique<MemoryWalker>(spaces, stalls, iGranule,
                                                uGranule);
    trace::TraceGenerator gen(prog, build.sched, build.bin);
    out.walker->evaluate([&gen](const TraceSink &sink) {
        gen.generate(trace::TraceKind::Unified, sink, traceBlocks);
    });
    out.textBytes = build.bin.textSize();
    return out;
}

/** Every query the walk makes of one bank, frozen against live. */
void
expectFrozenMatchesLive(const SubsystemEvaluator &eval,
                        SimBank::Coverage coverage, const char *what)
{
    SCOPED_TRACE(what);
    const SimBank &live = eval.bank();
    const FrozenBank &frozen = eval.frozen();
    const BankLayout layout(eval.space(), coverage);
    EXPECT_EQ(frozen.accesses(), live.accesses());
    EXPECT_EQ(frozen.extended(), live.extended());
    if (live.extended()) {
        EXPECT_EQ(frozen.stores(), live.stores());
    }
    auto cells = layout.missCells();
    ASSERT_EQ(frozen.missTable().size(), cells.size());
    for (const auto &cfg : cells) {
        EXPECT_TRUE(live.covers(cfg)) << cfg.name();
        EXPECT_TRUE(frozen.covers(cfg)) << cfg.name();
        EXPECT_EQ(frozen.misses(cfg), live.misses(cfg)) << cfg.name();
    }
    // Every enumerated cell under both write policies, then every
    // set-resident geometry's write-back count.
    for (auto cfg : eval.space().enumerate()) {
        EXPECT_EQ(frozen.covers(cfg), live.covers(cfg)) << cfg.name();
        EXPECT_EQ(frozen.misses(cfg), live.misses(cfg)) << cfg.name();
        for (auto wp : {cache::WritePolicy::WriteBack,
                        cache::WritePolicy::WriteThrough}) {
            if (wp == cache::WritePolicy::WriteThrough &&
                !live.extended())
                continue;
            cfg.write = wp;
            EXPECT_EQ(frozen.writeTraffic(cfg), live.writeTraffic(cfg))
                << cfg.name();
        }
    }
    for (const auto &cfg : layout.writebackCells())
        EXPECT_EQ(frozen.writeTraffic(cfg), live.writeTraffic(cfg))
            << cfg.name();
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
                                "I$");
        expectFrozenMatchesLive(w.dcache(), DcacheEvaluator::coverage,
                                "D$");
        expectFrozenMatchesLive(w.ucache(), UcacheEvaluator::coverage,
                                "U$");
        // The dilation model reads the frozen oracle exactly as it
        // read the live one, at contracted line sizes included.
        const auto &ip = w.icache().params();
        core::DilationModel model(ip, ip, ip);
        const SimBank &live = w.icache().bank();
        core::MissOracle live_oracle =
            [&live](const cache::CacheConfig &cfg) {
                return live.misses(cfg);
            };
        for (const auto &cfg : c.spaces.icache.enumerate()) {
            for (double d : {1.3, 1.75, 2.4})
                EXPECT_EQ(w.icache().misses(cfg, d),
                          model.estimateIcacheMisses(cfg, d, live_oracle))
                    << cfg.name() << " at " << d;
        }
        auto set = w.freeze(swept.textBytes);
        EXPECT_EQ(set.iParams, w.icache().params());
        EXPECT_EQ(set.uiParams, w.ucache().instrParams());
        EXPECT_EQ(set.udParams, w.ucache().dataParams());
        EXPECT_EQ(set.textBytes, swept.textBytes);
    }
}

TEST(ReferenceSet, DefaultSpacesHoldFourHundredEightyEightMissCounts)
{
    // I$ 5 lines x 10 set counts x 4 ways; D$ 3 lines x 8 x 4; U$
    // 3 x 8 x 8. A classic space has no write-back table.
    MemorySpaces spaces;
    EXPECT_EQ(BankLayout(spaces.icache, IcacheEvaluator::coverage)
                  .missCells()
                  .size(),
              200u);
    EXPECT_EQ(BankLayout(spaces.dcache, DcacheEvaluator::coverage)
                  .missCells()
                  .size(),
              96u);
    EXPECT_EQ(BankLayout(spaces.ucache, UcacheEvaluator::coverage)
                  .missCells()
                  .size(),
              192u);
    EXPECT_TRUE(BankLayout(spaces.ucache, UcacheEvaluator::coverage)
                    .writebackCells()
                    .empty());
}

TEST(ReferenceSet, EncodeDecodeRoundTripsInMemoryAndThroughAFile)
{
    for (const MemorySpaces &spaces : {MemorySpaces{}, extendedSpaces()}) {
        auto swept = sweepClass("1111", spaces);
        const auto set = swept.walker->freeze(swept.textBytes);
        const auto encoded = set.encode();
        auto decoded = ReferenceSet::decode(encoded, spaces);
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
        auto from_file = ReferenceSet::decode(values, spaces);
        ASSERT_TRUE(from_file.has_value());
        EXPECT_EQ(*from_file, set);
        std::filesystem::remove(path);
    }
}

TEST(ReferenceSet, MalformedEntriesDoNotDecode)
{
    MemorySpaces spaces;
    auto swept = sweepClass("1111", spaces);
    const auto good = swept.walker->freeze(swept.textBytes).encode();
    // The I$ bank starts after version, text size and nine params.
    const size_t i_accesses = 11;
    const size_t i_first_miss = i_accesses + 3;
    auto rejects = [&spaces](const std::vector<double> &v,
                             const char *why) {
        std::string reason;
        EXPECT_FALSE(ReferenceSet::decode(v, spaces, &reason)) << why;
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
    EXPECT_FALSE(ReferenceSet::decode(good, extendedSpaces()));
    EXPECT_TRUE(ReferenceSet::decode(good, spaces));
}

TEST(ReferenceSet, FrozenWalkerAnswersAsTheSweptOne)
{
    for (const MemorySpaces &spaces : {MemorySpaces{}, extendedSpaces()}) {
        StallModel stalls;
        stalls.writeCost = spaces.dcache.extendedAxes() ? 6.0 : 0.0;
        auto swept = sweepClass("1111", spaces, stalls);
        auto set = ReferenceSet::decode(
            swept.walker->freeze(swept.textBytes).encode(), spaces);
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
        EXPECT_TRUE(from_set.icache().evaluated());
        EXPECT_THROW(from_set.icache().bank(), FatalError);
        EXPECT_THROW(from_set.ucache().capturedTrace(), FatalError);
        // Outside coverage fails as the live bank does.
        cache::CacheConfig outside{8192, 1, 256};
        EXPECT_THROW(from_set.dcache().misses(outside), FatalError);
        EXPECT_THROW(swept.walker->dcache().bank().misses(outside),
                     FatalError);
    }
}

} // namespace
} // namespace pico::dse
