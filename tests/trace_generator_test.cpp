/**
 * @file
 * Unit tests for the trace generator: trace kinds, word tiling of
 * block ranges, dilated-trace construction, machine-dependent data
 * references (spills, speculation), and event-trace invariance
 * across machines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "trace/TraceGenerator.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico::trace
{
namespace
{

using machine::MachineDesc;

struct Fixture
{
    ir::Program prog;
    workloads::MachineBuild build;

    explicit Fixture(const char *machine = "1111", uint64_t seed = 42)
    {
        workloads::AppSpec spec;
        spec.seed = seed;
        prog = workloads::buildAndProfile(spec, 5000);
        build = workloads::buildFor(prog, MachineDesc::fromName(machine));
    }

    TraceGenerator
    gen() const
    {
        return TraceGenerator(prog, build.sched, build.bin);
    }
};

TEST(TraceGenerator, InstructionTraceIsInstructionOnly)
{
    Fixture fx;
    auto accs = fx.gen().collect(TraceKind::Instruction, 500);
    ASSERT_FALSE(accs.empty());
    for (const auto &a : accs) {
        EXPECT_TRUE(a.isInstr);
        EXPECT_FALSE(a.isWrite);
        EXPECT_EQ(a.addr % 4, 0u);
    }
}

TEST(TraceGenerator, DataTraceIsDataOnly)
{
    Fixture fx;
    auto accs = fx.gen().collect(TraceKind::Data, 500);
    ASSERT_FALSE(accs.empty());
    for (const auto &a : accs)
        EXPECT_FALSE(a.isInstr);
}

TEST(TraceGenerator, UnifiedContainsBoth)
{
    Fixture fx;
    auto accs = fx.gen().collect(TraceKind::Unified, 500);
    bool has_instr = false, has_data = false;
    for (const auto &a : accs) {
        has_instr |= a.isInstr;
        has_data |= !a.isInstr;
    }
    EXPECT_TRUE(has_instr);
    EXPECT_TRUE(has_data);
}

TEST(TraceGenerator, UnifiedIsSupersetCountOfComponents)
{
    // The walk emulates one unified trace per trace-equivalence
    // class and splits it by isInstr, so the instruction and data
    // traces must be exactly those subsequences — element by
    // element, for every app and both class reference processors.
    auto same = [](const Access &x, const Access &y) {
        return x.addr == y.addr && x.isInstr == y.isInstr &&
               x.isWrite == y.isWrite;
    };
    for (const auto &spec : workloads::paperSuite()) {
        auto base = workloads::buildAndProfile(spec, 2000);
        for (const char *machine : {"1111", "1111p"}) {
            auto mdes = MachineDesc::fromName(machine);
            auto prog = workloads::programForClass(base, mdes, 2000);
            auto build = workloads::buildFor(prog, mdes);
            TraceGenerator gen(prog, build.sched, build.bin);
            std::vector<Access> split[2]; // indexed by isInstr
            for (const auto &a : gen.collect(TraceKind::Unified, 2000))
                split[a.isInstr].push_back(a);
            auto i = gen.collect(TraceKind::Instruction, 2000);
            auto d = gen.collect(TraceKind::Data, 2000);
            EXPECT_TRUE(std::equal(i.begin(), i.end(), split[1].begin(),
                                   split[1].end(), same))
                << spec.name << " on " << machine;
            EXPECT_TRUE(std::equal(d.begin(), d.end(), split[0].begin(),
                                   split[0].end(), same))
                << spec.name << " on " << machine;
        }
    }
}

TEST(TraceGenerator, InstructionWordsTileBlockRanges)
{
    // Every fetched word must lie inside some placed block, and the
    // first visited block must be fetched from start to end.
    Fixture fx;
    auto accs = fx.gen().collect(TraceKind::Instruction, 1);
    const auto &entry = fx.build.bin.block(fx.prog.entryFunction, 0);
    ASSERT_EQ(accs.size(), entry.sizeBytes / 4);
    for (size_t i = 0; i < accs.size(); ++i)
        EXPECT_EQ(accs[i].addr, entry.startAddr + i * 4);
}

TEST(TraceGenerator, DilationOneIsIdentity)
{
    Fixture fx;
    auto plain = fx.gen().collect(TraceKind::Unified, 800);
    auto dilated = fx.gen().collect(TraceKind::Unified, 800, 1.0);
    ASSERT_EQ(plain.size(), dilated.size());
    for (size_t i = 0; i < plain.size(); ++i)
        EXPECT_EQ(plain[i].addr, dilated[i].addr);
}

TEST(TraceGenerator, DilationScalesInstructionCount)
{
    Fixture fx;
    auto plain = fx.gen().collect(TraceKind::Instruction, 800);
    auto dilated = fx.gen().collect(TraceKind::Instruction, 800, 2.0);
    double ratio = static_cast<double>(dilated.size()) /
                   static_cast<double>(plain.size());
    EXPECT_NEAR(ratio, 2.0, 0.02);
}

TEST(TraceGenerator, DilationLeavesDataUntouched)
{
    Fixture fx;
    auto plain = fx.gen().collect(TraceKind::Data, 800);
    auto dilated = fx.gen().collect(TraceKind::Data, 800, 3.0);
    ASSERT_EQ(plain.size(), dilated.size());
    for (size_t i = 0; i < plain.size(); ++i)
        EXPECT_EQ(plain[i].addr, dilated[i].addr);
}

TEST(TraceGenerator, DilatedBlocksDoNotOverlap)
{
    // Under dilation, distinct blocks' instruction words must stay
    // distinct (the lemma's non-overlap construction).
    Fixture fx;
    const auto &bin = fx.build.bin;
    double d = 1.37;
    auto scale = [d](uint64_t off) {
        return 4 * static_cast<uint64_t>(std::llround(
                       static_cast<double>(off) * d / 4.0));
    };
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    for (uint32_t f = 0; f < bin.numFunctions(); ++f) {
        for (uint32_t b = 0; b < bin.numBlocks(f); ++b) {
            const auto &blk = bin.block(f, b);
            uint64_t off = blk.startAddr - linker::LinkedBinary::textBase;
            ranges.emplace_back(scale(off),
                                scale(off + blk.sizeBytes));
        }
    }
    std::sort(ranges.begin(), ranges.end());
    for (size_t i = 1; i < ranges.size(); ++i)
        EXPECT_LE(ranges[i - 1].second, ranges[i].first);
}

TEST(TraceGenerator, EventTraceInvariantAcrossMachines)
{
    // Assumption 1: the data addresses of non-spill, non-speculated
    // references are identical for every machine.
    Fixture narrow("1111", 7);
    Fixture wide("6332", 7);

    // The block sequences (and the event-trace data refs) are
    // machine independent by construction; verify directly.
    auto blocks = [](const ir::Program &prog) {
        std::vector<std::pair<uint32_t, uint32_t>> seq;
        ExecutionEngine engine(prog);
        engine.run(
            [&seq](uint32_t f, uint32_t b,
                   const std::vector<DataRef> &) {
                seq.emplace_back(f, b);
            },
            2000);
        return seq;
    };
    EXPECT_EQ(blocks(narrow.prog), blocks(wide.prog));
}

TEST(TraceGenerator, WiderMachineAddsDataReferences)
{
    // Speculation and spills add (a few) data references on wider
    // machines; the growth stays modest (table 2 regime).
    Fixture narrow("1111", 13);
    Fixture wide("6332", 13);
    auto dn = narrow.gen().collect(TraceKind::Data, 3000);
    auto dw = wide.gen().collect(TraceKind::Data, 3000);
    EXPECT_GE(dw.size(), dn.size());
    EXPECT_LT(static_cast<double>(dw.size()) /
                  static_cast<double>(dn.size()),
              1.5);
}

TEST(TraceGenerator, SpillReferencesHitTheStackRegion)
{
    workloads::AppSpec spec;
    spec.seed = 99;
    spec.minOpsPerBlock = 18;
    spec.maxOpsPerBlock = 26;
    spec.depDensity = 0.15; // high ILP -> pressure on wide machines
    auto prog = workloads::buildAndProfile(spec, 4000);
    auto build = workloads::buildFor(prog,
                                     MachineDesc::fromName("6332"));
    TraceGenerator gen(prog, build.sched, build.bin);
    bool saw_stack = false;
    gen.generate(TraceKind::Data,
                 [&saw_stack](const Access &a) {
                     if (a.addr >= TraceGenerator::stackBase)
                         saw_stack = true;
                 },
                 3000);
    uint64_t spills = 0;
    for (const auto &f : build.sched.functions)
        for (const auto &b : f.blocks)
            spills += b.numSpills;
    EXPECT_EQ(saw_stack, spills > 0);
}

TEST(TraceGenerator, GenerateReturnsEmittedCount)
{
    Fixture fx;
    uint64_t counted = 0;
    uint64_t returned = fx.gen().generate(
        TraceKind::Unified,
        [&counted](const Access &) { ++counted; }, 400);
    EXPECT_EQ(counted, returned);
}

TEST(TraceGenerator, RejectsNonPositiveDilation)
{
    Fixture fx;
    auto gen = fx.gen();
    EXPECT_THROW(gen.collect(TraceKind::Instruction, 10, 0.0),
                 FatalError);
}

} // namespace
} // namespace pico::trace
