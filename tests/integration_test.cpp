/**
 * @file
 * End-to-end integration tests: the full paper pipeline on a suite
 * application — compile for reference and target machines, generate
 * traces, simulate actual / dilated / estimated misses, and check
 * the relationships the paper's evaluation section reports.
 */

#include <gtest/gtest.h>

#include "cache/CacheSim.hpp"
#include "core/DilationModel.hpp"
#include "core/TraceModel.hpp"
#include "dse/Evaluators.hpp"
#include "dse/Spacewalker.hpp"
#include "linker/LinkedBinary.hpp"
#include "trace/TraceGenerator.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico
{
namespace
{

using machine::MachineDesc;

constexpr uint64_t kBlocks = 20000;

struct AppUnderTest
{
    ir::Program prog;
    workloads::MachineBuild ref;

    AppUnderTest()
    {
        // The paper evaluates on benchmarks with high I-cache miss
        // rates; the gcc analogue is the representative app.
        auto spec = workloads::specByName("085.gcc");
        prog = workloads::buildAndProfile(spec, 20000);
        ref = workloads::buildFor(prog, MachineDesc::fromName("1111"));
    }

    uint64_t
    simulate(const workloads::MachineBuild &build,
             trace::TraceKind kind, const cache::CacheConfig &cfg,
             double dilation = 1.0) const
    {
        cache::CacheSim sim(cfg);
        trace::TraceGenerator gen(prog, build.sched, build.bin);
        gen.generateDilated(kind, dilation,
                            [&sim](const trace::Access &a) {
                                sim.access(a.addr, a.isWrite);
                            },
                            kBlocks);
        return sim.misses();
    }
};

TEST(Integration, ActualIcacheMissesGrowWithMachineWidth)
{
    AppUnderTest app;
    cache::CacheConfig icfg = cache::CacheConfig::fromSize(1024, 1, 32);
    uint64_t ref_misses =
        app.simulate(app.ref, trace::TraceKind::Instruction, icfg);
    uint64_t prev = ref_misses;
    for (const char *name : {"2111", "3221", "6332"}) {
        auto build = workloads::buildFor(app.prog,
                                         MachineDesc::fromName(name));
        uint64_t misses = app.simulate(
            build, trace::TraceKind::Instruction, icfg);
        EXPECT_GT(misses, ref_misses) << name;
        EXPECT_GE(misses, prev) << name;
        prev = misses;
    }
}

TEST(Integration, DilatedTraceApproximatesActualTrace)
{
    // Figure 7's first two bars: simulating the reference trace
    // dilated by the text dilation approximates simulating the
    // actual target-machine trace.
    AppUnderTest app;
    cache::CacheConfig icfg =
        cache::CacheConfig::fromSize(16384, 2, 32);
    for (const char *name : {"2111", "3221"}) {
        auto build = workloads::buildFor(app.prog,
                                         MachineDesc::fromName(name));
        double d = linker::textDilation(build.bin, app.ref.bin);
        auto actual = static_cast<double>(app.simulate(
            build, trace::TraceKind::Instruction, icfg));
        auto dilated = static_cast<double>(app.simulate(
            app.ref, trace::TraceKind::Instruction, icfg, d));
        EXPECT_NEAR(dilated / actual, 1.0, 0.45) << name;
    }
}

TEST(Integration, EstimatedTracksDilatedIcacheMisses)
{
    // Figure 6: the model estimate tracks dilated-trace simulation.
    AppUnderTest app;
    cache::CacheConfig icfg = cache::CacheConfig::fromSize(1024, 1, 32);

    dse::CacheSpace space;
    space.sizesBytes = {1024};
    space.assocs = {1};
    space.lineSizes = {32};
    dse::MemoryWalker walker(dse::MemorySpaces{space, space, space},
                             dse::StallModel{}, core::defaultIGranule,
                             /*u_granule=*/10000);
    trace::TraceGenerator gen(app.prog, app.ref.sched, app.ref.bin);
    walker.evaluate([&gen](const dse::TraceSink &sink) {
        gen.generate(trace::TraceKind::Unified, sink, kBlocks);
    });
    const dse::IcacheEvaluator &eval = walker.icache();

    for (double d : {1.4, 2.0, 3.0}) {
        auto dilated = static_cast<double>(app.simulate(
            app.ref, trace::TraceKind::Instruction, icfg, d));
        double est = eval.misses(icfg, d);
        EXPECT_NEAR(est / dilated, 1.0, 0.3) << "d=" << d;
    }
}

TEST(Integration, DataCacheMissesNearlyMachineIndependent)
{
    // Table 2: relative data-cache miss rates stay near 1.0.
    AppUnderTest app;
    cache::CacheConfig dcfg =
        cache::CacheConfig::fromSize(16384, 2, 32);
    auto ref = static_cast<double>(
        app.simulate(app.ref, trace::TraceKind::Data, dcfg));
    ASSERT_GT(ref, 0.0);
    for (const char *name : {"2111", "6332"}) {
        auto build = workloads::buildFor(app.prog,
                                         MachineDesc::fromName(name));
        auto misses = static_cast<double>(
            app.simulate(build, trace::TraceKind::Data, dcfg));
        EXPECT_NEAR(misses / ref, 1.0, 0.25) << name;
    }
}

TEST(Integration, UnifiedEstimateMovesTowardDilatedMisses)
{
    AppUnderTest app;
    cache::CacheConfig ucfg =
        cache::CacheConfig::fromSize(16384, 2, 64);

    trace::TraceGenerator gen(app.prog, app.ref.sched, app.ref.bin);
    core::UtraceModeler modeler(50000);
    cache::CacheSim refsim(ucfg);
    gen.generate(trace::TraceKind::Unified,
                 [&](const trace::Access &a) {
                     modeler.access(a);
                     refsim.access(a.addr, a.isWrite);
                 },
                 kBlocks);

    core::DilationModel model(modeler.instrParams(),
                              modeler.instrParams(),
                              modeler.dataParams());
    double ref_misses = static_cast<double>(refsim.misses());

    double d = 2.0;
    auto dilated = static_cast<double>(app.simulate(
        app.ref, trace::TraceKind::Unified, ucfg, d));
    double est = model.estimateUcacheMisses(ucfg, d, ref_misses);
    // The estimate must move in the right direction (more misses
    // than the undilated reference) and stay within the paper's
    // loose unified-cache error band.
    EXPECT_GT(est, ref_misses);
    EXPECT_GT(dilated, ref_misses);
    EXPECT_NEAR(est / dilated, 1.0, 0.6);
}

TEST(Integration, SpacewalkerProducesParetoSets)
{
    auto spec = workloads::specByName("unepic");
    auto prog = workloads::buildAndProfile(spec, 15000);

    dse::MemorySpaces spaces;
    dse::CacheSpace l1;
    l1.sizesBytes = {1024, 4096, 16384};
    l1.assocs = {1, 2};
    l1.lineSizes = {32};
    spaces.icache = l1;
    spaces.dcache = l1;
    dse::CacheSpace l2;
    l2.sizesBytes = {16384, 65536};
    l2.assocs = {2, 4};
    l2.lineSizes = {64};
    spaces.ucache = l2;

    dse::Spacewalker::Options opts;
    opts.traceBlocks = 15000;
    dse::Spacewalker walker(spaces, {"1111", "2111", "3221", "6332"},
                            opts);
    auto result = walker.explore(prog);

    EXPECT_FALSE(result.processors.empty());
    EXPECT_FALSE(result.systems.empty());
    EXPECT_EQ(result.dilations.size(), 4u);
    EXPECT_DOUBLE_EQ(result.dilations.at("1111"), 1.0);
    EXPECT_GT(result.dilations.at("6332"), 1.5);
    // Processor cycles drop with width; dilation grows.
    EXPECT_LT(result.processorCycles.at("6332"),
              result.processorCycles.at("1111"));
    // Every system id names a processor and three caches.
    for (const auto &p : result.systems.points()) {
        EXPECT_NE(p.id.find("P"), std::string::npos);
        EXPECT_NE(p.id.find("I$"), std::string::npos);
        EXPECT_NE(p.id.find("D$"), std::string::npos);
        EXPECT_NE(p.id.find("U$"), std::string::npos);
    }
}

TEST(Integration, EvaluationCountMatchesHierarchicalClaim)
{
    // The hierarchical strategy needs one trace+simulation pass per
    // line size per cache type, regardless of how many processors
    // are explored: confirm the SimBank run count.
    dse::CacheSpace space = dse::CacheSpace::defaultL1Space();
    dse::SimBank bank(space);
    // Line sizes 4..64 -> 5 passes; the cross-product alternative
    // would be |processors| x |caches| full simulations.
    EXPECT_EQ(bank.simRuns(), 5u);
    EXPECT_GE(space.enumerate().size(), 20u);
}

} // namespace
} // namespace pico
