/**
 * @file
 * Static verification layer tests. Every rule gets a true negative
 * (real pipeline outputs pass clean) and a true positive (a mutated
 * or fault-injected input trips exactly that rule), plus a
 * regression proving a --verify walk is bit-identical to an
 * unverified one at several thread counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cache/Policy.hpp"
#include "dse/EvaluationCache.hpp"
#include "dse/Spacewalker.hpp"
#include "machine/MachineDesc.hpp"
#include "verify/DesignVerifier.hpp"
#include "verify/Diagnostics.hpp"
#include "verify/ProgramVerifier.hpp"
#include "verify/ResultVerifier.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

#include "FileCorruption.hpp"

namespace pico::verify
{
namespace
{

// ---------------------------------------------------------------
// Diagnostics plumbing
// ---------------------------------------------------------------

TEST(Diagnostics, CountsAndReport)
{
    Diagnostics diags;
    EXPECT_TRUE(diags.clean());
    EXPECT_TRUE(diags.empty());
    diags.error("ir.flow", "func f block 1", "bad");
    diags.warning("ahh.domain", "class base", "model assumption");
    EXPECT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags.errorCount(), 1u);
    EXPECT_EQ(diags.warningCount(), 1u);
    EXPECT_FALSE(diags.clean());
    EXPECT_TRUE(diags.has("ir.flow"));
    EXPECT_EQ(diags.count("ahh.domain"), 1u);
    EXPECT_FALSE(diags.has("ir.stream"));
    auto report = diags.report();
    EXPECT_NE(report.find("error: ir.flow: func f block 1: bad"),
              std::string::npos);
    EXPECT_NE(report.find("warning: ahh.domain"), std::string::npos);

    Diagnostics more;
    more.error("result.pareto", "set", "dominated");
    diags.append(more);
    EXPECT_EQ(diags.errorCount(), 2u);
    EXPECT_EQ(diags.size(), 3u);
}

// ---------------------------------------------------------------
// Program + layout verifier on real pipeline outputs
// ---------------------------------------------------------------

class ProgramVerifierTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog_ = new ir::Program(workloads::buildAndProfile(
            workloads::specByName("unepic"), 4000));
        build_ = new workloads::MachineBuild(workloads::buildFor(
            *prog_, machine::MachineDesc::fromName("2211")));
    }
    static void
    TearDownTestSuite()
    {
        delete build_;
        delete prog_;
        build_ = nullptr;
        prog_ = nullptr;
    }

    /** Deep copy of the placement for mutation. */
    static std::vector<std::vector<linker::PlacedBlock>>
    copyPlacement(const linker::LinkedBinary &bin)
    {
        std::vector<std::vector<linker::PlacedBlock>> placed(
            bin.numFunctions());
        for (size_t f = 0; f < bin.numFunctions(); ++f) {
            for (size_t b = 0;
                 b < bin.numBlocks(static_cast<uint32_t>(f)); ++b)
                placed[f].push_back(
                    bin.block(static_cast<uint32_t>(f),
                              static_cast<uint32_t>(b)));
        }
        return placed;
    }

    static ir::Program *prog_;
    static workloads::MachineBuild *build_;
};

ir::Program *ProgramVerifierTest::prog_ = nullptr;
workloads::MachineBuild *ProgramVerifierTest::build_ = nullptr;

TEST_F(ProgramVerifierTest, RealProgramPassesClean)
{
    Diagnostics diags;
    EXPECT_TRUE(verifyProgram(*prog_, diags)) << diags.report();
    EXPECT_TRUE(diags.clean()) << diags.report();
}

TEST_F(ProgramVerifierTest, RealLayoutPassesClean)
{
    Diagnostics diags;
    EXPECT_TRUE(verifyLayout(*prog_, build_->bin, diags))
        << diags.report();
    EXPECT_TRUE(diags.clean()) << diags.report();
}

TEST_F(ProgramVerifierTest, StructureMutationTrips)
{
    ir::Program bad = *prog_;
    bad.entryFunction =
        static_cast<uint32_t>(bad.functions.size()) + 1;
    bad.functions[0].id = 99;
    Diagnostics diags;
    EXPECT_FALSE(verifyProgram(bad, diags));
    EXPECT_TRUE(diags.has("ir.structure")) << diags.report();
}

TEST_F(ProgramVerifierTest, EdgeTargetMutationTrips)
{
    ir::Program bad = *prog_;
    for (auto &func : bad.functions) {
        for (auto &block : func.blocks) {
            if (!block.succs.empty()) {
                block.succs[0].target = static_cast<uint32_t>(
                    func.blocks.size() + 7);
                Diagnostics diags;
                EXPECT_FALSE(verifyProgram(bad, diags));
                EXPECT_TRUE(diags.has("ir.edge-target"))
                    << diags.report();
                return;
            }
        }
    }
    FAIL() << "no block with successors";
}

TEST_F(ProgramVerifierTest, EdgeProbabilityMutationTrips)
{
    ir::Program bad = *prog_;
    for (auto &func : bad.functions) {
        for (auto &block : func.blocks) {
            if (!block.succs.empty()) {
                block.succs[0].prob += 0.5;
                Diagnostics diags;
                EXPECT_FALSE(verifyProgram(bad, diags));
                EXPECT_TRUE(diags.has("ir.edge-prob"))
                    << diags.report();
                return;
            }
        }
    }
    FAIL() << "no block with successors";
}

TEST_F(ProgramVerifierTest, OperandMutationsTrip)
{
    {
        ir::Program bad = *prog_;
        bool found = false;
        for (auto &func : bad.functions) {
            for (auto &block : func.blocks) {
                if (!block.ops.empty() && !found) {
                    block.ops[0].latency = 0;
                    found = true;
                }
            }
        }
        ASSERT_TRUE(found) << "no operations in program";
        Diagnostics diags;
        EXPECT_FALSE(verifyProgram(bad, diags));
        EXPECT_TRUE(diags.has("ir.operands")) << diags.report();
    }
    {
        // A memory operation pointing past the stream table.
        ir::Program bad = *prog_;
        bool found = false;
        for (auto &func : bad.functions) {
            for (auto &block : func.blocks) {
                for (auto &op : block.ops) {
                    if (op.isMem() && !found) {
                        op.streamId = static_cast<uint16_t>(
                            bad.streams.size() + 3);
                        found = true;
                    }
                }
            }
        }
        ASSERT_TRUE(found) << "no memory operation in program";
        Diagnostics diags;
        EXPECT_FALSE(verifyProgram(bad, diags));
        EXPECT_TRUE(diags.has("ir.operands")) << diags.report();
    }
}

TEST_F(ProgramVerifierTest, FlowMutationsTrip)
{
    {
        // Entry-block count must equal the call count exactly.
        ir::Program bad = *prog_;
        bad.functions[bad.entryFunction].callCount += 17;
        Diagnostics diags;
        EXPECT_FALSE(verifyProgram(bad, diags));
        EXPECT_TRUE(diags.has("ir.flow")) << diags.report();
    }
    {
        // A non-entry block entered more often than its
        // predecessors were.
        ir::Program bad = *prog_;
        bool found = false;
        for (auto &func : bad.functions) {
            if (func.blocks.size() > 1 && !found) {
                func.blocks[1].profileCount += 1000000;
                found = true;
            }
        }
        ASSERT_TRUE(found);
        Diagnostics diags;
        EXPECT_FALSE(verifyProgram(bad, diags));
        EXPECT_TRUE(diags.has("ir.flow")) << diags.report();
    }
}

TEST_F(ProgramVerifierTest, StreamMutationsTrip)
{
    ASSERT_GE(prog_->streams.size(), 2u);
    {
        ir::Program bad = *prog_;
        bad.streams[0].sizeWords = 0;
        Diagnostics diags;
        EXPECT_FALSE(verifyProgram(bad, diags));
        EXPECT_TRUE(diags.has("ir.stream")) << diags.report();
    }
    {
        // Two streams mapped to the same region.
        ir::Program bad = *prog_;
        bad.streams[1].baseAddr = bad.streams[0].baseAddr;
        Diagnostics diags;
        EXPECT_FALSE(verifyProgram(bad, diags));
        EXPECT_TRUE(diags.has("ir.stream")) << diags.report();
    }
}

TEST_F(ProgramVerifierTest, LayoutMutationsTrip)
{
    // Overlapping blocks within a function.
    size_t func = 0;
    while (func < build_->bin.numFunctions() &&
           build_->bin.numBlocks(static_cast<uint32_t>(func)) < 2)
        ++func;
    ASSERT_LT(func, build_->bin.numFunctions());
    {
        linker::LinkedBinary bad = build_->bin;
        auto placed = copyPlacement(bad);
        placed[func][1].startAddr = placed[func][0].startAddr;
        bad.setPlacement(std::move(placed));
        Diagnostics diags;
        EXPECT_FALSE(verifyLayout(*prog_, bad, diags));
        EXPECT_TRUE(diags.has("layout.monotone")) << diags.report();
    }
    {
        // A block escaping the text segment.
        linker::LinkedBinary bad = build_->bin;
        auto placed = copyPlacement(bad);
        placed[func].back().startAddr =
            linker::LinkedBinary::textBase + bad.textSize() + 4096;
        bad.setPlacement(std::move(placed));
        Diagnostics diags;
        EXPECT_FALSE(verifyLayout(*prog_, bad, diags));
        EXPECT_TRUE(diags.has("layout.bounds")) << diags.report();
    }
    {
        // A misaligned function entry.
        linker::LinkedBinary bad = build_->bin;
        auto placed = copyPlacement(bad);
        placed[func][0].startAddr += 1;
        bad.setPlacement(std::move(placed));
        Diagnostics diags;
        EXPECT_FALSE(verifyLayout(*prog_, bad, diags));
        EXPECT_TRUE(diags.has("layout.align")) << diags.report();
    }
}

// ---------------------------------------------------------------
// Design verifier
// ---------------------------------------------------------------

TEST(DesignVerifier, FeasibleGeometryPassesClean)
{
    Diagnostics diags;
    auto cfg = cache::CacheConfig::fromSize(16384, 2, 32);
    EXPECT_TRUE(verifyCacheConfig(cfg, "I$", diags))
        << diags.report();
    EXPECT_TRUE(diags.clean());
}

TEST(DesignVerifier, BrokenGeometryTrips)
{
    cache::CacheConfig cfg;
    cfg.sets = 48; // not a power of two
    cfg.assoc = 2;
    cfg.lineBytes = 32;
    Diagnostics diags;
    EXPECT_FALSE(verifyCacheConfig(cfg, "I$", diags));
    EXPECT_TRUE(diags.has("cache.geometry")) << diags.report();

    cache::CacheConfig noPorts;
    noPorts.sets = 64;
    noPorts.ports = 0;
    Diagnostics diags2;
    EXPECT_FALSE(verifyCacheConfig(noPorts, "D$", diags2));
    EXPECT_TRUE(diags2.has("cache.geometry"));

    cache::CacheConfig tinyLine;
    tinyLine.sets = 64;
    tinyLine.lineBytes = 2; // below the simulators' coverage
    Diagnostics diags3;
    EXPECT_FALSE(verifyCacheConfig(tinyLine, "U$", diags3));
    EXPECT_TRUE(diags3.has("cache.geometry"));
}

TEST(DesignVerifier, DefaultSpacesPassClean)
{
    Diagnostics diags;
    EXPECT_TRUE(verifyCacheSpace(dse::CacheSpace::defaultL1Space(),
                                 "L1", diags))
        << diags.report();
    EXPECT_TRUE(verifyCacheSpace(dse::CacheSpace::defaultL2Space(),
                                 "L2", diags))
        << diags.report();
    EXPECT_TRUE(diags.clean());
}

TEST(DesignVerifier, DegenerateSpacesTrip)
{
    {
        dse::CacheSpace empty = dse::CacheSpace::defaultL1Space();
        empty.assocs.clear();
        Diagnostics diags;
        EXPECT_FALSE(verifyCacheSpace(empty, "L1", diags));
        EXPECT_TRUE(diags.has("space.domain")) << diags.report();
    }
    {
        // Dimensions individually sane but jointly infeasible:
        // 3 KB with one way of 64 B lines gives 48 sets.
        dse::CacheSpace infeasible;
        infeasible.sizesBytes = {3072};
        infeasible.assocs = {1};
        infeasible.lineSizes = {64};
        infeasible.portCounts = {1};
        Diagnostics diags;
        EXPECT_FALSE(verifyCacheSpace(infeasible, "L1", diags));
        EXPECT_TRUE(diags.has("space.domain")) << diags.report();
    }
}

TEST(DesignVerifier, PolicyAxesMustBeNonEmptyAndUnique)
{
    {
        dse::CacheSpace space = dse::CacheSpace::defaultL1Space();
        space.replacements.clear();
        Diagnostics diags;
        EXPECT_FALSE(verifyCacheSpace(space, "D$", diags));
        EXPECT_TRUE(diags.has("space.domain")) << diags.report();
    }
    {
        dse::CacheSpace space = dse::CacheSpace::defaultL1Space();
        space.writePolicies.clear();
        Diagnostics diags;
        EXPECT_FALSE(verifyCacheSpace(space, "D$", diags));
        EXPECT_TRUE(diags.has("space.domain")) << diags.report();
    }
    {
        // A duplicated axis entry would silently double-count every
        // geometry in the walk.
        dse::CacheSpace space = dse::CacheSpace::defaultL1Space();
        space.replacements = {cache::ReplacementPolicy::FIFO,
                              cache::ReplacementPolicy::FIFO};
        Diagnostics diags;
        EXPECT_FALSE(verifyCacheSpace(space, "D$", diags));
        EXPECT_TRUE(diags.has("space.domain")) << diags.report();
    }
    {
        dse::CacheSpace space = dse::CacheSpace::defaultL1Space();
        space.writePolicies = {cache::WritePolicy::WriteBack,
                               cache::WritePolicy::WriteThrough,
                               cache::WritePolicy::WriteBack};
        Diagnostics diags;
        EXPECT_FALSE(verifyCacheSpace(space, "D$", diags));
        EXPECT_TRUE(diags.has("space.domain")) << diags.report();
    }
    {
        // The full extended axes are a legal space.
        dse::CacheSpace space = dse::CacheSpace::defaultL1Space();
        space.replacements = {cache::ReplacementPolicy::LRU,
                              cache::ReplacementPolicy::FIFO,
                              cache::ReplacementPolicy::Random};
        space.writePolicies = {cache::WritePolicy::WriteBack,
                               cache::WritePolicy::WriteThrough};
        Diagnostics diags;
        EXPECT_TRUE(verifyCacheSpace(space, "D$", diags))
            << diags.report();
        EXPECT_TRUE(diags.clean());
    }
}

TEST(DesignVerifier, HierarchyInclusion)
{
    cache::HierarchyConfig good;
    good.icache = cache::CacheConfig::fromSize(8192, 2, 32);
    good.dcache = cache::CacheConfig::fromSize(8192, 2, 32);
    good.ucache = cache::CacheConfig::fromSize(65536, 4, 64);
    Diagnostics diags;
    EXPECT_TRUE(verifyHierarchy(good, diags)) << diags.report();
    EXPECT_TRUE(diags.clean());

    cache::HierarchyConfig bad = good;
    bad.ucache = cache::CacheConfig::fromSize(4096, 4, 64);
    Diagnostics diags2;
    EXPECT_FALSE(verifyHierarchy(bad, diags2));
    EXPECT_TRUE(diags2.has("hierarchy.inclusion"))
        << diags2.report();

    cache::HierarchyConfig shortLines = good;
    shortLines.ucache = cache::CacheConfig::fromSize(65536, 4, 16);
    Diagnostics diags3;
    EXPECT_FALSE(verifyHierarchy(shortLines, diags3));
    EXPECT_TRUE(diags3.has("hierarchy.inclusion"));

    cache::HierarchyConfig noLatency = good;
    noLatency.memoryLatency = 0;
    Diagnostics diags4;
    EXPECT_FALSE(verifyHierarchy(noLatency, diags4));
    EXPECT_TRUE(diags4.has("hierarchy.inclusion"));
}

TEST(DesignVerifier, AhhDomain)
{
    core::ComponentParams good;
    good.u1 = 5000.0;
    good.p1 = 0.3;
    good.lav = 2.0;
    Diagnostics diags;
    EXPECT_TRUE(verifyAhhParams(good, 10000, "trace", diags))
        << diags.report();
    EXPECT_TRUE(diags.clean());

    core::ComponentParams badP1 = good;
    badP1.p1 = 1.5;
    Diagnostics diags2;
    EXPECT_FALSE(verifyAhhParams(badP1, 10000, "trace", diags2));
    EXPECT_TRUE(diags2.has("ahh.domain"));

    core::ComponentParams badU1 = good;
    badU1.u1 = 20000.0; // more uniques than references
    Diagnostics diags3;
    EXPECT_FALSE(verifyAhhParams(badU1, 10000, "trace", diags3));
    EXPECT_TRUE(diags3.has("ahh.domain"));

    core::ComponentParams nonFinite = good;
    nonFinite.lav = std::numeric_limits<double>::quiet_NaN();
    Diagnostics diags4;
    EXPECT_FALSE(verifyAhhParams(nonFinite, 10000, "trace", diags4));
    EXPECT_TRUE(diags4.has("ahh.domain"));
}

TEST(DesignVerifier, NegativeP2IsWarningNotError)
{
    // Measured traces can violate the run-model assumption
    // lav >= 1 + p1 (e.g. eight singleton runs and one pair:
    // lav = 10/9, p1 = 0.8 gives p2 < 0). That is inaccurate
    // modeling, not corrupt data — a warning, never an error.
    core::ComponentParams params;
    params.u1 = 10.0;
    params.p1 = 0.8;
    params.lav = 10.0 / 9.0;
    ASSERT_LT(params.p2(), 0.0);
    Diagnostics diags;
    EXPECT_TRUE(verifyAhhParams(params, 10000, "trace", diags))
        << diags.report();
    EXPECT_TRUE(diags.clean());
    EXPECT_EQ(diags.warningCount(), 1u);
    EXPECT_TRUE(diags.has("ahh.domain"));
}

// ---------------------------------------------------------------
// Result verifier
// ---------------------------------------------------------------

TEST(ResultVerifier, MissCounts)
{
    Diagnostics diags;
    EXPECT_TRUE(verifyMissCount(10.0, 100.0, "I$", diags));
    EXPECT_TRUE(verifyMissCount(0.0, 0.0, "I$", diags));
    EXPECT_TRUE(diags.clean());

    Diagnostics bad;
    EXPECT_FALSE(verifyMissCount(200.0, 100.0, "I$", bad));
    EXPECT_FALSE(verifyMissCount(-1.0, 100.0, "I$", bad));
    EXPECT_FALSE(verifyMissCount(
        std::numeric_limits<double>::infinity(), 100.0, "I$", bad));
    EXPECT_EQ(bad.count("result.misses"), 3u);
}

TEST(ResultVerifier, AccessSplit)
{
    // A class's I$ and D$ banks read disjoint parts of its one
    // capture: three fetches and two data references.
    trace::ColumnarTraceBuffer capture;
    for (uint64_t addr : {0x100, 0x104, 0x108})
        capture({addr, true, false});
    capture({0x4000, false, false});
    capture({0x4004, false, true});
    Diagnostics diags;
    EXPECT_TRUE(verifyAccessSplit(3, 2, 5, &capture, "class", diags));
    // On a reference-set hit there is no capture to count.
    EXPECT_TRUE(verifyAccessSplit(3, 2, 5, nullptr, "class", diags));
    EXPECT_TRUE(diags.clean()) << diags.report();

    // A D$ bank that lost a record breaks both sums; a capture that
    // holds a record no bank read breaks the second.
    Diagnostics bad;
    EXPECT_FALSE(verifyAccessSplit(3, 1, 5, &capture, "class", bad));
    EXPECT_FALSE(verifyAccessSplit(3, 1, 4, &capture, "class", bad));
    EXPECT_EQ(bad.count("result.trace"), 3u);
}

TEST(ResultVerifier, ColumnarTraceDecodesClean)
{
    // Three full blocks of four and a one-record tail that holds an
    // address above 2^32; then the empty capture, which has no block.
    trace::ColumnarTraceBuffer capture(4);
    for (uint64_t i = 0; i < 12; ++i)
        capture({0x400000 + 4 * i, i % 2 == 0, i % 4 == 1});
    capture({0x1deadbeef0, false, true});
    ASSERT_EQ(capture.blockCount(), 4u);
    Diagnostics diags;
    EXPECT_TRUE(verifyColumnarTrace(capture, "class", diags));
    EXPECT_TRUE(verifyColumnarTrace(trace::ColumnarTraceBuffer{},
                                    "empty class", diags));
    EXPECT_TRUE(diags.empty()) << diags.report();
}

TEST(ResultVerifier, ParetoSets)
{
    std::vector<dse::DesignPoint> good = {
        {"a", 1.0, 10.0}, {"b", 2.0, 5.0}, {"c", 3.0, 1.0}};
    Diagnostics diags;
    EXPECT_TRUE(verifyParetoPoints(good, "set", diags))
        << diags.report();

    std::vector<dse::DesignPoint> dominated = good;
    dominated.push_back({"d", 3.5, 2.0}); // dominated by c
    Diagnostics diags2;
    EXPECT_FALSE(verifyParetoPoints(dominated, "set", diags2));
    EXPECT_TRUE(diags2.has("result.pareto"));

    std::vector<dse::DesignPoint> dupes = {{"a", 1.0, 10.0},
                                           {"a", 2.0, 5.0}};
    Diagnostics diags3;
    EXPECT_FALSE(verifyParetoPoints(dupes, "set", diags3));
    EXPECT_TRUE(diags3.has("result.pareto"));

    // A ParetoSet built through insertPoint is non-dominated by
    // construction and must always verify.
    dse::ParetoSet set;
    set.insertPoint({"x", 5.0, 5.0});
    set.insertPoint({"y", 1.0, 9.0});
    set.insertPoint({"z", 3.0, 3.0}); // dominates and evicts x
    Diagnostics diags4;
    EXPECT_TRUE(verifyParetoSet(set, "built", diags4))
        << diags4.report();
}

TEST(ResultVerifier, WalkBookkeeping)
{
    dse::ExplorationResult good;
    good.evaluatedDesigns = 2;
    good.dilations = {{"1111", 1.0}, {"2211", 1.08}};
    good.processorCycles = {{"1111", 1000}, {"2211", 800}};
    Diagnostics diags;
    EXPECT_TRUE(verifyWalkResult(good, 2, diags)) << diags.report();

    dse::ExplorationResult overClaim = good;
    overClaim.evaluatedDesigns = 3;
    Diagnostics diags2;
    EXPECT_FALSE(verifyWalkResult(overClaim, 2, diags2));
    EXPECT_TRUE(diags2.has("result.walk"));

    dse::ExplorationResult silentLoss = good;
    silentLoss.evaluatedDesigns = 1;
    silentLoss.dilations = {{"1111", 1.0}};
    silentLoss.processorCycles = {{"1111", 1000}};
    Diagnostics diags3;
    // One design missing with an empty failure log = silent loss.
    EXPECT_FALSE(verifyWalkResult(silentLoss, 2, diags3));
    EXPECT_TRUE(diags3.has("result.walk"));

    dse::ExplorationResult badDilation = good;
    badDilation.dilations["2211"] = 0.0;
    Diagnostics diags4;
    EXPECT_FALSE(verifyWalkResult(badDilation, 2, diags4));
    EXPECT_TRUE(diags4.has("result.walk"));
}

class CacheFileVerifierTest : public ::testing::Test
{
  protected:
    std::string
    makeDatabase(const std::string &tag)
    {
        auto path = std::filesystem::temp_directory_path() /
                    ("pico_verify_cachefile_" + tag + ".db");
        std::filesystem::remove(path);
        dse::EvaluationCache cache(path.string());
        cache.store("proc;app;s1;1111", {1.0, 961000.0});
        cache.store("proc;app;s1;2211", {1.08, 842000.0});
        cache.store("proc;app;s1;3221", {1.13, 815000.0});
        cache.flush();
        return path.string();
    }

    /** A database a real walk wrote: machine metrics for two
     *  machines and one reference set per class (base and pred). */
    std::string
    walkedDatabase(const std::string &tag)
    {
        auto path = (std::filesystem::temp_directory_path() /
                     ("pico_verify_walked_" + tag + ".db"))
                        .string();
        std::filesystem::remove(path);
        cleanup_.push_back(path);
        static const ir::Program prog = workloads::buildAndProfile(
            workloads::specByName("unepic"), 4000);
        dse::MemorySpaces spaces;
        dse::CacheSpace l1;
        l1.sizesBytes = {4096};
        l1.assocs = {1};
        l1.lineSizes = {32};
        spaces.icache = l1;
        spaces.dcache = l1;
        spaces.ucache.sizesBytes = {65536};
        spaces.ucache.assocs = {4};
        spaces.ucache.lineSizes = {64};
        dse::Spacewalker::Options opts;
        opts.traceBlocks = 4000;
        opts.uGranule = 20000;
        opts.evaluationCachePath = path;
        dse::Spacewalker(spaces, {"1111", "2211p"}, opts).explore(prog);
        return path;
    }

    /** Rewrite the values of the first entry whose key has `prefix`. */
    static void
    editEntry(const std::string &path, const std::string &prefix,
              const std::function<void(std::vector<std::string> &)> &edit)
    {
        std::vector<std::string> lines;
        {
            std::ifstream in(path);
            for (std::string line; std::getline(in, line);)
                lines.push_back(line);
        }
        for (auto &line : lines) {
            if (line.rfind(prefix, 0) != 0)
                continue;
            auto bar = line.find('|');
            std::vector<std::string> values;
            std::stringstream ss(line.substr(bar + 1));
            for (std::string v; std::getline(ss, v, ',');)
                values.push_back(v);
            edit(values);
            line = line.substr(0, bar + 1);
            for (size_t i = 0; i < values.size(); ++i)
                line += (i ? "," : "") + values[i];
            break;
        }
        std::ofstream out(path, std::ios::trunc);
        for (const auto &line : lines)
            out << line << "\n";
    }

    void TearDown() override
    {
        for (const auto &p : cleanup_)
            std::filesystem::remove(p);
    }

    std::vector<std::string> cleanup_;
};

TEST_F(CacheFileVerifierTest, WalkedDatabaseWithReferenceEntriesPassesClean)
{
    auto path = walkedDatabase("clean");
    std::ifstream in(path);
    size_t refs = 0;
    for (std::string line; std::getline(in, line);)
        refs += line.rfind("ref;", 0) == 0;
    EXPECT_EQ(refs, 2u);
    Diagnostics diags;
    EXPECT_TRUE(verifyCacheFile(path, diags)) << diags.report();
    EXPECT_EQ(diags.errorCount(), 0u) << diags.report();
}

TEST_F(CacheFileVerifierTest, ShortMachineEntryTrips)
{
    auto path = walkedDatabase("shortproc");
    editEntry(path, "proc;", [](auto &v) { v.pop_back(); });
    Diagnostics diags;
    EXPECT_FALSE(verifyCacheFile(path, diags));
    EXPECT_TRUE(diags.has("result.cachefile")) << diags.report();
}

TEST_F(CacheFileVerifierTest, TruncatedReferenceEntryTrips)
{
    auto path = walkedDatabase("shortref");
    editEntry(path, "ref;", [](auto &v) { v.resize(v.size() / 2); });
    Diagnostics diags;
    EXPECT_FALSE(verifyCacheFile(path, diags));
    EXPECT_TRUE(diags.has("result.cachefile")) << diags.report();
}

TEST_F(CacheFileVerifierTest, ReferenceCountAboveAccessesTrips)
{
    auto path = walkedDatabase("bigcount");
    // Value 11 is the I$ access count; 14 its first miss count.
    editEntry(path, "ref;", [](auto &v) {
        v[14] = std::to_string(std::stoull(v[11]) + 1);
    });
    Diagnostics diags;
    EXPECT_FALSE(verifyCacheFile(path, diags));
    EXPECT_TRUE(diags.has("result.cachefile")) << diags.report();
}

TEST_F(CacheFileVerifierTest, FreshDatabasePassesClean)
{
    auto path = makeDatabase("clean");
    cleanup_.push_back(path);
    Diagnostics diags;
    EXPECT_TRUE(verifyCacheFile(path, diags)) << diags.report();
}

TEST_F(CacheFileVerifierTest, LegacyV2HeaderWarnsButPasses)
{
    // A pre-policy-axis database is still fully usable (its classic
    // keys are byte-identical under the v3 schema), so the verifier
    // accepts it — with a warning that the header is legacy.
    auto path = (std::filesystem::temp_directory_path() /
                 "pico_verify_cachefile_v2.db")
                    .string();
    cleanup_.push_back(path);
    std::ofstream out(path, std::ios::trunc);
    out << "picoeval-evalcache-v2\n"
        << "proc;app;s1;1111|1.02,901000\n"
        << "proc;app;s1;2211|1.08,842000\n";
    out.close();
    Diagnostics diags;
    EXPECT_TRUE(verifyCacheFile(path, diags)) << diags.report();
    EXPECT_TRUE(diags.has("result.cachefile")) << diags.report();
    EXPECT_EQ(diags.errorCount(), 0u) << diags.report();
    EXPECT_EQ(diags.warningCount(), 1u) << diags.report();
}

TEST_F(CacheFileVerifierTest, HeaderlessV1DatabaseWarnsButPasses)
{
    // A v1 database has no header line, and the cache still loads
    // it, so the verifier checks its first line as a record and says
    // once that the header is missing.
    auto path = (std::filesystem::temp_directory_path() /
                 "pico_verify_cachefile_v1.db")
                    .string();
    cleanup_.push_back(path);
    std::ofstream out(path, std::ios::trunc);
    out << "proc;app;s1;1111|1.02,901000\n"
        << "proc;app;s1;2211|1.08,842000\n";
    out.close();
    Diagnostics diags;
    EXPECT_TRUE(verifyCacheFile(path, diags)) << diags.report();
    EXPECT_TRUE(diags.has("result.cachefile")) << diags.report();
    EXPECT_EQ(diags.errorCount(), 0u) << diags.report();
    EXPECT_EQ(diags.warningCount(), 1u) << diags.report();
}

TEST_F(CacheFileVerifierTest, MissingFileTrips)
{
    Diagnostics diags;
    EXPECT_FALSE(verifyCacheFile("/nonexistent/evalcache.db",
                                 diags));
    EXPECT_TRUE(diags.has("result.cachefile"));
}

TEST_F(CacheFileVerifierTest, HeaderCorruptionTrips)
{
    auto path = makeDatabase("hdr");
    cleanup_.push_back(path);
    // Deterministic fault injection inside the version header.
    testutil::flipBit(path, 3, 2);
    Diagnostics diags;
    EXPECT_FALSE(verifyCacheFile(path, diags));
    EXPECT_TRUE(diags.has("result.cachefile")) << diags.report();
}

TEST_F(CacheFileVerifierTest, TruncatedTailTrips)
{
    auto path = makeDatabase("tail");
    cleanup_.push_back(path);
    // Cut the file at the last record's key/value separator, as a
    // torn write (without the atomic-rename protocol) would: the
    // final record loses its '|' and is malformed.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
    }
    auto bar = bytes.rfind('|');
    ASSERT_NE(bar, std::string::npos);
    testutil::truncateFile(path, bar);
    Diagnostics diags;
    EXPECT_FALSE(verifyCacheFile(path, diags));
    EXPECT_TRUE(diags.has("result.cachefile")) << diags.report();
}

TEST_F(CacheFileVerifierTest, UnsortedKeysTrip)
{
    auto path = (std::filesystem::temp_directory_path() /
                 "pico_verify_cachefile_unsorted.db")
                    .string();
    cleanup_.push_back(path);
    std::ofstream out(path, std::ios::trunc);
    out << dse::EvaluationCache::header << "\n"
        << "b|1\n"
        << "a|2\n";
    out.close();
    Diagnostics diags;
    EXPECT_FALSE(verifyCacheFile(path, diags));
    EXPECT_TRUE(diags.has("result.cachefile")) << diags.report();
}

TEST_F(CacheFileVerifierTest, SeededCorruptionNeverCrashes)
{
    // Arbitrary single-bit corruption anywhere after the header must
    // either still parse or trip a finding — never throw.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        auto path = makeDatabase("fuzz" + std::to_string(seed));
        cleanup_.push_back(path);
        auto offsets = testutil::corruptionOffsets(
            path, seed, 3,
            std::string(dse::EvaluationCache::header).size() + 1);
        for (auto off : offsets)
            testutil::flipBit(path, off, seed % 8);
        Diagnostics diags;
        EXPECT_NO_THROW(verifyCacheFile(path, diags));
    }
}

} // namespace
} // namespace pico::verify

// ---------------------------------------------------------------
// Regression: a verified walk changes nothing
// ---------------------------------------------------------------

namespace pico::dse
{
namespace
{

MemorySpaces
walkSpaces()
{
    MemorySpaces spaces;
    CacheSpace l1;
    l1.sizesBytes = {2048, 4096};
    l1.assocs = {1, 2};
    l1.lineSizes = {16, 32};
    spaces.icache = l1;
    spaces.dcache = l1;
    CacheSpace l2;
    l2.sizesBytes = {32768};
    l2.assocs = {4};
    l2.lineSizes = {64};
    spaces.ucache = l2;
    return spaces;
}

std::string
flattenWalk(const ExplorationResult &result)
{
    std::ostringstream ss;
    ss.precision(17);
    for (const auto &p : result.processors.points())
        ss << p.id << ";" << p.cost << ";" << p.time << "\n";
    for (const auto &p : result.systems.points())
        ss << p.id << ";" << p.cost << ";" << p.time << "\n";
    for (const auto &e : result.failures.entries())
        ss << e.design << "[" << e.stage << "]: " << e.reason << "\n";
    for (const auto &[name, d] : result.dilations)
        ss << name << "=" << d << "\n";
    for (const auto &[name, c] : result.processorCycles)
        ss << name << "=" << c << "\n";
    ss << result.evaluatedDesigns << "\n";
    return ss.str();
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct VerifiedWalkOutcome
{
    std::string observables;
    std::string cacheBytes;
    size_t verifyErrors = 0;
    size_t verifyFindings = 0;
};

VerifiedWalkOutcome
runWalk(const ir::Program &prog, unsigned jobs, int verify,
        const std::string &tag)
{
    auto path = std::filesystem::temp_directory_path() /
                ("pico_verify_walk_" + tag + ".db");
    std::filesystem::remove(path);
    Spacewalker::Options opts;
    opts.traceBlocks = 4000;
    opts.uGranule = 20000;
    opts.jobs = jobs;
    opts.checkpointEvery = 2;
    opts.verify = verify;
    opts.evaluationCachePath = path.string();
    VerifiedWalkOutcome out;
    {
        Spacewalker walker(walkSpaces(),
                           {"1111", "0111", "2211", "2211p", "0221",
                            "3221"},
                           opts);
        auto result = walker.explore(prog);
        out.observables = flattenWalk(result);
        out.verifyErrors = result.diagnostics.errorCount();
        out.verifyFindings = result.diagnostics.size();
    }
    out.cacheBytes = readBytes(path.string());
    std::filesystem::remove(path);
    return out;
}

TEST(VerifiedWalk, VerifyIsBitIdenticalAcrossJobs)
{
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 4000);

    auto plain = runWalk(prog, 1, 0, "off");
    ASSERT_FALSE(plain.observables.empty());

    // The real pipeline must verify clean — including the poisoned
    // designs, whose failures are legitimate walk outcomes.
    auto verified1 = runWalk(prog, 1, 1, "on1");
    EXPECT_EQ(verified1.verifyErrors, 0u);

    auto verified2 = runWalk(prog, 2, 1, "on2");
    auto verified8 = runWalk(prog, 8, 1, "on8");

    // Verification reads, reports, and changes nothing: every walk
    // observable and the cache database bytes are identical with
    // verification off and on, at every thread count.
    EXPECT_EQ(plain.observables, verified1.observables);
    EXPECT_EQ(plain.cacheBytes, verified1.cacheBytes);
    EXPECT_EQ(plain.observables, verified2.observables);
    EXPECT_EQ(plain.cacheBytes, verified2.cacheBytes);
    EXPECT_EQ(plain.observables, verified8.observables);
    EXPECT_EQ(plain.cacheBytes, verified8.cacheBytes);

    // Findings themselves are deterministic.
    EXPECT_EQ(verified1.verifyFindings, verified2.verifyFindings);
    EXPECT_EQ(verified1.verifyFindings, verified8.verifyFindings);
}

} // namespace
} // namespace pico::dse
