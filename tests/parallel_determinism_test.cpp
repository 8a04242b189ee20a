/**
 * @file
 * Serial/parallel equivalence of the Spacewalker: the whole point of
 * the parallel engine is that --jobs changes wall-clock time and
 * *nothing else*. The same exploration runs with 1, 2 and 8 worker
 * threads (and twice at 8) and every observable — Pareto sets,
 * per-machine metrics, FailureLog ordering, evaluation-cache
 * database bytes — must match bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dse/Spacewalker.hpp"
#include "support/Metrics.hpp"
#include "support/TraceEvents.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico::dse
{
namespace
{

/** Small but non-degenerate spaces: several line sizes per bank so
 *  the per-line-size sweeps actually fan out, and two L1 sizes so
 *  Pareto fronts have real structure. */
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

/**
 * The walked machines: a predicated design forces a second
 * trace-equivalence class, and two poisoned names ("0...") give the
 * FailureLog a nontrivial order to preserve.
 */
std::vector<std::string>
walkMachines()
{
    return {"1111", "0111", "2211", "2211p", "0221", "3221"};
}

Spacewalker::Options
walkOptions(unsigned jobs, const std::string &cache_path)
{
    Spacewalker::Options opts;
    opts.traceBlocks = 4000;
    opts.uGranule = 20000;
    opts.jobs = jobs;
    opts.checkpointEvery = 2;
    opts.evaluationCachePath = cache_path;
    return opts;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Flatten a Pareto set for exact comparison (order included). */
std::string
flatten(const ParetoSet &set)
{
    std::ostringstream ss;
    ss.precision(17);
    for (const auto &p : set.points())
        ss << p.id << ";" << p.cost << ";" << p.time << "\n";
    return ss.str();
}

std::string
flatten(const FailureLog &log)
{
    std::ostringstream ss;
    for (const auto &e : log.entries())
        ss << e.design << "[" << e.stage << "]: " << e.reason
           << "\n";
    return ss.str();
}

struct WalkObservables
{
    std::string processors;
    std::string systems;
    std::string failures;
    std::map<std::string, double> dilations;
    std::map<std::string, uint64_t> cycles;
    uint64_t evaluated = 0;
    std::string cacheBytes;
};

WalkObservables
runWalk(const ir::Program &prog, unsigned jobs,
        const std::string &tag)
{
    auto path = std::filesystem::temp_directory_path() /
                ("pico_par_det_" + tag + ".db");
    std::filesystem::remove(path);
    WalkObservables obs;
    {
        Spacewalker walker(walkSpaces(), walkMachines(),
                           walkOptions(jobs, path.string()));
        auto result = walker.explore(prog);
        obs.processors = flatten(result.processors);
        obs.systems = flatten(result.systems);
        obs.failures = flatten(result.failures);
        obs.dilations = result.dilations;
        obs.cycles = result.processorCycles;
        obs.evaluated = result.evaluatedDesigns;
    }
    obs.cacheBytes = fileBytes(path.string());
    std::filesystem::remove(path);
    return obs;
}

class ParallelDeterminism : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog_ = new ir::Program(workloads::buildAndProfile(
            workloads::specByName("unepic"), 4000));
    }
    static void
    TearDownTestSuite()
    {
        delete prog_;
        prog_ = nullptr;
    }
    static ir::Program *prog_;
};

ir::Program *ParallelDeterminism::prog_ = nullptr;

void
expectIdentical(const WalkObservables &a, const WalkObservables &b)
{
    EXPECT_EQ(a.processors, b.processors);
    EXPECT_EQ(a.systems, b.systems);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.dilations, b.dilations);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.cacheBytes, b.cacheBytes);
}

TEST_F(ParallelDeterminism, JobsOneTwoEightAreBitIdentical)
{
    auto serial = runWalk(*prog_, 1, "j1");
    ASSERT_FALSE(serial.systems.empty());
    // The poisoned designs failed, in walk order.
    EXPECT_NE(serial.failures.find("0111"), std::string::npos);
    EXPECT_LT(serial.failures.find("0111"),
              serial.failures.find("0221"));
    EXPECT_EQ(serial.evaluated, 4u);

    // One machine entry per evaluated design, one reference set per
    // trace-equivalence class (base and 2211p's predicated one).
    auto count = [&serial](const std::string &prefix) {
        size_t n = 0;
        for (size_t at = 0; (at = serial.cacheBytes.find(
                                 "\n" + prefix, at)) != std::string::npos;
             ++at)
            ++n;
        return n;
    };
    EXPECT_EQ(count("proc;"), 4u);
    EXPECT_EQ(count("ref;"), 2u);

    auto two = runWalk(*prog_, 2, "j2");
    auto eight = runWalk(*prog_, 8, "j8");
    expectIdentical(serial, two);
    expectIdentical(serial, eight);
}

TEST_F(ParallelDeterminism, RepeatedEightThreadRunsAgree)
{
    auto first = runWalk(*prog_, 8, "j8a");
    auto second = runWalk(*prog_, 8, "j8b");
    expectIdentical(first, second);
}

TEST_F(ParallelDeterminism, HardwareJobsMatchesSerial)
{
    // jobs = 0 (one worker per hardware thread) is the value users
    // actually pass; it must match the serial reference too.
    auto serial = runWalk(*prog_, 1, "jh1");
    auto hw = runWalk(*prog_, 0, "jhw");
    expectIdentical(serial, hw);
}

TEST_F(ParallelDeterminism, InstrumentationDoesNotPerturbResults)
{
    // The observability layer must stay outside the result path:
    // with metrics and span recording fully enabled, every walk
    // observable — including the cache database bytes — is still
    // bit-identical across thread counts, and identical to a walk
    // with instrumentation disabled.
    auto plain = runWalk(*prog_, 1, "mi_off");

    support::setMetricsEnabled(true);
    support::setTraceEnabled(true);
    auto serial = runWalk(*prog_, 1, "mi1");
    auto two = runWalk(*prog_, 2, "mi2");
    auto eight = runWalk(*prog_, 8, "mi8");
    support::setMetricsEnabled(false);
    support::setTraceEnabled(false);
    support::TraceRecorder::instance().clear();

    expectIdentical(plain, serial);
    expectIdentical(serial, two);
    expectIdentical(serial, eight);
}

} // namespace
} // namespace pico::dse
