/**
 * @file
 * Fault injection against the *parallel* exploration engine: the
 * per-design isolation and crash-safety guarantees PR 2 established
 * for the serial walk must survive an 8-way schedule. Also the
 * regression test for the concurrent-flush double-rename fix in
 * EvaluationCache.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "dse/EvaluationCache.hpp"
#include "dse/Spacewalker.hpp"
#include "support/Hooks.hpp"
#include "support/ThreadPool.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico
{
namespace
{

std::filesystem::path
tmpFile(const std::string &name)
{
    return std::filesystem::temp_directory_path() / name;
}

/** Database entries whose key starts with `prefix`. */
size_t
countEntries(const std::filesystem::path &p, const std::string &prefix)
{
    std::ifstream in(p);
    size_t n = 0;
    for (std::string line; std::getline(in, line);)
        n += line.rfind(prefix, 0) == 0;
    return n;
}

dse::MemorySpaces
tinySpaces()
{
    dse::MemorySpaces spaces;
    dse::CacheSpace l1;
    l1.sizesBytes = {4096};
    l1.assocs = {1};
    l1.lineSizes = {32};
    spaces.icache = l1;
    spaces.dcache = l1;
    dse::CacheSpace l2;
    l2.sizesBytes = {65536};
    l2.assocs = {4};
    l2.lineSizes = {64};
    spaces.ucache = l2;
    return spaces;
}

class ParallelStress : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        support::resetHooks();
    }

    static void
    SetUpTestSuite()
    {
        prog_ = new ir::Program(workloads::buildAndProfile(
            workloads::specByName("unepic"), 8000));
    }
    static void
    TearDownTestSuite()
    {
        delete prog_;
        prog_ = nullptr;
    }
    static ir::Program *prog_;
};

ir::Program *ParallelStress::prog_ = nullptr;

TEST_F(ParallelStress, InjectedFailuresStayIsolatedAtEightThreads)
{
    auto path = tmpFile("pico_pstress_isolate.db");
    std::filesystem::remove(path);

    std::vector<std::string> machines = {"1111", "2111", "2211",
                                         "3221", "4221", "4332"};
    dse::Spacewalker::Options opts;
    opts.traceBlocks = 8000;
    opts.uGranule = 40000;
    opts.jobs = 8;
    opts.checkpointEvery = 1;
    opts.evaluationCachePath = path.string();
    dse::Spacewalker walker(tinySpaces(), machines, opts);

    // Every design task hits the site exactly once; two of the six
    // hits fire. *Which* two is schedule-dependent — the isolation
    // guarantees below must hold regardless.
    support::ScopedHook f("spacewalker.design",
                          /*skip=*/0, /*fires=*/2);
    auto result = walker.explore(*prog_);

    EXPECT_FALSE(result.complete());
    ASSERT_EQ(result.failures.size(), 2u);
    EXPECT_EQ(result.evaluatedDesigns, 4u);
    EXPECT_FALSE(result.systems.empty());

    std::map<std::string, size_t> walkIndex;
    for (size_t i = 0; i < machines.size(); ++i)
        walkIndex[machines[i]] = i;

    size_t last_index = 0;
    for (size_t e = 0; e < result.failures.size(); ++e) {
        const auto &entry = result.failures.entries()[e];
        // The fault fires before any stage of the design ran.
        EXPECT_EQ(entry.stage, "machine-description");
        EXPECT_NE(entry.reason.find("injected fault"),
                  std::string::npos);
        // A failed design contributed nothing.
        EXPECT_EQ(result.dilations.count(entry.design), 0u);
        EXPECT_EQ(result.processorCycles.count(entry.design), 0u);
        // Failures surface in walk order, not completion order.
        ASSERT_EQ(walkIndex.count(entry.design), 1u);
        size_t index = walkIndex[entry.design];
        if (e > 0) {
            EXPECT_GT(index, last_index);
        }
        last_index = index;
    }

    // Every surviving design contributed, and its checkpointed
    // metrics reload cleanly: no torn or quarantined entries even
    // with per-completion checkpoints under the parallel schedule.
    uint64_t contributed = 0;
    for (const auto &name : machines)
        contributed += result.dilations.count(name);
    EXPECT_EQ(contributed, 4u);

    // One machine entry per surviving design, one reference set for
    // the walk's single trace-equivalence class.
    EXPECT_EQ(countEntries(path, "proc;"), 4u);
    EXPECT_EQ(countEntries(path, "ref;"), 1u);
    dse::EvaluationCache reloaded(path.string());
    EXPECT_EQ(reloaded.quarantinedEntries(), 0u);

    std::filesystem::remove(path);
    std::filesystem::remove(path.string() + ".tmp");
}

TEST_F(ParallelStress, SaveCrashDuringParallelWalkKeepsOldGeneration)
{
    auto path = tmpFile("pico_pstress_crash.db");
    auto tmp = path.string() + ".tmp";
    std::filesystem::remove(path);
    std::filesystem::remove(tmp);

    dse::Spacewalker::Options opts;
    opts.traceBlocks = 8000;
    opts.uGranule = 40000;
    opts.jobs = 8;
    opts.checkpointEvery = 1;
    opts.evaluationCachePath = path.string();
    {
        dse::Spacewalker walker(tinySpaces(),
                                {"1111", "2211", "3221"}, opts);
        // The first checkpoint's rename "crashes". The injected
        // error escapes the walk (flushing is not per-design work),
        // exactly as it would in a serial walk.
        support::ScopedHook f("evalcache.rename",
                              /*skip=*/0, /*fires=*/1);
        EXPECT_THROW(walker.explore(*prog_), FaultInjectedError);
    }
    // The walker's destructor-time flush committed what the crashed
    // checkpoint could not: the database reloads cleanly.
    dse::EvaluationCache reloaded(path.string());
    EXPECT_EQ(reloaded.quarantinedEntries(), 0u);
    EXPECT_EQ(reloaded.loadedEntries(), reloaded.size());

    std::filesystem::remove(path);
    std::filesystem::remove(tmp);
}

TEST_F(ParallelStress, WalkSurvivesArmedButUnfiredSites)
{
    // Arm a site with a skip beyond every hit: the lock-free armed
    // check and the locked hit counting run on every
    // task of the parallel walk without firing — the walk must be
    // clean and complete (TSan guards the counter accesses).
    support::ScopedHook f("spacewalker.design",
                          /*skip=*/1000, /*fires=*/1);
    dse::Spacewalker::Options opts;
    opts.traceBlocks = 8000;
    opts.uGranule = 40000;
    opts.jobs = 8;
    dse::Spacewalker walker(tinySpaces(), {"1111", "2211", "3221"},
                            opts);
    auto result = walker.explore(*prog_);
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(result.evaluatedDesigns, 3u);
    EXPECT_EQ(support::hookHits("spacewalker.design"), 3u);
}

// --- concurrent-flush regression --------------------------------------

TEST(EvaluationCacheConcurrency, ConcurrentFlushesNeverTearTheFile)
{
    // Regression test for the double-rename race: two threads inside
    // save() at once both wrote <path>.tmp and both renamed it; the
    // loser renamed a half-written or missing tmp over the live
    // database. flush() now serializes the whole write-out protocol,
    // so any mix of concurrent stores and flushes must leave a
    // database that reloads completely and cleanly.
    auto path = tmpFile("pico_pstress_flushrace.db");
    std::filesystem::remove(path);
    constexpr size_t writers = 8;
    constexpr size_t rounds = 25;
    {
        dse::EvaluationCache cache(path.string());
        support::ThreadPool pool(4);
        support::parallelFor(writers, &pool, [&](size_t w) {
            for (size_t r = 0; r < rounds; ++r) {
                std::string key = "w";
                key += std::to_string(w);
                key += ";r";
                key += std::to_string(r);
                cache.store(key, {static_cast<double>(w),
                                  static_cast<double>(r)});
                cache.flush();
            }
        });
        EXPECT_EQ(cache.size(), writers * rounds);
    }
    dse::EvaluationCache reloaded(path.string());
    EXPECT_EQ(reloaded.loadedEntries(), writers * rounds);
    EXPECT_EQ(reloaded.quarantinedEntries(), 0u);
    std::vector<double> v;
    ASSERT_TRUE(reloaded.lookup("w7;r24", v));
    EXPECT_EQ(v, (std::vector<double>{7.0, 24.0}));

    std::filesystem::remove(path);
    std::filesystem::remove(path.string() + ".tmp");
}

TEST(EvaluationCacheConcurrency, ParallelGetOrComputeIsCoherent)
{
    // Many threads racing getOrCompute on overlapping keys: every
    // caller must observe the deterministic value, and hits + misses
    // must account for every call.
    dse::EvaluationCache cache;
    support::ThreadPool pool(4);
    constexpr size_t tasks = 64;
    std::atomic<uint64_t> computes{0};
    support::parallelFor(tasks, &pool, [&](size_t i) {
        std::string key = "k" + std::to_string(i % 8);
        auto v = cache.getOrCompute(key, [&]() {
            ++computes;
            return std::vector<double>{
                static_cast<double>(i % 8)};
        });
        ASSERT_EQ(v.size(), 1u);
        EXPECT_EQ(v[0], static_cast<double>(i % 8));
    });
    EXPECT_EQ(cache.size(), 8u);
    EXPECT_EQ(cache.hits() + cache.misses(), tasks);
    // Duplicate concurrent computes are allowed (first store wins),
    // but every distinct key computed at least once.
    EXPECT_GE(computes.load(), 8u);
}

} // namespace
} // namespace pico
