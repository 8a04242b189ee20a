/**
 * @file
 * Fault-injection tests: the hook registry's triggers, plus every
 * recovery path they exist to exercise — crash-safe evaluation-cache
 * persistence and per-design failure isolation in the spacewalker.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "dse/EvaluationCache.hpp"
#include "dse/Spacewalker.hpp"
#include "support/Hooks.hpp"
#include "support/Metrics.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

#include "FileCorruption.hpp"

namespace pico
{
namespace
{

using support::hookPoint;
using support::ScopedHook;

class FaultInjection : public ::testing::Test
{
  protected:
    void TearDown() override { support::resetHooks(); }

    static std::filesystem::path
    tmpFile(const std::string &name)
    {
        return std::filesystem::temp_directory_path() / name;
    }

    /** Database entries whose key starts with `prefix`. */
    static size_t
    countEntries(const std::filesystem::path &p,
                 const std::string &prefix)
    {
        std::ifstream in(p);
        size_t n = 0;
        for (std::string line; std::getline(in, line);)
            n += line.rfind(prefix, 0) == 0;
        return n;
    }

    static void
    writeFile(const std::filesystem::path &p,
              const std::string &content)
    {
        std::ofstream out(p,
                          std::ios::trunc | std::ios::binary);
        out << content;
    }
};

// --- the triggers themselves ------------------------------------------

TEST_F(FaultInjection, UnarmedSitesAreFree)
{
    EXPECT_NO_THROW(hookPoint("never-armed"));
    // Nothing armed: the site took the one-load fast path and was
    // not even counted.
    EXPECT_EQ(support::hookHits("never-armed"), 0u);
}

TEST_F(FaultInjection, ArmedSiteFiresOnceThenDisarms)
{
    support::armHook("site-a");
    EXPECT_THROW(hookPoint("site-a"), FaultInjectedError);
    EXPECT_NO_THROW(hookPoint("site-a"));
    EXPECT_EQ(support::hookHits("site-a"), 2u);
}

TEST_F(FaultInjection, SkipCountDelaysTheFault)
{
    support::armHook("site-b", /*skip=*/2);
    EXPECT_NO_THROW(hookPoint("site-b"));
    EXPECT_NO_THROW(hookPoint("site-b"));
    EXPECT_THROW(hookPoint("site-b"), FaultInjectedError);
}

TEST_F(FaultInjection, OtherSitesAreUnaffected)
{
    support::armHook("site-c");
    EXPECT_NO_THROW(hookPoint("site-d"));
    EXPECT_THROW(hookPoint("site-c"), FaultInjectedError);
}

TEST_F(FaultInjection, ScopedFaultDisarmsOnExit)
{
    {
        ScopedHook f("site-e", /*skip=*/0, /*fires=*/0);
        EXPECT_THROW(hookPoint("site-e"), FaultInjectedError);
    }
    EXPECT_NO_THROW(hookPoint("site-e"));
}

TEST_F(FaultInjection, TripIsCountedOutsideTheRegistryLock)
{
    // The trip counter's first use registers it under the metrics
    // registry lock (rank 700). Taken under the hook registry's lock
    // (rank 800), that is a rank inversion the Debug checker turns
    // into a FatalError instead of the injected fault.
    support::setMetricsEnabled(true);
    support::metrics().resetValues();
    {
        ScopedHook f("site-f");
        EXPECT_THROW(hookPoint("site-f"), FaultInjectedError);
    }
    auto counters = support::metrics().snapshot().counters;
    support::setMetricsEnabled(false);
    EXPECT_EQ(counters["fault.trips"], 1u);
}

TEST_F(FaultInjection, CorruptionOffsetsAreDeterministic)
{
    auto path = tmpFile("pico_fi_offsets.bin");
    writeFile(path, std::string(256, 'x'));
    auto a = testutil::corruptionOffsets(path.string(), 42, 8, 16);
    auto b = testutil::corruptionOffsets(path.string(), 42, 8, 16);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 8u);
    for (auto off : a) {
        EXPECT_GE(off, 16u);
        EXPECT_LT(off, 256u);
    }
    auto c = testutil::corruptionOffsets(path.string(), 43, 8, 16);
    EXPECT_NE(a, c);
    std::filesystem::remove(path);
}

// --- evaluation-cache crash safety ------------------------------------

TEST_F(FaultInjection, CacheCrashBeforeRenameKeepsOldGeneration)
{
    auto path = tmpFile("pico_fi_cache_rename.db");
    auto tmp = path.string() + ".tmp";
    std::filesystem::remove(path);
    std::filesystem::remove(tmp);
    {
        dse::EvaluationCache cache(path.string());
        cache.store("gen1", {1.0});
        cache.flush(); // generation 1 on disk

        cache.store("gen2", {2.0});
        {
            ScopedHook f("evalcache.rename");
            EXPECT_THROW(cache.flush(), FaultInjectedError);
        }
        // The "crash" hit after the tmp write, before the rename:
        // the live database is still generation 1, loadable.
        EXPECT_TRUE(std::filesystem::exists(tmp));
        dse::EvaluationCache survivor(path.string());
        std::vector<double> v;
        EXPECT_TRUE(survivor.lookup("gen1", v));
        EXPECT_FALSE(survivor.lookup("gen2", v));

        // cache is still dirty; its destructor retries the flush.
        EXPECT_TRUE(cache.dirty());
    }
    dse::EvaluationCache reloaded(path.string());
    std::vector<double> v;
    EXPECT_TRUE(reloaded.lookup("gen1", v));
    EXPECT_TRUE(reloaded.lookup("gen2", v));
    std::filesystem::remove(path);
    std::filesystem::remove(tmp);
}

TEST_F(FaultInjection, CacheCrashBeforeWriteKeepsOldGeneration)
{
    auto path = tmpFile("pico_fi_cache_write.db");
    std::filesystem::remove(path);
    dse::EvaluationCache cache(path.string());
    cache.store("gen1", {1.0});
    cache.flush();
    cache.store("gen2", {2.0});
    {
        ScopedHook f("evalcache.save");
        EXPECT_THROW(cache.flush(), FaultInjectedError);
    }
    dse::EvaluationCache survivor(path.string());
    std::vector<double> v;
    EXPECT_TRUE(survivor.lookup("gen1", v));
    EXPECT_FALSE(survivor.lookup("gen2", v));
    std::filesystem::remove(path);
}

TEST_F(FaultInjection, CacheDestructorNeverThrows)
{
    auto path = tmpFile("pico_fi_cache_dtor.db");
    std::filesystem::remove(path);
    auto cache =
        std::make_unique<dse::EvaluationCache>(path.string());
    cache->store("k", {1.0});
    ScopedHook f("evalcache.rename", /*skip=*/0, /*fires=*/0);
    EXPECT_NO_THROW(cache.reset());
    std::filesystem::remove(path);
    std::filesystem::remove(path.string() + ".tmp");
}

TEST_F(FaultInjection, HalfWrittenTmpIsIgnoredOnLoad)
{
    auto path = tmpFile("pico_fi_cache_tmp.db");
    std::filesystem::remove(path);
    {
        dse::EvaluationCache cache(path.string());
        cache.store("k", {4.5});
    }
    // Simulate a crash mid-tmp-write from some earlier run.
    writeFile(path.string() + ".tmp", "picoeval-evalcache-v2\nk|9");
    dse::EvaluationCache cache(path.string());
    std::vector<double> v;
    ASSERT_TRUE(cache.lookup("k", v));
    EXPECT_EQ(v, std::vector<double>{4.5});
    std::filesystem::remove(path);
    std::filesystem::remove(path.string() + ".tmp");
}

// --- spacewalker failure isolation ------------------------------------

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

dse::Spacewalker::Options
tinyOptions()
{
    dse::Spacewalker::Options opts;
    opts.traceBlocks = 8000;
    opts.uGranule = 40000;
    return opts;
}

TEST_F(FaultInjection, InjectedDesignFailureIsIsolated)
{
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);
    dse::Spacewalker walker(tinySpaces(), {"1111", "2111", "3221"},
                            tinyOptions());
    // Poison only the second design evaluation.
    ScopedHook f("spacewalker.design", /*skip=*/1);
    auto result = walker.explore(prog);

    EXPECT_FALSE(result.complete());
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures.entries()[0].design, "2111");
    EXPECT_NE(result.failures.entries()[0].reason.find(
                  "injected fault"),
              std::string::npos);
    EXPECT_EQ(result.evaluatedDesigns, 2u);
    EXPECT_EQ(result.dilations.count("2111"), 0u);
    EXPECT_EQ(result.dilations.count("1111"), 1u);
    EXPECT_EQ(result.dilations.count("3221"), 1u);
    EXPECT_FALSE(result.systems.empty());
    EXPECT_FALSE(result.failures.report().empty());
}

/** Not a std::exception: the walk records no design failure for it,
 *  so it ends explore() the way a crash ends the process. */
struct WalkCrash
{};

TEST_F(FaultInjection, CheckpointSurvivesWalkCrash)
{
    auto path = tmpFile("pico_fi_checkpoint.db");
    std::filesystem::remove(path);
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);

    auto opts = tinyOptions();
    opts.evaluationCachePath = path.string();
    opts.checkpointEvery = 1;
    {
        dse::Spacewalker walker(tinySpaces(), {"1111", "3221"},
                                opts);
        ScopedHook f("spacewalker.design", /*skip=*/1, /*fires=*/1,
                     [] { throw WalkCrash{}; });
        EXPECT_THROW(walker.explore(prog), WalkCrash);

        // Before the walker (and its destructor-time save) goes
        // away: the first design's metrics, and the class's
        // reference set stored before them, were already
        // checkpointed to disk.
        EXPECT_EQ(countEntries(path, "proc;"), 1u);
        EXPECT_EQ(countEntries(path, "ref;"), 1u);
        dse::EvaluationCache snapshot(path.string());
        EXPECT_EQ(snapshot.quarantinedEntries(), 0u);
    }
    // A fresh walker resumes from the checkpoint: the surviving
    // design is served from the cache, only the crashed one is
    // recomputed.
    auto opts2 = tinyOptions();
    opts2.evaluationCachePath = path.string();
    dse::Spacewalker resumed(tinySpaces(), {"1111", "3221"}, opts2);
    auto result = resumed.explore(prog);
    EXPECT_TRUE(result.complete());
    EXPECT_GE(resumed.evaluationCache().hits(), 1u);
    std::filesystem::remove(path);
}

} // namespace
} // namespace pico
