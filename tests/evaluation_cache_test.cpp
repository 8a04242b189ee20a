/**
 * @file
 * Unit tests for the persistent EvaluationCache.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "dse/EvaluationCache.hpp"
#include "dse/Spacewalker.hpp"
#include "support/CancelToken.hpp"
#include "support/Logging.hpp"
#include "support/Metrics.hpp"

namespace pico::dse
{
namespace
{

TEST(EvaluationCache, ComputesOnMissOnly)
{
    EvaluationCache cache;
    int computations = 0;
    auto compute = [&computations]() {
        ++computations;
        return std::vector<double>{1.0, 2.0};
    };
    auto a = cache.getOrCompute("k", compute);
    auto b = cache.getOrCompute("k", compute);
    EXPECT_EQ(computations, 1);
    EXPECT_EQ(a, b);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(EvaluationCache, RegistryCountsHitsMissesAndStores)
{
    // With metrics on, every cache in the process adds to three
    // aggregate registry counters.
    support::setMetricsEnabled(true);
    auto before = support::metrics().snapshot().counters;
    EvaluationCache cache;
    std::vector<double> values;
    EXPECT_FALSE(cache.lookup("k", values));
    cache.getOrCompute("k", [] { return std::vector<double>{1.0}; });
    cache.getOrCompute("k", [] { return std::vector<double>{2.0}; });
    auto after = support::metrics().snapshot().counters;
    support::setMetricsEnabled(false);
    EXPECT_EQ(after["evalcache.hits"] - before["evalcache.hits"], 1u);
    EXPECT_EQ(after["evalcache.misses"] - before["evalcache.misses"], 2u);
    EXPECT_EQ(after["evalcache.stores"] - before["evalcache.stores"], 1u);
}

TEST(EvaluationCache, LookupWithoutCompute)
{
    EvaluationCache cache;
    std::vector<double> values;
    EXPECT_FALSE(cache.lookup("missing", values));
    cache.store("present", {3.5});
    ASSERT_TRUE(cache.lookup("present", values));
    EXPECT_EQ(values, std::vector<double>{3.5});
}

TEST(EvaluationCache, RejectsReservedCharacters)
{
    EvaluationCache cache;
    EXPECT_THROW(cache.store("a|b", {1.0}), FatalError);
    EXPECT_THROW(cache.store("a\nb", {1.0}), FatalError);
}

TEST(EvaluationCache, PersistsAcrossInstances)
{
    auto path = std::filesystem::temp_directory_path() /
                "pico_eval_cache_test.db";
    std::filesystem::remove(path);
    {
        EvaluationCache cache(path.string());
        cache.store("app/ic/16KB", {123.0, 456.0});
        cache.store("app/uc/128KB", {7.0});
        cache.save();
    }
    {
        EvaluationCache cache(path.string());
        std::vector<double> values;
        ASSERT_TRUE(cache.lookup("app/ic/16KB", values));
        EXPECT_EQ(values, (std::vector<double>{123.0, 456.0}));
        ASSERT_TRUE(cache.lookup("app/uc/128KB", values));
        EXPECT_EQ(values, std::vector<double>{7.0});
        EXPECT_EQ(cache.size(), 2u);
    }
    std::filesystem::remove(path);
}

TEST(EvaluationCache, SaveOnDestruction)
{
    auto path = std::filesystem::temp_directory_path() /
                "pico_eval_cache_dtor.db";
    std::filesystem::remove(path);
    {
        EvaluationCache cache(path.string());
        cache.store("x", {1.0});
        // no explicit save()
    }
    EvaluationCache reloaded(path.string());
    std::vector<double> values;
    EXPECT_TRUE(reloaded.lookup("x", values));
    std::filesystem::remove(path);
}

TEST(EvaluationCache, RoundTripPrecision)
{
    auto path = std::filesystem::temp_directory_path() /
                "pico_eval_cache_prec.db";
    std::filesystem::remove(path);
    double v = 1.0 / 3.0 * 1e17;
    {
        EvaluationCache cache(path.string());
        cache.store("pi", {v});
    }
    EvaluationCache reloaded(path.string());
    std::vector<double> values;
    ASSERT_TRUE(reloaded.lookup("pi", values));
    EXPECT_DOUBLE_EQ(values[0], v);
    std::filesystem::remove(path);
}

TEST(EvaluationCache, MemoryOnlyNeverTouchesDisk)
{
    EvaluationCache cache;
    cache.store("k", {1.0});
    EXPECT_NO_THROW(cache.save());
}

TEST(EvaluationCache, SavesVersionedHeaderAtomically)
{
    auto path = std::filesystem::temp_directory_path() /
                "pico_eval_cache_hdr.db";
    std::filesystem::remove(path);
    {
        EvaluationCache cache(path.string());
        cache.store("k", {1.0});
        cache.flush();
        EXPECT_FALSE(cache.dirty());
        // The atomic-rename protocol leaves no temporary behind.
        EXPECT_FALSE(
            std::filesystem::exists(path.string() + ".tmp"));
    }
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first, EvaluationCache::header);
    std::filesystem::remove(path);
}

TEST(EvaluationCache, SalvagesGoodEntriesFromCorruptFile)
{
    auto path = std::filesystem::temp_directory_path() /
                "pico_eval_cache_corrupt.db";
    {
        std::ofstream out(path);
        out << EvaluationCache::header << "\n"
            << "good|1.5,2.5\n"
            << "bad|notanumber\n"
            << "trailing|1.5junk\n"
            << "nobar\n"
            << "|emptykey\n"
            << "alsogood|3\n";
    }
    // No std::invalid_argument leaks out of load(); good entries
    // survive, bad ones are quarantined.
    EvaluationCache cache(path.string());
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.loadedEntries(), 2u);
    EXPECT_EQ(cache.quarantinedEntries(), 4u);
    std::vector<double> v;
    ASSERT_TRUE(cache.lookup("good", v));
    EXPECT_EQ(v, (std::vector<double>{1.5, 2.5}));
    ASSERT_TRUE(cache.lookup("alsogood", v));
    EXPECT_EQ(v, std::vector<double>{3.0});
    std::filesystem::remove(path);
}

TEST(EvaluationCache, LoadsHeaderlessV1Files)
{
    auto path = std::filesystem::temp_directory_path() /
                "pico_eval_cache_v1.db";
    {
        std::ofstream out(path);
        out << "legacy|4.5\nother|1,2\n";
    }
    EvaluationCache cache(path.string());
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.quarantinedEntries(), 0u);
    std::vector<double> v;
    ASSERT_TRUE(cache.lookup("legacy", v));
    EXPECT_EQ(v, std::vector<double>{4.5});
    std::filesystem::remove(path);
}

TEST(EvaluationCache, LoadsV2FilesAndRewritesThemAsV3)
{
    // Schema back-compat across the policy-axis bump: a v2 database
    // (pre policy axes) loads completely — its classic keys are
    // byte-identical under the new schema — and the next save
    // rewrites it under the v3 header.
    auto path = std::filesystem::temp_directory_path() /
                "pico_eval_cache_v2.db";
    {
        std::ofstream out(path);
        out << EvaluationCache::headerV2 << "\n"
            << "proc;app;s1;1111;p1|1.5,2.5\n";
    }
    EvaluationCache cache(path.string());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.quarantinedEntries(), 0u);
    std::vector<double> v;
    ASSERT_TRUE(cache.lookup("proc;app;s1;1111;p1", v));
    EXPECT_EQ(v, (std::vector<double>{1.5, 2.5}));
    cache.store("k2", {3.0});
    cache.save();

    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first, EvaluationCache::header);
    EXPECT_NE(std::string(EvaluationCache::header),
              std::string(EvaluationCache::headerV2));
    std::filesystem::remove(path);
}

TEST(EvaluationCache, PolicyAxesPartitionTheKeySchema)
{
    // The satellite contract of the schema bump: classic-space keys
    // are byte-identical to the historical schema (so v2-era LRU
    // caches keep hitting), while a walk with extended policy axes
    // derives a *different* key — an old LRU entry can never be
    // served to a FIFO/random/write-through walk.
    MemorySpaces classic;
    auto classic_key = procMetricsKey("app", 1, "1111", classic);
    EXPECT_EQ(classic_key.rfind("proc;app;s1;1111;p", 0), 0u);
    EXPECT_EQ(classic_key.find(";r"), std::string::npos);
    EXPECT_EQ(classic_key.find(";w"), std::string::npos);

    MemorySpaces extended = classic;
    extended.dcache.replacements = {cache::ReplacementPolicy::LRU,
                                    cache::ReplacementPolicy::FIFO};
    extended.dcache.writePolicies = {
        cache::WritePolicy::WriteBack,
        cache::WritePolicy::WriteThrough};
    auto extended_key = procMetricsKey("app", 1, "1111", extended);
    EXPECT_NE(extended_key, classic_key);
    EXPECT_NE(extended_key.find(";r.lru.fifo"), std::string::npos);
    EXPECT_NE(extended_key.find(";w.wb.wt"), std::string::npos);

    // A different axis choice is a different key too.
    MemorySpaces random_space = classic;
    random_space.dcache.replacements = {
        cache::ReplacementPolicy::Random};
    auto random_key = procMetricsKey("app", 1, "1111", random_space);
    EXPECT_NE(random_key, classic_key);
    EXPECT_NE(random_key, extended_key);

    // The table itself enforces the partition: an entry stored by
    // an old LRU walk misses for the extended walk's key.
    EvaluationCache table;
    table.store(classic_key, {1.0, 2.0});
    std::vector<double> v;
    EXPECT_FALSE(table.lookup(extended_key, v));
    EXPECT_FALSE(table.lookup(random_key, v));
    ASSERT_TRUE(table.lookup(classic_key, v));
    EXPECT_EQ(v, (std::vector<double>{1.0, 2.0}));
}

TEST(EvaluationCache, FlushIsIdempotentAndTracksDirtiness)
{
    auto path = std::filesystem::temp_directory_path() /
                "pico_eval_cache_flush.db";
    std::filesystem::remove(path);
    EvaluationCache cache(path.string());
    EXPECT_FALSE(cache.dirty());
    cache.flush(); // nothing to do, nothing written
    EXPECT_FALSE(std::filesystem::exists(path));
    cache.store("k", {1.0});
    EXPECT_TRUE(cache.dirty());
    cache.flush();
    EXPECT_FALSE(cache.dirty());
    EXPECT_TRUE(std::filesystem::exists(path));
    std::filesystem::remove(path);
}

TEST(EvaluationCache, StatsSplitSumsExactlyUnderConcurrentAccess)
{
    EvaluationCache cache;
    // Pre-populate half the keys so concurrent readers see a mix of
    // hits and misses.
    const int kKeys = 64;
    for (int k = 0; k < kKeys; k += 2)
        cache.store("key" + std::to_string(k), {double(k)});

    const int kThreads = 8, kCallsPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kCallsPerThread; ++i) {
                std::string key =
                    "key" + std::to_string((t * 31 + i) % kKeys);
                std::vector<double> values;
                cache.lookup(key, values);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // Every lookup counted exactly once, and the disk/memory split
    // partitions the hits exactly — no update was lost or double
    // counted across the 8 threads.
    auto s = cache.stats();
    EXPECT_EQ(s.hits + s.misses,
              uint64_t(kThreads) * kCallsPerThread);
    EXPECT_EQ(s.diskHits + s.memoryHits, s.hits);
    EXPECT_EQ(s.diskHits, 0u); // nothing was loaded from a file
}

TEST(EvaluationCache, RetryStormComputesEachKeyAtMostOnce)
{
    EvaluationCache cache;
    // A retry storm: many threads hammer a handful of idempotent
    // keys concurrently. Single-flight getOrCompute must run the
    // compute callback exactly once per key.
    const int kKeys = 4, kThreads = 8, kCallsPerThread = 50;
    std::array<std::atomic<int>, kKeys> runs{};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kCallsPerThread; ++i) {
                int k = (t + i) % kKeys;
                auto v = cache.getOrCompute(
                    "storm" + std::to_string(k), [&runs, k] {
                        runs[size_t(k)].fetch_add(1);
                        return std::vector<double>{double(k)};
                    });
                ASSERT_EQ(v.size(), 1u);
                EXPECT_DOUBLE_EQ(v[0], double(k));
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (int k = 0; k < kKeys; ++k)
        EXPECT_EQ(runs[size_t(k)].load(), 1) << "key " << k;
    auto s = cache.stats();
    EXPECT_EQ(s.computed, uint64_t(kKeys));
    // Conservation still holds: every call was a hit or a miss.
    EXPECT_EQ(s.hits + s.misses,
              uint64_t(kThreads) * kCallsPerThread);
}

TEST(EvaluationCache, LoaderQuarantinesEmptyAndNonFiniteValueLists)
{
    auto path = std::filesystem::temp_directory_path() /
                "pico_eval_cache_nonfinite.db";
    {
        std::ofstream out(path);
        out << EvaluationCache::header << "\n"
            << "empty|\n"
            << "nan|1,nan\n"
            << "inf|inf\n"
            << "comma|1,\n"
            << "good|2\n";
    }
    EvaluationCache cache(path.string());
    EXPECT_EQ(cache.loadedEntries(), 1u);
    EXPECT_EQ(cache.quarantinedEntries(), 4u);
    std::vector<double> v;
    EXPECT_TRUE(cache.lookup("good", v));
    EXPECT_FALSE(cache.lookup("empty", v));
    std::filesystem::remove(path);
}

TEST(EvaluationCache, InvalidEntryIsQuarantinedAndRecomputed)
{
    EvaluationCache cache;
    auto two_values = [](const std::vector<double> &v) {
        return v.size() == 2;
    };
    int runs = 0;
    auto compute = [&runs] {
        ++runs;
        return std::vector<double>{1.0, 2.0};
    };
    cache.store("k", {1.0});
    EXPECT_EQ(cache.getOrCompute("k", compute, two_values),
              (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(cache.stats().quarantinedEntries, 1u);
    // The recomputed entry overwrote the bad one: now a hit.
    EXPECT_EQ(cache.getOrCompute("k", compute, two_values),
              (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(cache.stats().hits, 1u);
    // A cancelled recompute stores nothing.
    cache.store("c", {1.0});
    EXPECT_THROW(cache.getOrCompute(
                     "c",
                     []() -> std::vector<double> {
                         throw CancelledError("deadline");
                     },
                     two_values),
                 CancelledError);
    std::vector<double> v;
    EXPECT_FALSE(cache.lookup("c", v));
    EXPECT_EQ(cache.stats().quarantinedEntries, 2u);
}

/**
 * Run a leader whose compute blocks until a follower waits on the
 * same key (the second miss), then throws `error`; return what the
 * follower's own getOrCompute returned (its compute yields {7}).
 */
template <typename Error>
std::vector<double>
followLeaderThatThrows(EvaluationCache &cache, int &follower_runs)
{
    std::thread leader([&cache] {
        EXPECT_THROW(cache.getOrCompute("k",
                                        [&cache]() -> std::vector<double> {
                                            while (cache.stats().misses <
                                                   2)
                                                std::this_thread::yield();
                                            throw Error("leader failed");
                                        }),
                     Error);
    });
    while (cache.stats().misses < 1)
        std::this_thread::yield();
    std::vector<double> out;
    try {
        out = cache.getOrCompute("k", [&follower_runs] {
            ++follower_runs;
            return std::vector<double>{7.0};
        });
    } catch (...) {
        leader.join();
        throw;
    }
    leader.join();
    return out;
}

TEST(EvaluationCache, LeaderCancellationIsNotSharedWithFollowers)
{
    // The leader's CancelledError is its own deadline: the follower
    // looks again and computes under its own (here: no) token.
    EvaluationCache cache;
    int runs = 0;
    EXPECT_EQ(followLeaderThatThrows<CancelledError>(cache, runs),
              std::vector<double>{7.0});
    EXPECT_EQ(runs, 1);
    std::vector<double> v;
    ASSERT_TRUE(cache.lookup("k", v));
    EXPECT_EQ(v, std::vector<double>{7.0});
}

TEST(EvaluationCache, LeaderErrorStillFailsFollowers)
{
    EvaluationCache cache;
    int runs = 0;
    EXPECT_THROW(followLeaderThatThrows<std::runtime_error>(cache, runs),
                 std::runtime_error);
    EXPECT_EQ(runs, 0);
}

} // namespace
} // namespace pico::dse
