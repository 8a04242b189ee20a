/**
 * @file
 * Tests for the spacewalker's EvaluationCache integration: repeated
 * explorations reuse cached per-machine metrics and reference sets,
 * persisted databases survive across walker instances, and a
 * malformed entry is recomputed instead of read.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "dse/Spacewalker.hpp"
#include "support/Metrics.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico::dse
{
namespace
{

/** Entries of a database file, counted by key prefix. */
std::map<std::string, size_t>
entriesByPrefix(const std::string &path)
{
    std::map<std::string, size_t> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        for (const char *prefix : {"proc;", "ref;"}) {
            if (line.rfind(prefix, 0) == 0)
                ++out[prefix];
        }
    }
    return out;
}

/** The walk.reference.* counters, from zero, while in scope. */
class ReferenceCounters
{
  public:
    ReferenceCounters()
    {
        support::setMetricsEnabled(true);
        support::metrics().resetValues();
    }
    ~ReferenceCounters() { support::setMetricsEnabled(false); }

    uint64_t hits() const { return value("walk.reference.hits"); }
    uint64_t computed() const { return value("walk.reference.computed"); }

  private:
    static uint64_t
    value(const std::string &name)
    {
        auto counters = support::metrics().snapshot().counters;
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
};

/** A walk's observable results, flattened for exact comparison. */
std::string
flatten(const ExplorationResult &r)
{
    std::ostringstream ss;
    ss.precision(17);
    for (const auto *set : {&r.processors, &r.systems}) {
        for (const auto &p : set->points())
            ss << p.id << ";" << p.cost << ";" << p.time << "\n";
    }
    for (const auto &e : r.failures.entries())
        ss << e.design << "[" << e.stage << "]: " << e.reason << "\n";
    for (const auto &[name, d] : r.dilations)
        ss << name << " " << d << " " << r.processorCycles.at(name)
           << "\n";
    ss << r.evaluatedDesigns << "\n";
    return ss.str();
}

MemorySpaces
tinySpaces()
{
    MemorySpaces spaces;
    CacheSpace l1;
    l1.sizesBytes = {4096};
    l1.assocs = {1};
    l1.lineSizes = {32};
    spaces.icache = l1;
    spaces.dcache = l1;
    CacheSpace l2;
    l2.sizesBytes = {65536};
    l2.assocs = {4};
    l2.lineSizes = {64};
    spaces.ucache = l2;
    return spaces;
}

Spacewalker::Options
tinyOptions()
{
    Spacewalker::Options opts;
    opts.traceBlocks = 8000;
    opts.uGranule = 40000;
    return opts;
}

TEST(SpacewalkerCache, SecondExploreHitsCache)
{
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);
    Spacewalker walker(tinySpaces(), {"1111", "3221"},
                       tinyOptions());
    ReferenceCounters refs;
    auto first = walker.explore(prog);
    EXPECT_EQ(walker.evaluationCache().hits(), 0u);
    EXPECT_EQ(refs.computed(), 1u);
    auto second = walker.explore(prog);
    // The class's reference set and both machines' metrics were
    // served from the cache.
    EXPECT_EQ(refs.hits(), 1u);
    EXPECT_EQ(refs.computed(), 1u);
    EXPECT_EQ(walker.evaluationCache().hits() - refs.hits(), 2u);
    EXPECT_EQ(first.dilations, second.dilations);
    EXPECT_EQ(first.processorCycles, second.processorCycles);
}

TEST(SpacewalkerCache, PoisonedDesignDoesNotKillTheWalk)
{
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);
    // "0111" names a machine with a zero FU count — an infeasible
    // design that fatal()s during machine description.
    Spacewalker walker(tinySpaces(), {"1111", "0111", "3221"},
                       tinyOptions());
    auto result = walker.explore(prog);

    EXPECT_FALSE(result.complete());
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures.entries()[0].design, "0111");
    EXPECT_EQ(result.failures.entries()[0].stage,
              "machine-description");
    EXPECT_EQ(result.evaluatedDesigns, 2u);

    // The surviving designs still produced full Pareto sets.
    EXPECT_EQ(result.dilations.size(), 2u);
    EXPECT_FALSE(result.processors.empty());
    EXPECT_FALSE(result.systems.empty());
    for (const auto &p : result.processors.points())
        EXPECT_EQ(p.id.find("P0111"), std::string::npos);
}

TEST(SpacewalkerCache, AllDesignsFailingYieldsEmptyResult)
{
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);
    Spacewalker walker(tinySpaces(), {"0111", "0221"},
                       tinyOptions());
    auto result = walker.explore(prog);
    EXPECT_EQ(result.failures.size(), 2u);
    EXPECT_EQ(result.evaluatedDesigns, 0u);
    EXPECT_TRUE(result.processors.empty());
    EXPECT_TRUE(result.systems.empty());
    // No class was ever built, so the memory walker is unavailable.
    EXPECT_THROW(walker.memoryWalker(), FatalError);
}

TEST(SpacewalkerCache, PersistsAcrossWalkers)
{
    auto path = std::filesystem::temp_directory_path() /
                "pico_walker_cache.db";
    std::filesystem::remove(path);
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);

    auto opts = tinyOptions();
    opts.evaluationCachePath = path.string();
    std::map<std::string, double> first_dilations;
    {
        Spacewalker walker(tinySpaces(), {"1111", "3221"}, opts);
        first_dilations = walker.explore(prog).dilations;
    }
    auto entries = entriesByPrefix(path.string());
    EXPECT_EQ(entries["proc;"], 2u);
    EXPECT_EQ(entries["ref;"], 1u);
    {
        ReferenceCounters refs;
        Spacewalker walker(tinySpaces(), {"1111", "3221"}, opts);
        auto result = walker.explore(prog);
        EXPECT_EQ(refs.hits(), 1u);
        EXPECT_EQ(refs.computed(), 0u);
        EXPECT_EQ(walker.evaluationCache().hits() - refs.hits(), 2u);
        EXPECT_EQ(walker.evaluationCache().stats().computed, 0u);
        EXPECT_EQ(result.dilations, first_dilations);
    }
    std::filesystem::remove(path);
}

TEST(SpacewalkerCache, HitWalkEqualsColdWalk)
{
    // Both trace-equivalence classes; the machines below miss the
    // machine-metric cache, so their dilations divide by the frozen
    // set's reference text size.
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);
    const std::vector<std::string> machines = {"2211", "2211p", "3221",
                                               "0111"};
    Spacewalker cold_walker(tinySpaces(), machines, tinyOptions());
    const std::string cold = flatten(cold_walker.explore(prog));

    // Through a shared in-memory cache, warmed by other machines.
    EvaluationCache shared;
    auto opts = tinyOptions();
    opts.sharedCache = &shared;
    Spacewalker(tinySpaces(), {"1111", "1111p"}, opts).explore(prog);
    {
        ReferenceCounters refs;
        Spacewalker walker(tinySpaces(), machines, opts);
        EXPECT_EQ(flatten(walker.explore(prog)), cold);
        EXPECT_EQ(refs.hits(), 2u);
        EXPECT_EQ(refs.computed(), 0u);
        // A walker served from the cache swept nothing, yet its banks
        // answer with the cold walk's tables.
        const MemoryWalker &warm = walker.memoryWalker();
        const MemoryWalker &swept = cold_walker.memoryWalker();
        EXPECT_EQ(warm.icache().bank(), swept.icache().bank());
        EXPECT_EQ(warm.dcache().bank(), swept.dcache().bank());
        EXPECT_EQ(warm.ucache().bank(), swept.ucache().bank());
        EXPECT_THROW(warm.ucache().capturedTrace(), FatalError);
    }

    // Through a database file, reloaded by a fresh walker.
    auto path = std::filesystem::temp_directory_path() /
                "pico_walker_hit_equals_cold.db";
    std::filesystem::remove(path);
    auto file_opts = tinyOptions();
    file_opts.evaluationCachePath = path.string();
    Spacewalker(tinySpaces(), {"1111", "1111p"}, file_opts).explore(prog);
    {
        ReferenceCounters refs;
        Spacewalker walker(tinySpaces(), machines, file_opts);
        EXPECT_EQ(flatten(walker.explore(prog)), cold);
        EXPECT_EQ(refs.hits(), 2u);
        EXPECT_EQ(refs.computed(), 0u);
    }
    std::filesystem::remove(path);
}

TEST(SpacewalkerCache, MalformedEntriesAreRecomputed)
{
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);
    const std::vector<std::string> machines = {"1111", "2111"};
    auto path = std::filesystem::temp_directory_path() /
                "pico_walker_malformed.db";
    std::filesystem::remove(path);
    auto opts = tinyOptions();
    opts.evaluationCachePath = path.string();
    std::string cold;
    {
        Spacewalker walker(tinySpaces(), machines, opts);
        cold = flatten(walker.explore(prog));
    }
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    // Rewrite the values of the first line with a key prefix.
    auto crafted = [&](const char *prefix, auto edit) {
        auto out = lines;
        for (auto &line : out) {
            if (line.rfind(prefix, 0) == 0) {
                auto bar = line.find('|');
                line = line.substr(0, bar + 1) +
                       edit(line.substr(bar + 1));
                break;
            }
        }
        std::ofstream file(path, std::ios::trunc);
        for (const auto &line : out)
            file << line << "\n";
    };
    auto first_value = [](const std::string &v) {
        return v.substr(0, v.find(','));
    };
    auto empty = [](const std::string &) { return std::string(); };
    auto truncated = [](const std::string &v) {
        return v.substr(0, v.rfind(','));
    };
    // Value 4 of a ref; entry is the I$ lav; 0.14 lies outside the
    // AHH domain (lav >= 1) that --verify-cache checks.
    auto lav_below_one = [](const std::string &v) {
        size_t at = 0;
        for (int i = 0; i < 4; ++i)
            at = v.find(',', at) + 1;
        return v.substr(0, at) + "0.14102511522632" +
               v.substr(v.find(',', at));
    };
    struct Case
    {
        const char *what;
        std::function<void()> craft;
    };
    const Case cases[] = {
        {"proc; entry cut to one value",
         [&] { crafted("proc;", first_value); }},
        {"proc; entry with no values", [&] { crafted("proc;", empty); }},
        {"ref; entry cut short", [&] { crafted("ref;", truncated); }},
        {"ref; entry with lav below 1",
         [&] { crafted("ref;", lav_below_one); }},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        c.craft();
        Spacewalker walker(tinySpaces(), machines, opts);
        EXPECT_EQ(flatten(walker.explore(prog)), cold);
        EXPECT_EQ(walker.evaluationCache().stats().quarantinedEntries,
                  1u);
        EXPECT_EQ(walker.evaluationCache().stats().computed, 1u);
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace pico::dse
