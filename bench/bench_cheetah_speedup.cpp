/**
 * @file
 * Experiment E9 — section 3.3's Cheetah claim, as a google-benchmark
 * microbenchmark: simulating the full range of set counts and
 * associativities in a single pass costs little more than simulating
 * one configuration, and far less than per-configuration passes.
 *
 * Plus the production companion: one single-pass sweep is needed
 * *per line size*, and those sweeps are independent, so the SimBank
 * runs them concurrently on a ThreadPool. BM_ParallelLineSweeps
 * measures that sweep — over the production columnar trace path — at
 * 1, 2 and 4 jobs (real time; jobs = 1 is the serial fused reference
 * — speedup is hardware-dependent and only shows on multi-core
 * machines). BM_OraclePerConfig times what the sweep replaces: one
 * CacheSim pass per configuration the same space enumerates.
 *
 * Before timing anything, main() proves the sweep right: fused and
 * on a 4-job pool, every configuration its bank covers must equal an
 * independent CacheSim pass, and so must every cell of an extended
 * bank (LRU/FIFO/random x write-back/write-through) swept over a
 * trace with stores — misses and write traffic — or the bench prints
 * each mismatch and exits 1: a faster wrong answer would be
 * worthless.
 *
 * The run times of every benchmark are harvested into
 * BENCH_cheetah_speedup.json (honoring --json-out) together with the
 * derived ratios the CI bench gate tracks:
 *   allconfigs_cost_vs_single        one-pass-all-configs vs one
 *   singlepass_vs_perconfig_speedup  one pass vs 20 naive passes
 *   sweep_vs_oracle_speedup          fused sweep vs one CacheSim pass
 *                                    per enumerated configuration
 *   parallel_sweep_speedup_4j        fused sweep vs the 4-job sweep
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "cache/CacheSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "dse/CacheSpace.hpp"
#include "dse/Evaluators.hpp"
#include "support/Random.hpp"
#include "support/ThreadPool.hpp"
#include "trace/ColumnarTrace.hpp"

using namespace pico;

namespace
{

std::vector<uint64_t> &
sharedTrace()
{
    static std::vector<uint64_t> trace = [] {
        Rng rng(20260706);
        std::vector<uint64_t> out;
        out.reserve(200000);
        uint64_t pc = 0;
        for (int i = 0; i < 200000; ++i) {
            if (rng.coin(0.1))
                pc = rng.below(1 << 18) & ~3ULL;
            out.push_back(pc);
            pc += 4;
        }
        return out;
    }();
    return trace;
}

/** Misses of one CacheSim pass over the shared trace: the oracle. */
uint64_t
oracleMisses(const cache::CacheConfig &cfg)
{
    cache::CacheSim sim(cfg);
    for (auto addr : sharedTrace())
        sim.access(addr);
    return sim.misses();
}

void
BM_SingleConfigSim(benchmark::State &state)
{
    const cache::CacheConfig cfg{static_cast<uint32_t>(state.range(0)),
                                 2, 32};
    for (auto _ : state)
        benchmark::DoNotOptimize(oracleMisses(cfg));
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * sharedTrace().size()));
}

void
BM_SinglePassAllConfigs(benchmark::State &state)
{
    // 32..512 sets x 1..4 ways = 20 configurations in one pass.
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        cache::SinglePassSim sim(32, 32, 512, 4);
        for (auto addr : trace)
            sim.access(addr);
        benchmark::DoNotOptimize(sim.misses(128, 2));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * trace.size()));
}

void
BM_PerConfigPasses(benchmark::State &state)
{
    // The naive alternative: 20 separate passes.
    for (auto _ : state) {
        uint64_t total = 0;
        for (uint32_t sets = 32; sets <= 512; sets *= 2)
            for (uint32_t assoc = 1; assoc <= 4; ++assoc)
                total += oracleMisses(cache::CacheConfig{sets, assoc, 32});
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * sharedTrace().size()));
}

const trace::ColumnarTraceBuffer &
sharedBuffer()
{
    static trace::ColumnarTraceBuffer buffer = [] {
        trace::ColumnarTraceBuffer b;
        for (auto addr : sharedTrace())
            b(trace::Access{addr, true, false});
        return b;
    }();
    return buffer;
}

/**
 * The production sweep's space: 48 configurations over line sizes
 * 8..64. Its bank covers five line sizes (SimBank also covers the
 * 4-byte minimum for dilation interpolation) over the whole set-count
 * range, 180 configurations.
 */
dse::CacheSpace
sweepSpace()
{
    dse::CacheSpace space;
    space.sizesBytes = {2048, 4096, 8192, 16384};
    space.assocs = {1, 2, 4};
    space.lineSizes = {8, 16, 32, 64};
    return space;
}

void
BM_ParallelLineSweeps(benchmark::State &state)
{
    // Five covered sweeps fanned out on a pool of jobs workers.
    // Results are identical for every job count (main() proves it);
    // only wall-clock time changes.
    const dse::CacheSpace space = sweepSpace();
    const auto jobs = static_cast<unsigned>(state.range(0));
    support::ThreadPool pool(jobs - 1);
    const auto &buffer = sharedBuffer();
    for (auto _ : state) {
        dse::SimBank bank(space);
        bank.simulate(buffer, &pool);
        benchmark::DoNotOptimize(bank.accesses());
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * buffer.size() *
        dse::SimBank(space).simRuns()));
}

void
BM_OraclePerConfig(benchmark::State &state)
{
    // What the sweep replaces: one pass per enumerated configuration.
    const auto configs = sweepSpace().enumerate();
    for (auto _ : state) {
        uint64_t total = 0;
        for (const auto &cfg : configs)
            total += oracleMisses(cfg);
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * sharedTrace().size() * configs.size()));
}

/** A bank of the space swept over the buffer fused and at 4 jobs. */
std::vector<std::pair<unsigned, dse::FrozenBank>>
sweptAtJobsOneAndFour(const dse::CacheSpace &space,
                      const trace::ColumnarTraceBuffer &buffer)
{
    support::ThreadPool four(3);
    std::vector<std::pair<unsigned, dse::FrozenBank>> swept;
    for (unsigned jobs : {1u, 4u}) {
        dse::SimBank bank(space);
        bank.simulate(buffer, jobs > 1 ? &four : nullptr);
        swept.emplace_back(jobs, bank.freeze());
    }
    return swept;
}

/**
 * Oracle proof: the sweep, fused (no pool) and on a 4-job pool, must
 * give every (line, sets, assoc) its bank covers the misses of one
 * CacheSim pass. Prints each mismatch; returns their number.
 */
int
sweepMismatches()
{
    const dse::CacheSpace space = sweepSpace();
    const auto swept = sweptAtJobsOneAndFour(space, sharedBuffer());

    int configs = 0, mismatches = 0;
    for (uint32_t line = dse::SimBank::minCoveredLine;
         line <= space.distinctLineSizes().back(); line *= 2) {
        for (uint32_t sets = space.minSets(); sets <= space.maxSets();
             sets *= 2) {
            for (uint32_t assoc = 1; assoc <= space.maxAssoc();
                 ++assoc) {
                const cache::CacheConfig cfg{sets, assoc, line};
                const uint64_t expect = oracleMisses(cfg);
                ++configs;
                for (const auto &[jobs, bank] : swept) {
                    const auto got =
                        static_cast<uint64_t>(bank.misses(cfg));
                    if (got == expect)
                        continue;
                    std::cerr << "MISMATCH " << cfg.name() << " jobs "
                              << jobs << ": sweep " << got
                              << " CacheSim " << expect << "\n";
                    ++mismatches;
                }
            }
        }
    }
    std::cout << "oracle proof: " << configs
              << " configurations at jobs 1 and 4, " << mismatches
              << " mismatches\n";
    return mismatches;
}

/**
 * The extended proof's trace: the shared trace's first 60,000
 * addresses as data references, 30% of them stores.
 */
const std::vector<trace::Access> &
storeTrace()
{
    static const std::vector<trace::Access> refs = [] {
        Rng rng(20261020);
        std::vector<trace::Access> out;
        for (size_t i = 0; i < 60000; ++i)
            out.push_back({sharedTrace()[i], false, rng.coin(0.3)});
        return out;
    }();
    return refs;
}

/**
 * Extended oracle proof: the sweep space with every replacement and
 * write policy, swept over storeTrace() fused and on a 4-job pool.
 * Each enumerated cell's misses and write traffic must equal one
 * CacheSim pass: LRU write-backs come from the Cheetah stacks, FIFO
 * and random from the set-resident simulators. Prints each mismatch;
 * returns their number.
 */
int
extendedSweepMismatches()
{
    dse::CacheSpace space = sweepSpace();
    space.replacements = {cache::ReplacementPolicy::LRU,
                          cache::ReplacementPolicy::FIFO,
                          cache::ReplacementPolicy::Random};
    space.writePolicies = {cache::WritePolicy::WriteBack,
                           cache::WritePolicy::WriteThrough};
    trace::ColumnarTraceBuffer buffer;
    for (const auto &a : storeTrace())
        buffer(a);
    const auto swept = sweptAtJobsOneAndFour(space, buffer);

    int cells = 0, mismatches = 0;
    for (const auto &cfg : space.enumerate()) {
        cache::CacheSim sim(cfg);
        for (const auto &a : storeTrace())
            sim(a);
        ++cells;
        for (const auto &[jobs, bank] : swept) {
            const auto misses = static_cast<uint64_t>(bank.misses(cfg));
            const auto traffic =
                static_cast<uint64_t>(bank.writeTraffic(cfg));
            if (misses == sim.misses() && traffic == sim.writeTraffic())
                continue;
            std::cerr << "MISMATCH " << cfg.name() << " jobs " << jobs
                      << ": sweep " << misses << " misses, " << traffic
                      << " writes; CacheSim " << sim.misses()
                      << " misses, " << sim.writeTraffic()
                      << " writes\n";
            ++mismatches;
        }
    }
    std::cout << "extended oracle proof: " << cells
              << " cells (lru/fifo/rand x wb/wt) at jobs 1 and 4, "
              << mismatches << " mismatches\n";
    return mismatches;
}

/**
 * Console reporter that additionally harvests every finished run's
 * adjusted real time, so the bench report carries the same numbers
 * the console shows.
 */
class HarvestingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const auto &run : runs) {
            if (!run.error_occurred)
                realNs[run.benchmark_name()] =
                    run.GetAdjustedRealTime();
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::map<std::string, double> realNs;
};

/** Metric-key-safe name: '/' (arg separator) becomes '.'. */
std::string
metricKey(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        if (c == '/' || c == ':')
            c = '.';
    }
    return out;
}

} // namespace

BENCHMARK(BM_SingleConfigSim)->Arg(128);
BENCHMARK(BM_SinglePassAllConfigs);
BENCHMARK(BM_PerConfigPasses);
BENCHMARK(BM_ParallelLineSweeps)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();
BENCHMARK(BM_OraclePerConfig);

int
main(int argc, char **argv)
{
    std::string json_out = bench::extractJsonOutArg(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    if (sweepMismatches() + extendedSweepMismatches() != 0) {
        std::cerr << "the sweep differs from CacheSim; refusing to "
                     "time a wrong answer\n";
        return 1;
    }

    HarvestingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    bench::BenchReport json("cheetah_speedup");
    json.setInfo("experiment",
                 "single-pass vs per-config simulation cost");
    for (const auto &[name, ns] : reporter.realNs)
        json.setMetric(metricKey(name) + ".real_ns", ns);

    // The two ratios of the paper's claim; both are >> 1 when the
    // single-pass lever works, and stable enough to gate on.
    auto ns = [&](const char *name) {
        auto it = reporter.realNs.find(name);
        return it == reporter.realNs.end() ? 0.0 : it->second;
    };
    double single = ns("BM_SingleConfigSim/128");
    double all = ns("BM_SinglePassAllConfigs");
    double per_config = ns("BM_PerConfigPasses");
    if (all > 0.0 && single > 0.0) {
        // Cost of the full-range pass relative to one config
        // (lower-better, the paper expects a small multiple) and the
        // speedup over 20 naive per-config passes (higher-better).
        json.setMetric("allconfigs_cost_vs_single", all / single);
        json.setMetric("singlepass_vs_perconfig_speedup",
                       per_config / all);
    }
    double serial = ns("BM_ParallelLineSweeps/1/real_time");
    double four = ns("BM_ParallelLineSweeps/4/real_time");
    double oracle = ns("BM_OraclePerConfig");
    if (four > 0.0)
        json.setMetric("parallel_sweep_speedup_4j", serial / four);
    if (serial > 0.0 && oracle > 0.0)
        json.setMetric("sweep_vs_oracle_speedup", oracle / serial);

    benchmark::Shutdown();
    return bench::writeReport(json, json_out) ? 0 : 1;
}
