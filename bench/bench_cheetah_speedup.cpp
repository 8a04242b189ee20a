/**
 * @file
 * Experiment E9 — section 3.3's Cheetah claim, as a google-benchmark
 * microbenchmark: simulating the full range of set counts and
 * associativities in a single pass costs little more than simulating
 * one configuration, and far less than per-configuration passes.
 *
 * Plus the parallel companion: one single-pass sweep is needed *per
 * line size*, and those sweeps are independent, so the SimBank runs
 * them concurrently on a ThreadPool. BM_ParallelLineSweeps measures
 * that sweep — over the production columnar trace path — at 1, 2 and
 * 4 jobs (real time; jobs = 1 is the serial fused reference —
 * speedup is hardware-dependent and only shows on multi-core
 * machines).
 *
 * The run times of every benchmark are harvested into
 * BENCH_cheetah_speedup.json (honoring --json-out) together with the
 * derived ratios the CI bench gate tracks:
 *   allconfigs_cost_vs_single        one-pass-all-configs vs one
 *   singlepass_vs_perconfig_speedup  one pass vs 20 naive passes
 */

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "cache/CacheSim.hpp"
#include "cache/SinglePassSim.hpp"
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

void
BM_SingleConfigSim(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        cache::CacheSim sim(cache::CacheConfig{
            static_cast<uint32_t>(state.range(0)), 2, 32});
        for (auto addr : trace)
            sim.access(addr);
        benchmark::DoNotOptimize(sim.misses());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * trace.size()));
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
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        uint64_t total = 0;
        for (uint32_t sets = 32; sets <= 512; sets *= 2) {
            for (uint32_t assoc = 1; assoc <= 4; ++assoc) {
                cache::CacheSim sim(
                    cache::CacheConfig{sets, assoc, 32});
                for (auto addr : trace)
                    sim.access(addr);
                total += sim.misses();
            }
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * trace.size()));
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

void
BM_ParallelLineSweeps(benchmark::State &state)
{
    // Line sizes 8..64 → five covered sweeps (SimBank also covers
    // the 4-byte minimum for dilation interpolation), fanned out on
    // a pool of jobs workers. Results are identical for every job
    // count; only wall-clock time changes.
    dse::CacheSpace space;
    space.sizesBytes = {2048, 4096, 8192, 16384};
    space.assocs = {1, 2, 4};
    space.lineSizes = {8, 16, 32, 64};

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

int
main(int argc, char **argv)
{
    std::string json_out = bench::extractJsonOutArg(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

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
    if (four > 0.0)
        json.setMetric("parallel_sweep_speedup_4j", serial / four);

    benchmark::Shutdown();
    return bench::writeReport(json, json_out) ? 0 : 1;
}
