/**
 * @file
 * Tentpole benchmark — columnar trace replay versus the legacy
 * row-wise replay it replaced.
 *
 * BM_LegacyLineSweeps carries a verbatim copy of the pre-columnar
 * work unit: an array-of-structs access buffer replayed once per
 * line size through the old vector-of-vectors LRU-stack simulator
 * (the exact algorithm that used to back BM_ParallelLineSweeps).
 * BM_ColumnarLineSweeps runs the same sweep through the production
 * path: delta-encoded columnar blocks decoded once per block and fed
 * to every line-size simulator in the SoA single-pass bank, serially
 * fused (jobs = 1) and fanned out on a pool (jobs = 4).
 *
 * Before timing anything, main() proves the two paths produce
 * bit-identical miss counts for every covered configuration — a
 * faster wrong answer would be worthless.
 *
 * The report (BENCH_columnar_replay.json, honoring --json-out)
 * carries the gate-tracked ratios:
 *   columnar_vs_legacy_speedup   fused columnar vs legacy serial
 *                                (the tentpole's >= 2x claim)
 *   columnar_parallel_speedup_4j fused serial vs 4-job columnar
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "dse/CacheSpace.hpp"
#include "dse/Evaluators.hpp"
#include "support/BitUtils.hpp"
#include "support/Random.hpp"
#include "support/ThreadPool.hpp"
#include "trace/ColumnarTrace.hpp"

using namespace pico;

namespace
{

/**
 * Verbatim copy of the pre-columnar SinglePassSim inner machinery:
 * one truncated LRU stack per set as a std::vector, found by linear
 * scan, updated by erase + insert. Kept here, not in src/, so the
 * benchmark keeps measuring the same baseline even as the production
 * simulator evolves.
 */
class LegacySinglePassSim
{
  public:
    LegacySinglePassSim(uint32_t line_bytes, uint32_t min_sets,
                        uint32_t max_sets, uint32_t max_assoc)
        : lineBytes_(line_bytes), minSets_(min_sets),
          maxAssoc_(max_assoc)
    {
        size_t levels =
            log2Floor(max_sets) - log2Floor(min_sets) + 1;
        stacks_.resize(levels);
        hist_.resize(levels);
        for (size_t lv = 0; lv < levels; ++lv) {
            stacks_[lv].resize(static_cast<size_t>(minSets_) << lv);
            hist_[lv].assign(maxAssoc_, 0);
        }
    }

    void
    access(uint64_t addr)
    {
        ++accesses_;
        uint64_t line = addr / lineBytes_;
        for (size_t lv = 0; lv < stacks_.size(); ++lv) {
            uint64_t sets = static_cast<uint64_t>(minSets_) << lv;
            auto &stack = stacks_[lv][line & (sets - 1)];

            size_t depth = stack.size();
            for (size_t d = 0; d < stack.size(); ++d) {
                if (stack[d] == line) {
                    depth = d;
                    break;
                }
            }
            if (depth < stack.size()) {
                hist_[lv][depth] += 1;
                stack.erase(stack.begin() +
                            static_cast<ptrdiff_t>(depth));
            } else if (stack.size() >= maxAssoc_) {
                stack.pop_back();
            }
            stack.insert(stack.begin(), line);
        }
    }

    void
    replay(const std::vector<trace::Access> &buffer)
    {
        for (const auto &a : buffer)
            access(a.addr);
    }

    uint64_t
    misses(uint32_t sets, uint32_t assoc) const
    {
        const auto &hist =
            hist_[log2Floor(sets) - log2Floor(minSets_)];
        uint64_t hits = 0;
        for (uint32_t d = 0; d < assoc; ++d)
            hits += hist[d];
        return accesses_ - hits;
    }

  private:
    uint32_t lineBytes_;
    uint32_t minSets_;
    uint32_t maxAssoc_;
    uint64_t accesses_ = 0;
    std::vector<std::vector<std::vector<uint64_t>>> stacks_;
    std::vector<std::vector<uint64_t>> hist_;
};

dse::CacheSpace
sweepSpace()
{
    dse::CacheSpace space;
    space.sizesBytes = {2048, 4096, 8192, 16384};
    space.assocs = {1, 2, 4};
    space.lineSizes = {8, 16, 32, 64};
    return space;
}

/** Line sizes the SimBank covers for this space, 4B word upward. */
std::vector<uint32_t>
coveredLines(const dse::CacheSpace &space)
{
    std::vector<uint32_t> lines;
    for (uint32_t line = dse::SimBank::minCoveredLine;
         line <= space.distinctLineSizes().back(); line *= 2)
        lines.push_back(line);
    return lines;
}

const std::vector<trace::Access> &
sharedRowTrace()
{
    static std::vector<trace::Access> rows = [] {
        Rng rng(20260706);
        std::vector<trace::Access> out;
        out.reserve(200000);
        uint64_t pc = 0;
        for (int i = 0; i < 200000; ++i) {
            if (rng.coin(0.1))
                pc = rng.below(1 << 18) & ~3ULL;
            out.push_back(trace::Access{pc, true, false});
            pc += 4;
        }
        return out;
    }();
    return rows;
}

const trace::ColumnarTraceBuffer &
sharedColumnarTrace()
{
    static trace::ColumnarTraceBuffer buffer = [] {
        trace::ColumnarTraceBuffer b;
        for (const auto &a : sharedRowTrace())
            b(a);
        return b;
    }();
    return buffer;
}

void
BM_LegacyLineSweeps(benchmark::State &state)
{
    auto space = sweepSpace();
    const auto lines = coveredLines(space);
    const auto &rows = sharedRowTrace();
    for (auto _ : state) {
        uint64_t total = 0;
        for (uint32_t line : lines) {
            LegacySinglePassSim sim(line, space.minSets(),
                                    space.maxSets(),
                                    space.maxAssoc());
            sim.replay(rows);
            total += sim.misses(space.minSets(), 1);
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * rows.size() * lines.size()));
}

void
BM_ColumnarLineSweeps(benchmark::State &state)
{
    auto space = sweepSpace();
    const auto jobs = static_cast<unsigned>(state.range(0));
    support::ThreadPool pool(jobs - 1);
    const auto &buffer = sharedColumnarTrace();
    for (auto _ : state) {
        dse::SimBank bank(space);
        bank.simulate(buffer, jobs > 1 ? &pool : nullptr);
        benchmark::DoNotOptimize(bank.accesses());
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * buffer.size() *
        dse::SimBank(space).simRuns()));
}

/** Harvests every finished run's adjusted real time. */
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

/**
 * Equivalence proof: the legacy and columnar paths must agree, miss
 * count for miss count, over every (line, sets, assoc) the bank
 * covers. Returns the number of mismatching configurations.
 */
int
verifyBitIdentical()
{
    auto space = sweepSpace();
    dse::SimBank bank(space);
    bank.simulate(sharedColumnarTrace(), nullptr);
    const dse::FrozenBank frozen = bank.freeze();

    int mismatches = 0;
    for (uint32_t line : coveredLines(space)) {
        LegacySinglePassSim legacy(line, space.minSets(),
                                   space.maxSets(),
                                   space.maxAssoc());
        legacy.replay(sharedRowTrace());
        for (uint32_t sets = space.minSets();
             sets <= space.maxSets(); sets *= 2) {
            for (uint32_t assoc = 1; assoc <= space.maxAssoc();
                 ++assoc) {
                cache::CacheConfig cfg{sets, assoc, line};
                auto expect = legacy.misses(sets, assoc);
                auto got = static_cast<uint64_t>(frozen.misses(cfg));
                if (expect != got) {
                    std::fprintf(stderr,
                                 "MISMATCH %s: legacy %llu "
                                 "columnar %llu\n",
                                 cfg.name().c_str(),
                                 static_cast<unsigned long long>(
                                     expect),
                                 static_cast<unsigned long long>(
                                     got));
                    ++mismatches;
                }
            }
        }
    }
    return mismatches;
}

} // namespace

BENCHMARK(BM_LegacyLineSweeps);
BENCHMARK(BM_ColumnarLineSweeps)->Arg(1)->Arg(4)->UseRealTime();

int
main(int argc, char **argv)
{
    std::string json_out = bench::extractJsonOutArg(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    if (int bad = verifyBitIdentical(); bad != 0) {
        std::fprintf(stderr,
                     "%d configurations differ between legacy and "
                     "columnar replay; refusing to time a wrong "
                     "answer\n",
                     bad);
        return 1;
    }

    HarvestingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    bench::BenchReport json("columnar_replay");
    json.setInfo("experiment",
                 "columnar fused replay vs legacy row-wise replay");
    for (const auto &[name, ns] : reporter.realNs)
        json.setMetric(metricKey(name) + ".real_ns", ns);

    auto ns = [&](const char *name) {
        auto it = reporter.realNs.find(name);
        return it == reporter.realNs.end() ? 0.0 : it->second;
    };
    double legacy = ns("BM_LegacyLineSweeps");
    double fused = ns("BM_ColumnarLineSweeps/1/real_time");
    double four = ns("BM_ColumnarLineSweeps/4/real_time");
    if (legacy > 0.0 && fused > 0.0)
        json.setMetric("columnar_vs_legacy_speedup", legacy / fused);
    if (fused > 0.0 && four > 0.0)
        json.setMetric("columnar_parallel_speedup_4j", fused / four);

    benchmark::Shutdown();
    return bench::writeReport(json, json_out) ? 0 : 1;
}
