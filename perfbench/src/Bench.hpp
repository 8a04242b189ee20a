/**
 * @file
 * Shared declarations of the PicoEval end-to-end benchmark driver:
 * workload settings, the run report every workload fills, and small
 * timing/statistics helpers.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dse/Spacewalker.hpp"
#include "server/Protocol.hpp"

namespace perfbench
{

/** Command-line settings of one benchmark run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Measurement budget (whole passes/requests run until it ends). */
    double seconds = 10.0;
    /** 0 = end-to-end metrics, 1 = per-layer metrics. */
    int trace = 0;
    /** Tiny budgets for the benchmark's own tests. */
    bool smoke = false;
    /** Record digests into the golden file instead of checking. */
    bool writeGolden = false;
    /** Directory for temp files, the ledger and the Chrome trace. */
    std::string outDir = ".bench_out";
    std::string goldenPath = "perfbench/golden.txt";
    std::string serverPath;
};

/** The walk settings of a workload (both walk-* and serve-zipf). */
struct WalkSettings
{
    std::vector<std::string> apps;
    std::vector<std::string> machines;
    pico::dse::MemorySpaces spaces;
    pico::dse::Spacewalker::Options options;
};

/** One metric as printed: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct RunReport
{
    /** Operations attempted (walks plus served requests). */
    uint64_t attempted = 0;
    /** Operations failed (bad status, transport error, digest). */
    uint64_t failed = 0;
    /** Metrics of the final JSON line (end-to-end or per-layer). */
    std::map<std::string, Metric> metrics;
    /** Informational metrics printed in the human-readable part. */
    std::map<std::string, Metric> info;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    void
    note(const std::string &name, double value, const std::string &unit)
    {
        info[name] = Metric{value, unit};
    }
};

class GoldenStore;

/** Profiled programs of a workload's apps, by app name. */
using Programs = std::map<std::string, pico::ir::Program>;

/** One request frame and the answer frame that goes with it. */
using Frame = std::pair<pico::server::Request, pico::server::Response>;

/** Settings of the walk-lru / walk-policy / serve-zipf workloads. */
WalkSettings walkSettings(const std::string &workload, bool smoke);

/** Golden-digest key of one walk (workload, budget, app). */
std::string walkGoldenKey(const std::string &workload, bool smoke,
                          const std::string &app);

/**
 * Build and profile every app, `reps` times over.
 * @return median seconds of one round; `out` holds the last round
 */
double buildPrograms(const std::vector<std::string> &apps, int reps,
                     Programs &out);

/**
 * Untimed warm-up: one short walk per app on the workload's spaces.
 * @return its seconds
 */
double warmUp(const WalkSettings &ws, const Programs &progs,
              const std::string &dir);

/**
 * Per-layer measurement shared by every workload's traced run: an
 * untraced explore(), a traced explore() (existing spans on) and the
 * ledger of every app, repeated until `budget_s` is spent (at least
 * once). Fills the per-layer metrics (medians over repetitions) into
 * `rep` and writes the ledger JSON and the Chrome trace to outDir.
 * @return the request/answer frames of the walks (one per app)
 */
std::vector<Frame> measureLayers(const RunOptions &opts,
                                 const WalkSettings &ws,
                                 const Programs &progs,
                                 GoldenStore &golden, double budget_s,
                                 RunReport &rep);

/** Time protocol encode/decode of the frames (server.framing_us). */
void measureFraming(const std::vector<Frame> &frames, RunReport &rep);

RunReport runWalkWorkload(const RunOptions &opts);
RunReport runServeWorkload(const RunOptions &opts);

/** Walk digest at jobs 1 vs jobs 4 (the benchmark's self-test). */
int checkJobsInvariance(const RunOptions &opts);

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Quantile q in [0,1] of a sample (linear interpolation). */
double quantile(std::vector<double> values, double q);

/** Median of a sample (0 for an empty one). */
inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Peak resident memory of this process, MB. */
double selfPeakRssMb();

/** Size of a file in bytes (0 when missing). */
uint64_t fileBytes(const std::string &path);

/** Create a directory and its parents; throws on failure. */
void makeDirs(const std::string &path);

/** Remove a directory tree (best effort). */
void removeTree(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
