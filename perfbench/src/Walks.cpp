/**
 * @file
 * The walk workloads (walk-lru, walk-policy) and the traced-run
 * measurement every workload shares.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include <sched.h>
#include <unistd.h>

#include "Bench.hpp"
#include "Digest.hpp"
#include "Ledger.hpp"
#include "core/TraceModel.hpp"
#include "support/Random.hpp"
#include "support/TraceEvents.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace perfbench
{

using namespace pico;

namespace
{

/** One explore() and the walker that ran it (kept for the ledger). */
struct WalkRun
{
    std::unique_ptr<dse::Spacewalker> walker;
    dse::ExplorationResult result;
    double seconds = 0.0;
};

/**
 * Moves the calling thread to the next CPU of the process's mask on
 * every call, restoring the mask on destruction. A serial walk runs on
 * one CPU from start to end, and on a shared host one CPU can stay
 * slowed by a neighbour for many seconds; rotating the serial walks
 * over every CPU lets a run sample them all instead of whichever one
 * the scheduler kept it on.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        ::sched_getaffinity(0, sizeof(saved_), &saved_);
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &saved_))
                cpus_.push_back(cpu);
        }
    }

    ~CpuRotation() { ::sched_setaffinity(0, sizeof(saved_), &saved_); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the next CPU; only for walks that spawn no threads
     *  (pool threads would inherit the single-CPU mask). */
    void
    next(const WalkSettings &ws)
    {
        if (cpus_.empty() ||
            support::ThreadPool::resolveJobs(ws.options.jobs) != 1)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        ::sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t saved_{};
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/** Small trace budgets need small AHH granules; the same scaling
 *  EvalService applies to every served walk. */
void
scaleGranules(dse::Spacewalker::Options &o)
{
    o.uGranule = std::max<uint64_t>(o.traceBlocks * 5, 1000);
    o.iGranule = std::min<uint64_t>(
        core::defaultIGranule,
        std::max<uint64_t>(o.traceBlocks * 5 / 2, 500));
}

/** A cold walk: fresh walker, fresh evaluation-cache file. */
WalkRun
walkOnce(const ir::Program &prog, const WalkSettings &ws,
         const std::string &cache_path)
{
    WalkRun run;
    auto options = ws.options;
    options.evaluationCachePath = cache_path;
    const double start = nowSeconds();
    run.walker = std::make_unique<dse::Spacewalker>(
        ws.spaces, ws.machines, options);
    run.result = run.walker->explore(prog);
    run.seconds = nowSeconds() - start;
    return run;
}

/** Count one walk in the report; true when it is complete and its
 *  digest matches the golden one. */
bool
checkWalk(const WalkRun &run, GoldenStore &golden, const std::string &key,
          RunReport &rep)
{
    ++rep.attempted;
    bool ok = run.result.complete() && !run.result.deadlineExceeded;
    ok = golden.check(key, walkDigest(run.result)) && ok;
    if (!ok)
        ++rep.failed;
    return ok;
}

/** The served answer a walk corresponds to (as EvalService builds it). */
Frame
walkFrame(const std::string &app, const WalkSettings &ws,
          const dse::ExplorationResult &result)
{
    Frame f;
    f.first.app = app;
    f.first.machines.clear();
    for (const auto &m : ws.machines)
        f.first.machines += (f.first.machines.empty() ? "" : ",") + m;
    f.first.traceBlocks = ws.options.traceBlocks;
    f.first.key = "walk/" + app;
    auto &v = f.second.values;
    v["designs.evaluated"] = static_cast<double>(result.evaluatedDesigns);
    v["designs.failed"] = 0.0;
    v["designs.deadline"] = 0.0;
    v["pareto.systems"] =
        static_cast<double>(result.systems.points().size());
    for (const auto &[name, d] : result.dilations) {
        v["machine." + name + ".dilation"] = d;
        v["machine." + name + ".cycles"] =
            static_cast<double>(result.processorCycles.at(name));
    }
    return f;
}

/** Ratio with a zero guard (metrics must stay finite). */
double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Add the derived per-layer metrics to one repetition's ledger. */
void
derive(Ledger &l)
{
    const double wall = l["bench.explore_wall_ms"];
    const double sweep_ms = l["cache.sweep_i_ms"] + l["cache.sweep_d_ms"] +
                            l["cache.sweep_u_ms"];
    l["trace.emulate_mrefs_per_s"] =
        ratio(l["trace.refs"], l["trace.emulate_ms"] * 1e3);
    l["trace.encoded_bytes_per_ref"] =
        ratio(l["trace.encoded_bytes"], l["cache.sweep_refs"]);
    l["cache.sweep_mrefs_per_s"] =
        ratio(l["cache.sweep_refs"], sweep_ms * 1e3);
    l["cache.sweep_parallel_speedup"] =
        ratio(l["cache.sweep_jobs1_ms"], l["cache.sweep_jobsN_ms"]);
    l["dse.pareto_kept_frac"] =
        ratio(l["dse.pareto_kept"], l["dse.pareto_offered"]);
    l["dse.evalcache_hit_frac"] =
        ratio(l["dse.evalcache_hits"], l["dse.evalcache_lookups"]);
    l["dse.unattributed_frac"] =
        ratio(wall - l["ledger.total_ms"], wall);
    l["verify.share"] = ratio(l["verify.ms"], wall);
    l["bench.trace_overhead_frac"] =
        ratio(l["bench.traced_wall_ms"] - wall, wall);
}

/** Unit of each per-layer metric the ledger produces. */
const std::map<std::string, std::string> &
ledgerUnits()
{
    static const std::map<std::string, std::string> units = {
        {"compiler.schedule_ms", "ms"},
        {"isa.assemble_ms", "ms"},
        {"linker.link_ms", "ms"},
        {"compiler.builds", "count"},
        {"trace.emulate_ms", "ms"},
        {"trace.refs", "count"},
        {"trace.emulate_mrefs_per_s", "Mrefs/s"},
        {"trace.capture_ms", "ms"},
        {"trace.encoded_bytes_per_ref", "B/ref"},
        {"trace.decode_ms", "ms"},
        {"cache.sweep_i_ms", "ms"},
        {"cache.sweep_d_ms", "ms"},
        {"cache.sweep_u_ms", "ms"},
        {"cache.sim_runs", "count"},
        {"cache.sweep_mrefs_per_s", "Mrefs/s"},
        {"cache.sweep_parallel_speedup", "x"},
        {"core.ahh_ms", "ms"},
        {"core.granules", "count"},
        {"core.dilation_ms", "ms"},
        {"core.estimates", "count"},
        {"dse.pareto_ms", "ms"},
        {"dse.pareto_offered", "count"},
        {"dse.pareto_kept", "count"},
        {"dse.pareto_kept_frac", "fraction"},
        {"dse.evalcache_get_ms", "ms"},
        {"dse.evalcache_hit_frac", "fraction"},
        {"dse.evalcache_flush_ms", "ms"},
        {"dse.evalcache_bytes", "B"},
        {"dse.unattributed_frac", "fraction"},
        {"verify.ms", "ms"},
        {"verify.share", "fraction"},
        {"bench.explore_wall_ms", "ms"},
        {"bench.trace_overhead_frac", "fraction"},
    };
    return units;
}

void
writeLedgerJson(const std::string &path, const std::string &workload,
                const std::vector<Ledger> &reps, const Ledger &medians)
{
    std::ofstream out(path, std::ios::trunc);
    auto write = [&out](const Ledger &l) {
        out << "{";
        bool first = true;
        for (const auto &[k, v] : l) {
            char num[32];
            std::snprintf(num, sizeof(num), "%.17g", v);
            out << (first ? "" : ",") << "\"" << k << "\":" << num;
            first = false;
        }
        out << "}";
    };
    out << "{\"schema\":\"perfbench-ledger-v1\",\"workload\":\""
        << workload << "\",\"top_level_layers\":[";
    const auto &layers = topLevelLayers();
    for (size_t i = 0; i < layers.size(); ++i)
        out << (i ? "," : "") << "\"" << layers[i] << "\"";
    out << "],\"repetitions\":[";
    for (size_t i = 0; i < reps.size(); ++i) {
        if (i)
            out << ",";
        write(reps[i]);
    }
    out << "],\"median\":";
    write(medians);
    out << "}\n";
}

} // namespace

WalkSettings
walkSettings(const std::string &workload, bool smoke)
{
    WalkSettings ws;
    // The processor space of the design_space_walk example.
    ws.machines = {"1111", "2111", "2211", "3221",
                   "4221", "4332", "6332"};
    auto &o = ws.options;
    o.verify = 0;
    if (workload == "walk-lru") {
        ws.apps = {"rasta", "085.gcc"};
        o.traceBlocks = 40000;
        o.jobs = 4;
    } else if (workload == "walk-policy") {
        ws.apps = {"matmul-tile16", "zipf-lut"};
        ws.machines = {"1111", "6332"};
        o.traceBlocks = 10000;
        o.jobs = 1;
        o.stalls.writeCost = 1.0;
        for (auto *space : {&ws.spaces.dcache, &ws.spaces.ucache}) {
            space->replacements = {cache::ReplacementPolicy::LRU,
                                   cache::ReplacementPolicy::FIFO,
                                   cache::ReplacementPolicy::Random};
            space->writePolicies = {cache::WritePolicy::WriteBack,
                                    cache::WritePolicy::WriteThrough};
        }
    } else if (workload == "serve-zipf") {
        ws.apps = {"rasta", "epic", "085.gcc", "mipmap"};
        o.traceBlocks = 2000;
        o.jobs = 1;
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    if (smoke) {
        o.traceBlocks = 300;
        ws.machines = {"1111", "2111"};
    }
    if (workload == "serve-zipf" || smoke)
        scaleGranules(o);
    return ws;
}

std::string
walkGoldenKey(const std::string &workload, bool smoke,
              const std::string &app)
{
    return workload + (smoke ? "-smoke" : "") + "/" + app;
}

double
buildPrograms(const std::vector<std::string> &apps, int reps,
              Programs &out)
{
    std::vector<double> rounds;
    for (int r = 0; r < std::max(reps, 1); ++r) {
        const double start = nowSeconds();
        Programs progs;
        for (const auto &app : apps)
            progs.emplace(app, workloads::buildAndProfile(
                                   workloads::specByName(app)));
        rounds.push_back(nowSeconds() - start);
        out = std::move(progs);
    }
    return median(rounds);
}

double
warmUp(const WalkSettings &ws, const Programs &progs,
       const std::string &dir)
{
    // The first walks in a process pay for growing the heap (large
    // simulator tables start out as fresh mappings); users of a
    // long-lived process do not. One short walk per app on the same
    // cache spaces absorbs that before anything is timed.
    WalkSettings small = ws;
    small.machines = {ws.machines.front()};
    small.options.traceBlocks =
        std::max<uint64_t>(ws.options.traceBlocks / 8, 300);
    scaleGranules(small.options);
    const double start = nowSeconds();
    for (const auto &app : ws.apps) {
        const std::string cache = dir + "/warmup.db";
        WalkRun run = walkOnce(progs.at(app), small, cache);
        if (!run.result.complete())
            throw std::runtime_error("warm-up walk failed for " + app);
        run.walker.reset();
        std::remove(cache.c_str());
    }
    return nowSeconds() - start;
}

std::vector<Frame>
measureLayers(const RunOptions &opts, const WalkSettings &ws,
              const Programs &progs, GoldenStore &golden,
              double budget_s, RunReport &rep)
{
    const std::string tmp =
        opts.outDir + "/layers-" + std::to_string(::getpid());
    makeDirs(tmp);
    rep.note("warmup_s", warmUp(ws, progs, tmp), "s");
    auto &recorder = support::TraceRecorder::instance();
    std::vector<Ledger> reps;
    std::vector<Frame> frames;
    uint64_t serial = 0;
    auto cachePath = [&tmp, &serial] {
        return tmp + "/walk-" + std::to_string(serial++) + ".db";
    };
    CpuRotation rotation;
    const double start = nowSeconds();
    do {
        // One CPU per repetition, so the walks and the ledger that is
        // held against them see the same neighbours.
        rotation.next(ws);
        Ledger total;
        std::vector<WalkRun> runs;
        // Only the last repetition's spans are kept for the trace.
        recorder.clear();
        for (const auto &app : ws.apps) {
            runs.push_back(walkOnce(progs.at(app), ws, cachePath()));
            checkWalk(runs.back(), golden,
                      walkGoldenKey(opts.workload, opts.smoke, app), rep);
            total["bench.explore_wall_ms"] += runs.back().seconds * 1e3;
            // The ledger follows its walk at once, so a slow spell of
            // the host falls on both sides of the comparison or on
            // neither.
            support::setTraceEnabled(true);
            Ledger l = ledgerWalk(progs.at(app), ws,
                                  runs.back().walker->memoryWalker(),
                                  runs.back().result, cachePath());
            support::setTraceEnabled(false);
            for (const auto &[k, v] : l)
                total[k] += v;
        }
        support::setTraceEnabled(true);
        for (const auto &app : ws.apps) {
            WalkRun traced = walkOnce(progs.at(app), ws, cachePath());
            checkWalk(traced, golden,
                      walkGoldenKey(opts.workload, opts.smoke, app), rep);
            total["bench.traced_wall_ms"] += traced.seconds * 1e3;
        }
        support::setTraceEnabled(false);
        if (frames.empty()) {
            for (size_t i = 0; i < ws.apps.size(); ++i)
                frames.push_back(
                    walkFrame(ws.apps[i], ws, runs[i].result));
        }
        derive(total);
        reps.push_back(std::move(total));
    } while (nowSeconds() - start < budget_s);
    removeTree(tmp);

    Ledger medians;
    for (const auto &[key, value] : reps.front()) {
        std::vector<double> values;
        for (const auto &l : reps)
            values.push_back(l.at(key));
        medians[key] = median(values);
    }
    for (const auto &[name, unit] : ledgerUnits())
        rep.set(name, medians[name], unit);
    rep.note("ledger.repetitions", static_cast<double>(reps.size()),
             "count");
    rep.note("verify.errors", medians["verify.errors"], "count");

    const std::string base = opts.outDir + "/" + opts.workload;
    writeLedgerJson(base + "-ledger.json", opts.workload, reps, medians);
    if (recorder.writeJson(base + "-trace.json"))
        std::cout << "chrome trace: " << base << "-trace.json\n";
    std::cout << "ledger: " << base << "-ledger.json ("
              << reps.size() << " repetition(s))\n";
    return frames;
}

RunReport
runWalkWorkload(const RunOptions &opts)
{
    const WalkSettings ws = walkSettings(opts.workload, opts.smoke);
    GoldenStore golden(opts.goldenPath, opts.writeGolden);
    RunReport rep;
    Programs progs;
    const double setup_s =
        buildPrograms(ws.apps, opts.smoke ? 1 : 60, progs);

    if (opts.trace != 0) {
        rep.set("workloads.build_profile_s", setup_s, "s");
        auto frames =
            measureLayers(opts, ws, progs, golden, opts.seconds, rep);
        measureFraming(frames, rep);
        // No request is served in a walk workload.
        rep.set("server.ping_rtt_us", 0.0, "us");
        rep.set("server.queue_wait_ms", 0.0, "ms");
        rep.set("server.execute_ms", 0.0, "ms");
        rep.set("server.memo_hit_frac", 0.0, "fraction");
        rep.set("server.queue_peak", 0.0, "count");
        rep.set("server.shed", 0.0, "count");
    } else {
        const std::string tmp =
            opts.outDir + "/walks-" + std::to_string(::getpid());
        makeDirs(tmp);
        rep.note("warmup_s", warmUp(ws, progs, tmp), "s");
        // The seed orders the apps within each pass; the walks
        // themselves are fixed inputs with golden digests.
        Rng order_rng(opts.seed);
        std::vector<double> passes;
        uint64_t serial = 0;
        CpuRotation rotation;
        const double start = nowSeconds();
        do {
            std::vector<std::string> order = ws.apps;
            for (size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[order_rng.below(i)]);
            double pass_s = 0.0;
            for (const auto &app : order) {
                const std::string cache =
                    tmp + "/walk-" + std::to_string(serial++) + ".db";
                rotation.next(ws);
                WalkRun run = walkOnce(progs.at(app), ws, cache);
                pass_s += run.seconds;
                checkWalk(run, golden,
                          walkGoldenKey(opts.workload, opts.smoke, app),
                          rep);
                run.walker.reset();
                std::remove(cache.c_str());
            }
            passes.push_back(pass_s);
        } while (nowSeconds() - start < opts.seconds);
        removeTree(tmp);

        double walked_s = 0.0;
        for (double p : passes)
            walked_s += p;
        rep.set("setup_s", setup_s, "s");
        rep.set("walk_p50_ms", median(passes) * 1e3, "ms");
        rep.set("answers_per_s",
                static_cast<double>(rep.attempted) / walked_s, "1/s");
        rep.set("peak_rss_mb", selfPeakRssMb(), "MB");
        rep.note("passes", static_cast<double>(passes.size()), "count");
        rep.note("walk_p50_s", median(passes), "s");
        rep.note("failed_frac",
                 static_cast<double>(rep.failed) /
                     static_cast<double>(rep.attempted),
                 "fraction");
    }
    if (opts.writeGolden && !golden.save())
        throw std::runtime_error("cannot write " + opts.goldenPath);
    return rep;
}

int
checkJobsInvariance(const RunOptions &opts)
{
    WalkSettings ws = walkSettings("walk-lru", opts.smoke);
    GoldenStore golden(opts.goldenPath, false);
    Programs progs;
    buildPrograms(ws.apps, 1, progs);
    const std::string tmp =
        opts.outDir + "/jobs-" + std::to_string(::getpid());
    makeDirs(tmp);
    // So that the jobs-1 walk, which runs first, is timed warm too.
    warmUp(ws, progs, tmp);
    int bad = 0;
    for (const auto &app : ws.apps) {
        std::string digests[2];
        double seconds[2] = {0.0, 0.0};
        const unsigned jobs[2] = {1, 4};
        for (int j = 0; j < 2; ++j) {
            ws.options.jobs = jobs[j];
            WalkRun run = walkOnce(
                progs.at(app), ws,
                tmp + "/" + std::to_string(jobs[j]) + ".db");
            digests[j] = walkDigest(run.result);
            seconds[j] = run.seconds;
        }
        bool same = digests[0] == digests[1];
        bool golden_ok = golden.check(
            walkGoldenKey("walk-lru", opts.smoke, app), digests[0]);
        std::cout << "jobs invariance " << app << ": jobs1 " << digests[0]
                  << " (" << seconds[0] << " s) jobs4 " << digests[1]
                  << " (" << seconds[1] << " s)"
                  << (same && golden_ok ? " OK" : " MISMATCH") << "\n";
        bad += same && golden_ok ? 0 : 1;
    }
    removeTree(tmp);
    return bad == 0 ? 0 : 1;
}

} // namespace perfbench
