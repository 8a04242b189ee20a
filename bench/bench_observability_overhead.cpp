/**
 * @file
 * Observability overhead microbench: the instrumentation layer's
 * contract is "zero cost when disabled, negligible when enabled".
 * This bench measures both sides on the hottest instrumented path —
 * the SimBank sweep over a captured columnar trace — by replaying it
 * with the registry off and on, and reports the enabled/
 * disabled wall-time ratio (expected well under the 2% budget;
 * instrumentation is per-sweep, not per-access).
 *
 * A second scenario measures the serving layer with request-scoped
 * tracing: end-to-end EvalService request latency with tracing off
 * vs on (request spans, flow events, context propagation and the
 * always-on flight recorder all engaged), over an identical request
 * sequence per mode. Same 2% budget.
 *
 * Emits BENCH_observability_overhead.json with the raw timings so CI
 * archives the ratio next to the run reports.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "dse/Evaluators.hpp"
#include "server/EvalService.hpp"
#include "server/Protocol.hpp"
#include "support/LockRank.hpp"
#include "support/Metrics.hpp"
#include "support/ThreadAnnotations.hpp"
#include "support/TraceEvents.hpp"

using namespace pico;

namespace
{

/** Wall time of one full sweep set over the buffer, in ns. */
uint64_t
timedSimulate(dse::SimBank &bank, const trace::ColumnarTraceBuffer &buffer)
{
    uint64_t start = support::monotonicNowNs();
    bank.simulate(buffer, nullptr);
    return support::monotonicNowNs() - start;
}

/** Best-of-N sweep time (min filters scheduler noise). */
uint64_t
bestOf(dse::SimBank &bank, const trace::ColumnarTraceBuffer &buffer, int reps)
{
    uint64_t best = UINT64_MAX;
    for (int i = 0; i < reps; ++i)
        best = std::min(best, timedSimulate(bank, buffer));
    return best;
}

/**
 * Best-of-reps per-request latency of an EvalService under the
 * current observability switches. Every request is unique work (the
 * trace budget varies per call, so neither the service memo nor the
 * eval cache short-circuits it) and the (rep, i) -> budget mapping is
 * identical across modes, so off and on time the same walks.
 */
uint64_t
serveBestOf(const std::string &app, int reps, int requests)
{
    server::ServiceOptions opts;
    opts.workers = 2;
    server::EvalService service(opts);

    auto makeRequest = [&app](uint64_t trace_blocks) {
        server::Request req;
        req.app = app;
        req.machines = "1111";
        req.traceBlocks = trace_blocks;
        return req;
    };
    // Warm-up: the first request pays the app build+profile.
    service.call(makeRequest(1000));

    uint64_t best = UINT64_MAX;
    for (int rep = 0; rep < reps; ++rep) {
        uint64_t start = support::monotonicNowNs();
        for (int i = 0; i < requests; ++i) {
            server::Response resp = service.call(makeRequest(
                1200 + static_cast<uint64_t>(rep) * 100 + i));
            if (resp.status != server::Status::Ok) {
                std::cout << "server scenario request failed: "
                          << resp.error << "\n";
                std::exit(1);
            }
        }
        uint64_t total = support::monotonicNowNs() - start;
        best = std::min(best, total / requests);
    }
    return best;
}

/**
 * Best-of-reps time of a hot uncontended MutexLock loop on a ranked
 * mutex under the current lock-rank-checker toggle. In Release the
 * checker is compiled out (PICOEVAL_LOCK_RANK_CHECK == 0) and the
 * toggle is inert, so disabled and enabled time the identical code —
 * the measured 0% *is* the Release overhead claim. In Debug the pair
 * quantifies what the thread-local stack bookkeeping costs.
 */
uint64_t
rankCheckBestOf(int reps)
{
    support::Mutex mtx{"bench.rankcheck",
                       support::rank::kMetricsRegistry};
    constexpr int iters = 200000;
    uint64_t best = UINT64_MAX;
    volatile uint64_t sink = 0;
    for (int rep = 0; rep < reps; ++rep) {
        uint64_t start = support::monotonicNowNs();
        for (int i = 0; i < iters; ++i) {
            support::MutexLock lock(mtx);
            sink = sink + 1;
        }
        best = std::min(best,
                        (support::monotonicNowNs() - start) / iters);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_out = bench::extractJsonOutArg(argc, argv);
    const std::string app_name = argc > 1 ? argv[1] : "rasta";
    constexpr int reps = 5;

    std::cout << "observability overhead: SimBank sweeps over '"
              << app_name << "', best of " << reps
              << " (metrics+trace off vs on)\n";

    auto app = bench::buildApp(app_name);
    trace::ColumnarTraceBuffer buffer;
    for (const auto &a :
         app.traceFor("1111", trace::TraceKind::Instruction))
        buffer(a);

    dse::CacheSpace space = dse::CacheSpace::defaultL1Space();
    dse::SimBank bank(space);

    // Warm up caches and the trace buffer before either side.
    bank.simulate(buffer, nullptr);

    support::setMetricsEnabled(false);
    support::setTraceEnabled(false);
    uint64_t off_ns = bestOf(bank, buffer, reps);

    support::setMetricsEnabled(true);
    support::setTraceEnabled(true);
    uint64_t on_ns = bestOf(bank, buffer, reps);

    support::setMetricsEnabled(false);
    support::setTraceEnabled(false);

    double ratio = off_ns > 0 ? static_cast<double>(on_ns) /
                                    static_cast<double>(off_ns)
                              : 1.0;
    double percent = (ratio - 1.0) * 100.0;

    // Server scenario: per-request latency with request-scoped
    // tracing off vs fully on.
    constexpr int serve_reps = 3, serve_requests = 6;
    std::cout << "\nserver scenario: " << serve_requests
              << " eval requests/rep, best of " << serve_reps
              << " (request-scoped tracing off vs on)\n";
    support::setMetricsEnabled(false);
    support::setTraceEnabled(false);
    uint64_t serve_off_ns =
        serveBestOf(app_name, serve_reps, serve_requests);
    support::setMetricsEnabled(true);
    support::setTraceEnabled(true);
    uint64_t serve_on_ns =
        serveBestOf(app_name, serve_reps, serve_requests);
    support::setMetricsEnabled(false);
    support::setTraceEnabled(false);
    double serve_percent =
        serve_off_ns > 0
            ? (static_cast<double>(serve_on_ns) /
                   static_cast<double>(serve_off_ns) -
               1.0) * 100.0
            : 0.0;

    // Rank-checker scenario: hot uncontended lock/unlock with the
    // runtime checker off vs on (A/B is meaningful in Debug; in
    // Release both sides run the same checker-free code).
    constexpr int rank_reps = 5;
    std::cout << "\nrank-checker scenario: hot MutexLock loop, "
                 "checker off vs on (compiled "
              << (PICOEVAL_LOCK_RANK_CHECK ? "in" : "out") << ")\n";
    support::lockrank::setLockRankCheckEnabled(false);
    uint64_t rank_off_ns = rankCheckBestOf(rank_reps);
    support::lockrank::setLockRankCheckEnabled(true);
    uint64_t rank_on_ns = rankCheckBestOf(rank_reps);
    double rank_percent =
        rank_off_ns > 0
            ? (static_cast<double>(rank_on_ns) /
                   static_cast<double>(rank_off_ns) -
               1.0) * 100.0
            : 0.0;

    TextTable table("Wall time, instrumentation off vs on");
    table.setHeader({"scenario", "mode", "best ns", "overhead"});
    table.addRow({"simbank sweep", "disabled", std::to_string(off_ns),
                  "-"});
    table.addRow({"simbank sweep", "enabled", std::to_string(on_ns),
                  TextTable::num(percent, 2) + "%"});
    table.addRow({"server request", "disabled",
                  std::to_string(serve_off_ns), "-"});
    table.addRow({"server request", "enabled",
                  std::to_string(serve_on_ns),
                  TextTable::num(serve_percent, 2) + "%"});
    table.addRow({"rankcheck lock/unlock", "disabled",
                  std::to_string(rank_off_ns), "-"});
    table.addRow({"rankcheck lock/unlock", "enabled",
                  std::to_string(rank_on_ns),
                  TextTable::num(rank_percent, 2) + "%"});
    table.print(std::cout);

    bench::BenchReport json("observability_overhead");
    json.setInfo("app", app_name);
    json.setInfo("path",
                 "SimBank::simulate (columnar trace, fused sweep)");
    json.setMetric("accesses", buffer.size());
    json.setMetric("reps", static_cast<uint64_t>(reps));
    json.setMetric("ns.disabled", off_ns);
    json.setMetric("ns.enabled", on_ns);
    json.setMetric("overhead.percent", percent);
    json.setMetric("server.requests",
                   static_cast<uint64_t>(serve_requests));
    json.setMetric("server.ns.disabled", serve_off_ns);
    json.setMetric("server.ns.enabled", serve_on_ns);
    json.setMetric("server.overhead.percent", serve_percent);
    json.setMetric("rankcheck.compiled",
                   static_cast<uint64_t>(PICOEVAL_LOCK_RANK_CHECK));
    json.setMetric("rankcheck.ns.disabled", rank_off_ns);
    json.setMetric("rankcheck.ns.enabled", rank_on_ns);
    json.setMetric("rankcheck.overhead.percent", rank_percent);
    json.addTable(table);
    if (!bench::writeReport(json, json_out))
        return 1;

    // The budget check is advisory on shared CI runners (noise can
    // exceed the instrumentation itself); the JSON carries the truth.
    constexpr double budgetPercent = 2.0;
    double worst = std::max(percent, serve_percent);
    if (worst > budgetPercent) {
        std::cout << "\nWARNING: overhead " << TextTable::num(worst, 2)
                  << "% exceeds the " << budgetPercent
                  << "% budget on this machine\n";
    } else {
        std::cout << "\noverhead within the " << budgetPercent
                  << "% budget\n";
    }
    return 0;
}
