/**
 * @file
 * Observability overhead microbench: the instrumentation layer's
 * contract is "zero cost when disabled, negligible when enabled".
 * This bench measures both sides on the hottest instrumented path —
 * the SimBank sweep over a captured columnar trace — by replaying it
 * with the registry off and on, and reports the median per-pair
 * enabled/disabled wall-time overhead (expected well under the 2%
 * budget; instrumentation is per-sweep, not per-access).
 *
 * A second scenario measures the serving layer with request-scoped
 * tracing: end-to-end EvalService request latency with tracing off
 * vs on (request spans, flow events, context propagation and the
 * always-on flight recorder all engaged), on one warmed service whose
 * switches flip between the halves of each pair. Same 2% budget.
 *
 * Every scenario times its two sides in alternating pairs
 * (bench::pairedOverhead). Emits BENCH_observability_overhead.json
 * with the raw timings so CI archives the ratio next to the run
 * reports.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

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

/** Metrics and tracing together: the switch each scenario flips. */
void
setInstrumentation(bool on)
{
    support::setMetricsEnabled(on);
    support::setTraceEnabled(on);
}

/**
 * Request latency of one warmed EvalService with request-scoped
 * tracing off vs on. Every request is unique work (each takes the
 * next trace budget, so neither the service memo nor the eval cache
 * short-circuits it); the side that runs second in a pair walks
 * budgets `requests` blocks larger, and which side that is
 * alternates.
 */
bench::PairedOverhead
serveOverhead(const std::string &app, int requests)
{
    server::ServiceOptions opts;
    opts.workers = 2;
    server::EvalService service(opts);
    uint64_t budget = 1000;
    auto serve = [&](bool traced) {
        setInstrumentation(traced);
        for (int i = 0; i < requests; ++i) {
            server::Request req;
            req.app = app;
            req.machines = "1111";
            req.traceBlocks = budget++;
            server::Response resp = service.call(req);
            if (resp.status != server::Status::Ok) {
                std::cout << "server scenario request failed: "
                          << resp.error << "\n";
                std::exit(1);
            }
        }
    };
    return bench::pairedOverhead([&] { serve(false); },
                                 [&] { serve(true); });
}

/** Lock/unlock pairs per rank-checker sample. */
constexpr int rankCheckIters = 200000;

/**
 * A hot uncontended MutexLock loop on a ranked mutex under the
 * lock-rank-checker toggle. In Release the checker is compiled out
 * (PICOEVAL_LOCK_RANK_CHECK == 0) and the toggle is inert, so
 * disabled and enabled time the identical code — the measured 0%
 * *is* the Release overhead claim. In Debug the pair quantifies what
 * the thread-local stack bookkeeping costs.
 */
bench::PairedOverhead
rankCheckOverhead()
{
    support::Mutex mtx{"bench.rankcheck",
                       support::rank::kMetricsRegistry};
    auto spin = [&mtx](bool checked) {
        support::lockrank::setLockRankCheckEnabled(checked);
        volatile uint64_t sink = 0;
        for (int i = 0; i < rankCheckIters; ++i) {
            support::MutexLock lock(mtx);
            sink = sink + 1;
        }
    };
    return bench::pairedOverhead([&] { spin(false); },
                                 [&] { spin(true); });
}

/** The scenario's table rows: median ns per side, overhead. */
void
addRows(TextTable &table, const std::string &scenario,
        const bench::PairedOverhead &o)
{
    table.addRow({scenario, "disabled", std::to_string(o.offNs), "-",
                  "-"});
    table.addRow({scenario, "enabled", std::to_string(o.onNs),
                  TextTable::num(o.percent, 2) + "%",
                  TextTable::num(o.q1Percent, 2) + ".." +
                      TextTable::num(o.q3Percent, 2) + "%"});
}

/** The scenario's gated overhead and its ungated quartiles. */
void
setOverhead(bench::BenchReport &json, const std::string &prefix,
            const bench::PairedOverhead &o)
{
    json.setMetric(prefix + "overhead.percent", o.percent);
    json.setMetric(prefix + "overhead.percent.q1", o.q1Percent);
    json.setMetric(prefix + "overhead.percent.q3", o.q3Percent);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_out = bench::extractJsonOutArg(argc, argv);
    const std::string app_name = bench::appArg(argc, argv, "rasta");

    std::cout << "observability overhead: SimBank sweeps over '"
              << app_name << "', alternating pairs (metrics+trace "
              << "off vs on)\n";

    auto app = bench::buildApp(app_name);
    trace::ColumnarTraceBuffer buffer;
    for (const auto &a :
         app.traceFor("1111", trace::TraceKind::Instruction))
        buffer(a);

    dse::CacheSpace space = dse::CacheSpace::defaultL1Space();
    dse::SimBank bank(space);
    auto sweep = [&](bool on) {
        setInstrumentation(on);
        bank.simulate(buffer, nullptr);
    };
    const bench::PairedOverhead sweeps = bench::pairedOverhead(
        [&] { sweep(false); }, [&] { sweep(true); });

    // Server scenario: per-request latency with request-scoped
    // tracing off vs fully on. Each side times 24 requests (about
    // 0.25 s): at 6 a burst of host load over one side moved the
    // median per-pair overhead by up to 7 points.
    constexpr int serve_requests = 24;
    std::cout << "\nserver scenario: " << serve_requests
              << " eval requests per side, alternating pairs "
              << "(request-scoped tracing off vs on)\n";
    const bench::PairedOverhead serves =
        serveOverhead(app_name, serve_requests);
    setInstrumentation(false);

    // Rank-checker scenario: hot uncontended lock/unlock with the
    // runtime checker off vs on (A/B is meaningful in Debug; in
    // Release both sides run the same checker-free code).
    std::cout << "\nrank-checker scenario: hot MutexLock loop, "
                 "checker off vs on (compiled "
              << (PICOEVAL_LOCK_RANK_CHECK ? "in" : "out") << ")\n";
    const bench::PairedOverhead ranks = rankCheckOverhead();

    TextTable table("Wall time, instrumentation off vs on");
    table.setHeader(
        {"scenario", "mode", "median ns", "overhead", "q1..q3"});
    addRows(table, "simbank sweep", sweeps);
    addRows(table, "server, " + std::to_string(serve_requests) +
                       " requests",
            serves);
    addRows(table,
            "rankcheck, " + std::to_string(rankCheckIters) +
                " lock/unlock",
            ranks);
    table.print(std::cout);

    bench::BenchReport json("observability_overhead");
    json.setInfo("app", app_name);
    json.setInfo("path",
                 "SimBank::simulate (columnar trace, fused sweep)");
    json.setMetric("accesses", buffer.size());
    json.setMetric("pairs", static_cast<uint64_t>(sweeps.pairs));
    json.setMetric("ns.disabled", sweeps.offNs);
    json.setMetric("ns.enabled", sweeps.onNs);
    setOverhead(json, "", sweeps);
    json.setMetric("server.requests",
                   static_cast<uint64_t>(serve_requests));
    json.setMetric("server.ns.disabled", serves.offNs / serve_requests);
    json.setMetric("server.ns.enabled", serves.onNs / serve_requests);
    setOverhead(json, "server.", serves);
    json.setMetric("rankcheck.compiled",
                   static_cast<uint64_t>(PICOEVAL_LOCK_RANK_CHECK));
    json.setMetric("rankcheck.ns.disabled", ranks.offNs / rankCheckIters);
    json.setMetric("rankcheck.ns.enabled", ranks.onNs / rankCheckIters);
    setOverhead(json, "rankcheck.", ranks);
    json.addTable(table);
    if (!bench::writeReport(json, json_out))
        return 1;

    // The budget check is advisory on shared CI runners (noise can
    // exceed the instrumentation itself); the JSON carries the truth.
    constexpr double budgetPercent = 2.0;
    double worst = std::max(sweeps.percent, serves.percent);
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
