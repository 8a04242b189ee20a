/**
 * @file
 * Exploration-as-a-service daemon: accepts concurrent evaluation
 * requests over a Unix domain socket, batches them onto a bounded
 * worker pool, and shares one persistent crash-safe evaluation cache
 * across every request.
 *
 * Usage: picoeval_server --socket PATH [--workers N] [--cache FILE]
 *            [--watermark N]
 *            [--default-deadline-ms N] [--drain-ms N] [--chaos]
 *            [--metrics-out FILE] [--trace-out FILE]
 *            [--flight-out FILE]
 *        picoeval_server --verify-cache FILE
 *
 *   --socket PATH      Unix socket to listen on (required to serve)
 *   --workers N        evaluation worker threads (default 2)
 *   --cache FILE       persistent evaluation-cache database
 *   --watermark N      admission queue bound: requests that find
 *                      the queue this deep are shed (default 48)
 *   --default-deadline-ms N  deadline applied to requests that
 *                      carry none (default 0 = none)
 *   --drain-ms N       graceful-drain deadline on SIGTERM/SIGINT
 *                      (default 10000)
 *   --chaos            arm deterministic fault-injection sites
 *                      (cache-write faults, slow evaluations,
 *                      worker exceptions) — for the chaos-tested
 *                      load harness, never production
 *   --metrics-out FILE write a machine-readable run report (JSON)
 *                      after the drain
 *   --trace-out FILE   enable request-scoped tracing and write the
 *                      Chrome trace (request ids, span parentage,
 *                      cross-thread flow events) after the drain
 *   --flight-out FILE  write the flight-recorder ring (last 1024
 *                      request lifecycle events) after the drain,
 *                      on SIGUSR1, and from the fatal()/panic() hook
 *   --verify-cache FILE  standalone mode: audit an evaluation-cache
 *                      database with the result verifier and exit
 *                      (0 = clean) — CI runs this after chaos loads
 *
 * On SIGTERM/SIGINT the server stops accepting, drains admitted work
 * under --drain-ms (answering anything the deadline strands as
 * shed), flushes the cache, writes the final report, and exits 0 on
 * a clean drain, 4 when the drain deadline was blown. SIGUSR1 dumps
 * the flight recorder to --flight-out without disturbing the server.
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "server/EvalService.hpp"
#include "server/Server.hpp"
#include "support/Backoff.hpp"
#include "support/FaultInjection.hpp"
#include "support/FlightRecorder.hpp"
#include "support/Logging.hpp"
#include "support/Metrics.hpp"
#include "support/RunReport.hpp"
#include "support/TraceEvents.hpp"
#include "verify/ResultVerifier.hpp"

#include "CliFlags.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace pico;
using cli::flagValue;

namespace
{

volatile std::sig_atomic_t g_signal = 0;
volatile std::sig_atomic_t g_dump = 0;

void
onSignal(int sig)
{
    g_signal = sig;
}

void
onDumpSignal(int)
{
    g_dump = 1;
}

/** Where the fatal hook and SIGUSR1 write the flight recorder. */
std::string g_flight_path;

/**
 * Installed via setFatalHook: any panic()/fatal() on any thread
 * dumps the flight recorder before the exception unwinds, so the
 * post-mortem names the request ids in flight at the moment of
 * death.
 */
void
fatalFlightDump(const char *, const std::string &)
{
    if (!g_flight_path.empty())
        support::FlightRecorder::instance().dumpToFile(
            g_flight_path);
}

uint64_t
toU64(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 10);
}

/**
 * Deterministic chaos configuration: the same sites and triggers
 * every run, so a chaos load test is reproducible. Sites:
 * cache-write faults (the save protocol's recovery path), slow
 * evaluations (deadline/backpressure path), worker exceptions
 * (failure-isolation path).
 */
void
armChaos()
{
    auto &inj = support::FaultInjector::instance();
    inj.arm("EvaluationCache::save:before-write", 1, 2);
    inj.arm("EvaluationCache::save:before-rename", 4, 1);
    inj.arm("EvalService::execute", 3, 3);
    inj.arm("EvalService::execute:slow", 1, 0);
    inj.arm("Spacewalker::evaluateDesign", 10, 3);
    std::cout << "chaos mode: fault sites armed\n";
}

/**
 * Fix glibc's mmap threshold at its 128-KiB default. Left dynamic,
 * glibc raises it to the size of the first mapped block a thread
 * frees (a cold walk's single-pass simulator tables, up to 512 KiB)
 * and lets each arena keep twice that much free memory untrimmed.
 * What the worker arenas hold at that moment depends on which worker
 * frees first, so the server's resident peak fell into two modes
 * about 2 MB apart from one run to the next. With the threshold
 * fixed, blocks that large stay mapped and go back to the system when
 * freed; a served walk's own buffers are smaller and come from the
 * arenas as before.
 */
void
pinMallocThresholds()
{
#if defined(__GLIBC__)
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    pinMallocThresholds();
    std::string socket_path, cache_path, metrics_out, verify_path;
    std::string trace_out, flight_out;
    server::ServiceOptions opts;
    uint64_t drain_ms = 10000;
    bool chaos = false;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        if (flagValue(argc, argv, i, "--socket", socket_path) ||
            flagValue(argc, argv, i, "--cache", cache_path) ||
            flagValue(argc, argv, i, "--metrics-out", metrics_out) ||
            flagValue(argc, argv, i, "--trace-out", trace_out) ||
            flagValue(argc, argv, i, "--flight-out", flight_out) ||
            flagValue(argc, argv, i, "--verify-cache",
                      verify_path)) {
            // value captured by flagValue
        } else if (flagValue(argc, argv, i, "--workers", value)) {
            opts.workers = static_cast<unsigned>(toU64(value));
        } else if (flagValue(argc, argv, i, "--watermark", value)) {
            opts.queueWatermark = toU64(value);
        } else if (flagValue(argc, argv, i, "--default-deadline-ms",
                             value)) {
            opts.defaultDeadlineMs = toU64(value);
        } else if (flagValue(argc, argv, i, "--drain-ms", value)) {
            drain_ms = toU64(value);
        } else if (std::string(argv[i]) == "--chaos") {
            chaos = true;
        } else {
            std::cerr << "unknown argument: " << argv[i] << "\n";
            return 2;
        }
    }

    // Standalone audit mode: is a cache database internally
    // consistent? CI runs this over the database a chaos load left
    // behind — surviving injected faults means nothing if the file
    // no longer loads clean.
    if (!verify_path.empty()) {
        verify::Diagnostics diags;
        verify::verifyCacheFile(verify_path, diags);
        std::cout << "cache " << verify_path << ": "
                  << diags.errorCount() << " error(s), "
                  << diags.warningCount() << " warning(s)\n";
        if (!diags.empty())
            std::cout << diags.report();
        return diags.clean() ? 0 : 1;
    }

    if (socket_path.empty()) {
        std::cerr << "usage: picoeval_server --socket PATH [...] | "
                     "--verify-cache FILE\n";
        return 2;
    }

    support::setMetricsEnabled(!metrics_out.empty());
    support::setTraceEnabled(!trace_out.empty());
    if (!flight_out.empty()) {
        g_flight_path = flight_out;
        setFatalHook(fatalFlightDump);
    }
    if (chaos)
        armChaos();
    opts.cachePath = cache_path;
    opts.drainDeadlineMs = drain_ms;

    server::EvalService service(opts);
    server::Server srv(socket_path, &service);

    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    struct sigaction dump_sa = {};
    dump_sa.sa_handler = onDumpSignal;
    sigaction(SIGUSR1, &dump_sa, nullptr);

    std::thread accept_thread([&srv] { srv.run(); });
    while (g_signal == 0) {
        if (g_dump != 0) {
            g_dump = 0;
            // Live post-mortem: dump the ring without disturbing
            // the serving threads (snapshot never blocks writers).
            if (!flight_out.empty() &&
                support::FlightRecorder::instance().dumpToFile(
                    flight_out))
                std::cout << "flight recorder dumped to "
                          << flight_out << "\n";
        }
        support::sleepForMs(50);
    }
    std::cout << "signal " << static_cast<int>(g_signal)
              << ": stopping\n";

    // Graceful shutdown sequence: stop the transport first (no new
    // requests can arrive), then drain the admitted ones.
    srv.stop();
    accept_thread.join();
    bool graceful = service.drain(drain_ms);

    // Snapshot the counters only now: the drain above may still
    // complete (or shed) queued requests, and the report must
    // account for every one of them.
    auto stats = service.statsValues();
    std::cout << "served: " << stats["completed"] << " ok, "
              << stats["shed"] << " shed, " << stats["deadline"]
              << " deadline, " << stats["failed"] << " failed ("
              << srv.connections() << " connection(s))\n";

    if (!metrics_out.empty()) {
        support::RunReport report;
        report.set("server.socket", socket_path);
        report.set("server.workers",
                   static_cast<uint64_t>(opts.workers));
        report.set("server.chaos",
                   static_cast<uint64_t>(chaos ? 1 : 0));
        report.set("server.drain.graceful",
                   static_cast<uint64_t>(graceful ? 1 : 0));
        for (const auto &[k, v] : stats)
            report.set("server." + k, v);
        if (report.write(metrics_out))
            std::cout << "run report written to " << metrics_out
                      << "\n";
    }
    if (!trace_out.empty() &&
        support::TraceRecorder::instance().writeJson(trace_out))
        std::cout << "chrome trace written to " << trace_out << "\n";
    if (!flight_out.empty() &&
        support::FlightRecorder::instance().dumpToFile(flight_out))
        std::cout << "flight recorder dumped to " << flight_out
                  << "\n";
    return graceful ? 0 : 4;
}
