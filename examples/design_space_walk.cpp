/**
 * @file
 * Design-space walk: run the spacewalker on an application and print
 * the cost-performance-optimal (Pareto) systems, the way an
 * automated embedded-system design flow would.
 *
 * Usage: design_space_walk [app] [--jobs N] [--verify[=0|1]]
 *                          [--metrics-out FILE] [--trace-out FILE]
 *                          [--cache FILE] [--timeout-ms N]
 *                          [--replacement lru,fifo,rand]
 *                          [--write wb,wt] [--write-cost N]
 *   app      one of the suite names (default rasta); includes the
 *            accelerator suite (matmul-tile8, matmul-tile16,
 *            zipf-lut, zipf-dispatch)
 *   --jobs N worker threads for the walk (default 1 = serial,
 *            0 = one per hardware thread); results are identical
 *            for every N
 *   --timeout-ms N  wall-clock budget for the walk; on expiry the
 *            walk cancels cooperatively at the next checkpoint and
 *            reports the designs it completed (partial results,
 *            exit code 3). Pair with --cache so a rerun resumes
 *            from the completed work instead of redoing it.
 *   --verify run the static verification passes (src/verify) at the
 *            walk's phase boundaries and print the findings;
 *            --verify=0 forces them off even in Debug builds, and
 *            any value but 0 or 1 is rejected. The walk's results
 *            are bit-identical either way.
 *   --metrics-out FILE  enable the metrics registry and write a
 *            machine-readable run report (JSON) after the walk
 *   --trace-out FILE    record spans and write a Chrome trace-event
 *            file (load in chrome://tracing or ui.perfetto.dev)
 *   --cache FILE        persistent evaluation-cache database; rerun
 *            with the same file to see disk hits in the report
 *   --replacement LIST  comma-separated replacement-policy axis for
 *            the data and unified cache spaces (lru, fifo, rand;
 *            default lru). The instruction cache keeps LRU: its
 *            references carry no stores and the paper's I-side
 *            dilation model is calibrated on stack simulation.
 *   --write LIST        comma-separated write-policy axis for the
 *            data and unified cache spaces (wb, wt; default wb)
 *   --write-cost N      stall cycles per memory write (dirty-line
 *            writeback or store write-through; default 0 = classic
 *            read-only stall model)
 * Flags accept both `--flag value` and `--flag=value`. An unknown
 * flag, app or policy name, or a number that does not parse whole,
 * prints one line on stderr and exits with code 2 before the walk
 * starts.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cache/Policy.hpp"
#include "dse/Spacewalker.hpp"
#include "support/CancelToken.hpp"
#include "support/Metrics.hpp"
#include "support/RunReport.hpp"
#include "support/Table.hpp"
#include "support/TraceEvents.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

#include "CliFlags.hpp"

using namespace pico;
using cli::flagValue;
using cli::numberFlag;
using cli::splitList;

namespace
{

const char *const usage =
    "usage: design_space_walk [app] [--jobs N] [--verify[=0|1]] "
    "[--metrics-out FILE] [--trace-out FILE] [--cache FILE] "
    "[--timeout-ms N] [--replacement LIST] [--write LIST] "
    "[--write-cost N]\n";

} // namespace

int
main(int argc, char **argv)
{
    std::string app_name = "rasta";
    unsigned jobs = 1;
    int verify = -1;
    uint64_t timeout_ms = 0;
    double write_cost = 0.0;
    std::vector<cache::ReplacementPolicy> replacements;
    std::vector<cache::WritePolicy> write_policies;
    std::string metrics_out, trace_out, cache_path, value;
    workloads::AppSpec spec;
    // A bad app or policy name fails in fatal(), which has already
    // printed the one-line reason.
    try {
        for (int i = 1; i < argc; ++i) {
            if (numberFlag(argc, argv, i, "--jobs", jobs) ||
                numberFlag(argc, argv, i, "--timeout-ms", timeout_ms) ||
                numberFlag(argc, argv, i, "--write-cost", write_cost)) {
                // value read by numberFlag
            } else if (flagValue(argc, argv, i, "--replacement",
                                 value)) {
                for (const auto &item : splitList(value))
                    replacements.push_back(cache::parseReplacement(item));
            } else if (flagValue(argc, argv, i, "--write", value)) {
                for (const auto &item : splitList(value))
                    write_policies.push_back(
                        cache::parseWritePolicy(item));
            } else if (std::string(argv[i]) == "--verify") {
                verify = 1;
            } else if (std::string(argv[i]).rfind("--verify=", 0) == 0) {
                // `=value` form only: a bare `--verify` must not eat
                // the app-name argument.
                value = std::string(argv[i]).substr(9);
                if (value != "0" && value != "1")
                    throw cli::InvalidValue{"--verify", value};
                verify = value == "1";
            } else if (flagValue(argc, argv, i, "--metrics-out",
                                 metrics_out) ||
                       flagValue(argc, argv, i, "--trace-out",
                                 trace_out) ||
                       flagValue(argc, argv, i, "--cache", cache_path)) {
                // value captured by flagValue
            } else if (std::string(argv[i]).rfind("--", 0) == 0) {
                std::cerr << "unknown argument: " << argv[i] << "\n"
                          << usage;
                return 2;
            } else {
                app_name = argv[i];
            }
        }
        spec = workloads::specByName(app_name);
    } catch (const cli::InvalidValue &bad) {
        return cli::rejectValue(bad, usage);
    } catch (const FatalError &) {
        return 2;
    }
    // Instrumentation is opt-in: without the flags the walk runs
    // with the registry disabled (a relaxed load per call site).
    if (!metrics_out.empty())
        support::setMetricsEnabled(true);
    if (!trace_out.empty())
        support::setTraceEnabled(true);
    auto prog = workloads::buildAndProfile(spec);

    // Processor space: every FU mix from narrow to wide.
    std::vector<std::string> machines = {"1111", "2111", "2211",
                                         "3221", "4221", "4332",
                                         "6332"};

    // Memory space: the default L1/L2 spaces (~20+ candidates per
    // cache type, as in the paper's sizing).
    dse::MemorySpaces spaces;
    // Policy axes apply to the data-side spaces (see the usage
    // comment for why the I$ stays LRU/write-back).
    if (!replacements.empty()) {
        spaces.dcache.replacements = replacements;
        spaces.ucache.replacements = replacements;
    }
    if (!write_policies.empty()) {
        spaces.dcache.writePolicies = write_policies;
        spaces.ucache.writePolicies = write_policies;
    }
    dse::Spacewalker::Options opts;
    opts.traceBlocks = 40000;
    opts.stalls.writeCost = write_cost;
    opts.jobs = jobs;
    opts.verify = verify;
    opts.evaluationCachePath = cache_path;
    // The token outlives the walk; the walker only borrows it.
    support::CancelToken deadline =
        timeout_ms != 0 ? support::CancelToken::afterMs(timeout_ms)
                        : support::CancelToken();
    if (timeout_ms != 0)
        opts.cancel = &deadline;
    dse::Spacewalker walker(spaces, machines, opts);

    std::cout << "exploring " << machines.size() << " processors x "
              << spaces.icache.enumerate().size() << " I-caches x "
              << spaces.dcache.enumerate().size() << " D-caches x "
              << spaces.ucache.enumerate().size()
              << " U-caches for '" << app_name << "' with "
              << support::ThreadPool::resolveJobs(jobs)
              << " job(s)...\n\n";

    auto result = walker.explore(prog);

    TextTable dil("Per-machine dilation and cycles");
    dil.setHeader({"machine", "dilation", "cycles"});
    for (const auto &[name, d] : result.dilations)
        dil.addRow({name, TextTable::num(d, 2),
                    std::to_string(result.processorCycles.at(name))});
    dil.print(std::cout);
    std::cout << "\n";

    TextTable sys("Cost-performance-optimal systems");
    sys.setHeader({"#", "system", "cost", "total cycles"});
    auto sorted = result.systems.sorted();
    for (size_t i = 0; i < sorted.size(); ++i) {
        sys.addRow({std::to_string(i + 1), sorted[i].id,
                    TextTable::num(sorted[i].cost, 1),
                    TextTable::num(sorted[i].time, 0)});
    }
    sys.print(std::cout);

    std::cout << "\n"
              << result.systems.offered() << " designs evaluated, "
              << sorted.size()
              << " cost-performance optimal. Every cache metric came "
                 "from reference-trace simulation plus the dilation "
                 "model.\n";

    if (!cache_path.empty()) {
        auto stats = walker.evaluationCache().stats();
        std::cout << "\nevaluation cache '" << cache_path << "': "
                  << stats.hits << " hit(s) (" << stats.diskHits
                  << " from a previous run), " << stats.computed
                  << " computed this run, " << stats.saves
                  << " checkpoint(s)\n";
    }

    if (!metrics_out.empty()) {
        support::RunReport report;
        report.set("app", app_name);
        report.set("jobs", static_cast<uint64_t>(jobs));
        report.set("jobs.resolved",
                   static_cast<uint64_t>(
                       support::ThreadPool::resolveJobs(jobs)));
        report.set("machines",
                   static_cast<uint64_t>(machines.size()));
        report.set("trace.blocks", opts.traceBlocks);
        report.set("designs.evaluated", result.evaluatedDesigns);
        report.set("designs.failed",
                   static_cast<uint64_t>(result.failures.size()));
        report.set("timeout.ms", timeout_ms);
        report.set("deadline_exceeded",
                   static_cast<uint64_t>(
                       result.deadlineExceeded ? 1 : 0));
        report.set("pareto.systems",
                   static_cast<uint64_t>(sorted.size()));
        report.set("verify.errors",
                   static_cast<uint64_t>(
                       result.diagnostics.errorCount()));
        report.set("verify.warnings",
                   static_cast<uint64_t>(
                       result.diagnostics.warningCount()));
        if (report.write(metrics_out))
            std::cout << "run report written to " << metrics_out
                      << "\n";
    }
    if (!trace_out.empty() &&
        support::TraceRecorder::instance().writeJson(trace_out)) {
        std::cout << "trace written to " << trace_out
                  << " (load in chrome://tracing)\n";
    }

    if (verify == 1) {
        std::cout << "\nverification: "
                  << result.diagnostics.errorCount() << " error(s), "
                  << result.diagnostics.warningCount()
                  << " warning(s)\n";
        if (!result.diagnostics.empty())
            std::cout << result.diagnostics.report();
    }

    // A blown --timeout-ms is its own outcome, distinct from both a
    // clean walk (0) and a design failure (1): the results above are
    // genuine but partial, and everything completed is in the cache.
    if (result.deadlineExceeded) {
        std::cout << "\nWARNING: walk timed out after " << timeout_ms
                  << " ms with " << result.evaluatedDesigns
                  << " design(s) evaluated — partial results above"
                  << (cache_path.empty()
                          ? ""
                          : "; rerun with the same --cache to resume")
                  << "\n";
        return 3;
    }

    // A failing design is skipped and logged, not fatal: report
    // whether this walk was complete.
    if (!result.complete()) {
        std::cout << "\nWARNING: exploration was partial — "
                  << result.failures.report();
        return 1;
    }
    return result.diagnostics.clean() ? 0 : 1;
}
