/**
 * @file
 * Verifier overhead guard: the static verification passes run at the
 * Spacewalker's phase boundaries and are advertised as cheap enough
 * to leave on by default in Debug builds — and affordable even in
 * Release (--verify). This bench times complete explorations with
 * verification off and on (a fresh Spacewalker per walk, so no
 * evaluation-cache state leaks between sides) in alternating pairs
 * and reports the median per-pair overhead against a 5% budget.
 *
 * Emits BENCH_verifier_overhead.json with the raw timings so CI
 * archives the ratio next to the run reports.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/BenchCommon.hpp"
#include "dse/Spacewalker.hpp"

using namespace pico;

namespace
{

/** One complete exploration with a fresh walker. */
void
walk(const ir::Program &prog, int verify)
{
    dse::MemorySpaces spaces;
    dse::Spacewalker::Options opts;
    opts.traceBlocks = 10000;
    opts.uGranule = 50000;
    opts.jobs = 1;
    opts.verify = verify;
    dse::Spacewalker walker(spaces, {"1111", "2211", "3221"}, opts);
    auto result = walker.explore(prog);
    if (!result.diagnostics.clean()) {
        // A dirty result would mean the bench times error paths.
        std::cerr << result.diagnostics.report();
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_out = bench::extractJsonOutArg(argc, argv);
    const std::string app_name = bench::appArg(argc, argv, "rasta");

    std::cout << "verifier overhead: full exploration of '"
              << app_name << "', alternating pairs (verify off vs "
              << "on)\n";

    auto prog = workloads::buildAndProfile(
        workloads::specByName(app_name), bench::profileBlocks);

    const bench::PairedOverhead walks = bench::pairedOverhead(
        [&] { walk(prog, 0); }, [&] { walk(prog, 1); });
    const double percent = walks.percent;

    TextTable table("Exploration wall time, verification off vs on");
    table.setHeader({"mode", "median ns", "overhead", "q1..q3"});
    table.addRow({"off", std::to_string(walks.offNs), "-", "-"});
    table.addRow({"on", std::to_string(walks.onNs),
                  TextTable::num(percent, 2) + "%",
                  TextTable::num(walks.q1Percent, 2) + ".." +
                      TextTable::num(walks.q3Percent, 2) + "%"});
    table.print(std::cout);

    bench::BenchReport json("verifier_overhead");
    json.setInfo("app", app_name);
    json.setInfo("path", "Spacewalker::explore (phase-boundary "
                         "verification)");
    json.setMetric("pairs", static_cast<uint64_t>(walks.pairs));
    json.setMetric("ns.off", walks.offNs);
    json.setMetric("ns.on", walks.onNs);
    json.setMetric("overhead.percent", percent);
    json.setMetric("overhead.percent.q1", walks.q1Percent);
    json.setMetric("overhead.percent.q3", walks.q3Percent);
    json.addTable(table);
    if (!bench::writeReport(json, json_out))
        return 1;

    // The budget check is advisory on shared CI runners (noise can
    // exceed the verifier itself); the JSON carries the truth.
    constexpr double budgetPercent = 5.0;
    if (percent > budgetPercent) {
        std::cout << "\nWARNING: overhead "
                  << TextTable::num(percent, 2) << "% exceeds the "
                  << budgetPercent << "% budget on this machine\n";
    } else {
        std::cout << "\noverhead within the " << budgetPercent
                  << "% budget\n";
    }
    return 0;
}
