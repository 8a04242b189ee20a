/**
 * @file
 * PicoEval end-to-end benchmark driver.
 *
 * Usage: perfbench_driver --workload NAME --seed N --seconds S
 *            --trace 0|1 [--smoke] [--write-golden] [--check-jobs]
 *            [--out-dir DIR] [--golden FILE] [--server PATH]
 *
 *   --workload     walk-lru, walk-policy or serve-zipf
 *   --seed         input seed (app order, request draws and keys)
 *   --seconds      measurement budget; whole walks/requests run
 *                  until it is spent
 *   --trace 0      end-to-end metrics, instrumentation off
 *   --trace 1      per-layer metrics: the ledger, the existing spans
 *                  turned on, a Chrome trace and a ledger JSON
 *   --smoke        tiny budgets (the benchmark's own tests)
 *   --write-golden record result digests instead of checking them
 *   --check-jobs   compare walk-lru digests at jobs 1 and jobs 4
 *
 * Prints the metrics by name with their units, then one JSON line
 * (the last line of stdout): {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}. Exits 1 when any operation
 * failed or any digest mismatched, 2 on bad usage, 3 on an error.
 */

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "Bench.hpp"

namespace perfbench
{

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
selfPeakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0
               ? static_cast<uint64_t>(st.st_size)
               : 0;
}

void
makeDirs(const std::string &path)
{
    std::filesystem::create_directories(path);
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench

namespace
{

/** Match `--flag value`; fills `value` on match. */
bool
flagValue(int argc, char **argv, int &i, const std::string &flag,
          std::string &value)
{
    if (argv[i] != flag || i + 1 >= argc)
        return false;
    value = argv[++i];
    return true;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printReport(const perfbench::RunOptions &opts,
            const perfbench::RunReport &rep)
{
    std::cout << "workload " << opts.workload << " seed " << opts.seed
              << " seconds " << opts.seconds << " trace " << opts.trace
              << (opts.smoke ? " (smoke)" : "") << "\n";
    for (const auto *group : {&rep.metrics, &rep.info}) {
        for (const auto &[name, m] : *group) {
            char line[160];
            std::snprintf(line, sizeof(line), "  %-30s %16.6g %s\n",
                          name.c_str(), m.value, m.unit.c_str());
            std::cout << line;
        }
    }
    std::cout << "  operations: " << rep.attempted << " attempted, "
              << rep.failed << " failed\n";
    const bool correct = rep.failed == 0 && rep.attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted
              << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : rep.metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << number(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    bool check_jobs = false;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (flagValue(argc, argv, i, "--workload", opts.workload) ||
            flagValue(argc, argv, i, "--out-dir", opts.outDir) ||
            flagValue(argc, argv, i, "--golden", opts.goldenPath) ||
            flagValue(argc, argv, i, "--server", opts.serverPath)) {
        } else if (flagValue(argc, argv, i, "--seed", value)) {
            opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flagValue(argc, argv, i, "--seconds", value)) {
            opts.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flagValue(argc, argv, i, "--trace", value)) {
            opts.trace = std::atoi(value.c_str());
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--write-golden") {
            opts.writeGolden = true;
        } else if (arg == "--check-jobs") {
            check_jobs = true;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }
    try {
        if (check_jobs)
            return perfbench::checkJobsInvariance(opts);
        perfbench::RunReport rep;
        if (opts.workload == "walk-lru" || opts.workload == "walk-policy")
            rep = perfbench::runWalkWorkload(opts);
        else if (opts.workload == "serve-zipf")
            rep = perfbench::runServeWorkload(opts);
        else {
            std::cerr << "unknown workload '" << opts.workload
                      << "' (walk-lru, walk-policy, serve-zipf)\n";
            return 2;
        }
        printReport(opts, rep);
        return rep.failed == 0 && rep.attempted > 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 3;
    }
}
