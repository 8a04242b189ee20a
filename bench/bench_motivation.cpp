/**
 * @file
 * Experiment E1 — paper section 1: the evaluation-cost arithmetic
 * that motivates the whole approach.
 *
 * The paper: with 40 VLIW processors and 20 caches per type,
 * exhaustive per-combination simulation of ghostscript costs
 * 40 x 20 x (2 + 5 + 7) hours = 466 days, versus a handful of
 * reference-trace simulations under the hierarchical scheme. We
 * reproduce the same arithmetic with *measured* per-trace simulation
 * times on the ghostscript analogue, and report both the measured
 * small-scale cost and the projected full-design-space cost.
 */

#include <chrono>
#include <iostream>

#include "bench/BenchCommon.hpp"
#include "cache/CacheSim.hpp"
#include "dse/CacheSpace.hpp"
#include "dse/Evaluators.hpp"

using namespace pico;

namespace
{

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_out = bench::extractJsonOutArg(argc, argv);
    std::cout << "Section 1 motivation: exhaustive vs hierarchical "
                 "evaluation cost (ghostscript analogue)\n\n";

    auto app = bench::buildApp("ghostscript");
    const int num_processors = 40;
    auto l1_space = dse::CacheSpace::defaultL1Space();
    auto l2_space = dse::CacheSpace::defaultL2Space();
    size_t caches_per_type = l1_space.enumerate().size();

    // Measure one per-configuration simulation of each trace type.
    auto t0 = std::chrono::steady_clock::now();
    app.simulate("1111", trace::TraceKind::Data,
                 bench::smallDcache());
    double t_data = seconds(t0);

    t0 = std::chrono::steady_clock::now();
    app.simulate("1111", trace::TraceKind::Instruction,
                 bench::smallIcache());
    double t_instr = seconds(t0);

    t0 = std::chrono::steady_clock::now();
    app.simulate("1111", trace::TraceKind::Unified,
                 bench::smallUcache());
    double t_unified = seconds(t0);

    double per_processor = t_data + t_instr + t_unified;
    double exhaustive = num_processors *
                        static_cast<double>(caches_per_type) *
                        per_processor;

    // Hierarchical cost: one single-pass run per line size per cache
    // type, on the reference trace only.
    t0 = std::chrono::steady_clock::now();
    dse::IcacheEvaluator ieval(l1_space, bench::iGranule);
    ieval.evaluate([&app](const dse::TraceSink &sink) {
        for (const auto &a :
             app.traceFor("1111", trace::TraceKind::Instruction))
            sink(a);
    });
    dse::DcacheEvaluator deval(l1_space);
    deval.evaluate([&app](const dse::TraceSink &sink) {
        for (const auto &a :
             app.traceFor("1111", trace::TraceKind::Data))
            sink(a);
    });
    dse::UcacheEvaluator ueval(l2_space, bench::uGranule);
    ueval.evaluate([&app](const dse::TraceSink &sink) {
        for (const auto &a :
             app.traceFor("1111", trace::TraceKind::Unified))
            sink(a);
    });
    double hierarchical = seconds(t0);

    // Every (processor, cache) point is now a model query.
    t0 = std::chrono::steady_clock::now();
    double checksum = 0.0;
    for (int p = 0; p < num_processors; ++p) {
        double d = 1.0 + 2.4 * p / (num_processors - 1);
        for (const auto &cfg : l1_space.enumerate())
            checksum += ieval.misses(cfg, d);
        for (const auto &cfg : l2_space.enumerate())
            checksum += ueval.misses(cfg, d);
    }
    double queries = seconds(t0);

    TextTable table("Evaluation cost");
    table.setHeader({"strategy", "trace simulations", "time (s)"});
    table.addRow({"exhaustive (40 proc x " +
                      std::to_string(caches_per_type) +
                      " caches x 3 types, projected)",
                  std::to_string(num_processors * caches_per_type * 3),
                  TextTable::num(exhaustive, 1)});
    table.addRow(
        {"hierarchical (single-pass per line size, 1 processor)",
         std::to_string(ieval.bank().simRuns() +
                        deval.bank().simRuns() +
                        ueval.bank().simRuns()),
         TextTable::num(hierarchical, 1)});
    table.addRow({"+ all 40x" + std::to_string(caches_per_type) +
                      " model queries",
                  "0", TextTable::num(queries, 2)});
    table.print(std::cout);

    std::cout << "\nSpeedup: "
              << TextTable::num(
                     exhaustive / (hierarchical + queries), 0)
              << "x (paper: 466 days -> hours; checksum "
              << TextTable::num(checksum, 0) << ")\n";

    bench::BenchReport json("motivation");
    json.setInfo("experiment",
                 "exhaustive vs hierarchical evaluation cost");
    json.setMetric("seconds.exhaustive.projected", exhaustive);
    json.setMetric("seconds.hierarchical", hierarchical);
    json.setMetric("seconds.model.queries", queries);
    json.setMetric("speedup", exhaustive / (hierarchical + queries));
    json.addTable(table);
    return bench::writeReport(json, json_out) ? 0 : 1;
}
