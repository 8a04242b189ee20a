/**
 * @file
 * Experiment E6 — paper Figure 6: estimated versus dilated misses as
 * a function of dilation, for the gcc analogue.
 *
 * Left panel: instruction caches (1 KB direct-mapped and 16 KB
 * 2-way). Right panel: unified caches (16 KB 2-way and 128 KB
 * 4-way). "Dilated" is a real simulation of the dilated reference
 * trace; "Estimated" applies the AHH-based dilation model to
 * reference-trace simulations only. The paper finds the instruction
 * interpolation tracks closely over the whole range while the
 * unified extrapolation degrades for the small cache beyond d = 2.
 */

#include <iostream>

#include "bench/BenchCommon.hpp"
#include "cache/CacheSim.hpp"
#include "core/DilationModel.hpp"
#include "dse/Spacewalker.hpp"

using namespace pico;

namespace
{

std::vector<double>
dilationGrid()
{
    std::vector<double> grid;
    for (double d = 1.0; d <= 4.001; d += 0.25)
        grid.push_back(d);
    return grid;
}

void
icachePanel(const bench::AppContext &app, bench::BenchReport &json)
{
    // The oracle simulates the reference trace once per line size
    // via the single-pass bank covering both cache shapes. The walker
    // routes the unified trace's instruction references to its I$.
    dse::CacheSpace space;
    space.sizesBytes = {1024, 16384};
    space.assocs = {1, 2};
    space.lineSizes = {32};
    dse::MemoryWalker walker(dse::MemorySpaces{space, space, space},
                             dse::StallModel{}, bench::iGranule,
                             bench::uGranule);
    walker.evaluate([&app](const dse::TraceSink &sink) {
        for (const auto &a :
             app.traceFor("1111", trace::TraceKind::Unified))
            sink(a);
    });
    const dse::IcacheEvaluator &eval = walker.icache();

    TextTable table("Estimated and Dilated Icache Misses - gcc");
    table.setHeader({"dilation", "est 1KB", "dil 1KB", "est 16KB",
                     "dil 16KB"});
    for (double d : dilationGrid()) {
        auto small = bench::smallIcache();
        auto large = bench::largeIcache();
        table.addRow(
            {TextTable::num(d, 2),
             TextTable::num(eval.misses(small, d), 0),
             TextTable::num(
                 static_cast<double>(app.simulateDilated(
                     trace::TraceKind::Instruction, d, small)),
                 0),
             TextTable::num(eval.misses(large, d), 0),
             TextTable::num(
                 static_cast<double>(app.simulateDilated(
                     trace::TraceKind::Instruction, d, large)),
                 0)});
    }
    table.print(std::cout);
    std::cout << "\n";
    json.addTable(table);
}

void
ucachePanel(const bench::AppContext &app, bench::BenchReport &json)
{
    core::DilationModel model(app.instrParams(),
                              app.unifiedInstrParams(),
                              app.unifiedDataParams());
    auto small = bench::smallUcache();
    auto large = bench::largeUcache();
    auto ref_small = static_cast<double>(
        app.simulate("1111", trace::TraceKind::Unified, small));
    auto ref_large = static_cast<double>(
        app.simulate("1111", trace::TraceKind::Unified, large));

    TextTable table("Estimated and Dilated Ucache Misses - gcc");
    table.setHeader({"dilation", "est 16KB", "dil 16KB", "est 128KB",
                     "dil 128KB"});
    for (double d : dilationGrid()) {
        table.addRow(
            {TextTable::num(d, 2),
             TextTable::num(
                 model.estimateUcacheMisses(small, d, ref_small), 0),
             TextTable::num(
                 static_cast<double>(app.simulateDilated(
                     trace::TraceKind::Unified, d, small)),
                 0),
             TextTable::num(
                 model.estimateUcacheMisses(large, d, ref_large), 0),
             TextTable::num(
                 static_cast<double>(app.simulateDilated(
                     trace::TraceKind::Unified, d, large)),
                 0)});
    }
    table.print(std::cout);
    std::cout << "\n";
    json.addTable(table);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_out = bench::extractJsonOutArg(argc, argv);
    std::cout << "Figure 6: estimated and dilated misses versus "
                 "text dilation for 085.gcc\n\n";
    auto app = bench::buildApp("085.gcc");
    bench::BenchReport json("fig6");
    json.setInfo("experiment",
                 "estimated vs dilated misses (085.gcc)");
    icachePanel(app, json);
    ucachePanel(app, json);
    return bench::writeReport(json, json_out) ? 0 : 1;
}
