/**
 * @file
 * Policy-sweep efficiency guard: FIFO and random replacement break
 * LRU's stack property, so the extended design-space axes route to
 * the set-resident simulator (one trace pass covering every
 * geometry of a line size) instead of one CacheSim run per
 * configuration. This bench times both sides over the same trace
 * and geometry grid, cross-checks that every cell's misses and
 * writebacks agree bit-for-bit (the differential guarantee the
 * policy-matrix suite proves in miniature), and reports the
 * one-pass-vs-per-config speedup the CI gate keeps honest.
 *
 * Emits BENCH_policy_sweep.json.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "cache/CacheSim.hpp"
#include "cache/Policy.hpp"
#include "cache/SetResidentSim.hpp"
#include "machine/MachineDesc.hpp"
#include "support/Metrics.hpp"
#include "trace/TraceGenerator.hpp"

using namespace pico;

namespace
{

constexpr uint32_t minSets = 16;
constexpr uint32_t maxSets = 256;
constexpr uint32_t maxAssoc = 4;
constexpr uint32_t lineSizes[] = {16, 32};
constexpr cache::ReplacementPolicy policies[] = {
    cache::ReplacementPolicy::FIFO,
    cache::ReplacementPolicy::Random};

/** The timed geometry grid: every (sets, assoc) of the ranges. */
std::vector<cache::SetResidentSim::Geometry>
grid()
{
    std::vector<cache::SetResidentSim::Geometry> out;
    for (uint32_t sets = minSets; sets <= maxSets; sets *= 2)
        for (uint32_t assoc = 1; assoc <= maxAssoc; ++assoc)
            out.push_back({sets, assoc});
    return out;
}

/** One all-geometry pass per (line size, policy), in ns. */
uint64_t
timedSetResident(const std::vector<trace::Access> &refs,
                 std::vector<cache::SetResidentSim> &out)
{
    out.clear();
    uint64_t start = support::monotonicNowNs();
    for (uint32_t line : lineSizes) {
        for (cache::ReplacementPolicy policy : policies) {
            out.emplace_back(line, grid(), policy);
            for (const auto &a : refs)
                out.back().access(a.addr, a.isWrite);
        }
    }
    return support::monotonicNowNs() - start;
}

/** One CacheSim run per configuration over the same grid, in ns. */
uint64_t
timedOracle(const std::vector<trace::Access> &refs,
            std::vector<cache::CacheSim> &out)
{
    out.clear();
    uint64_t start = support::monotonicNowNs();
    for (uint32_t line : lineSizes) {
        for (cache::ReplacementPolicy policy : policies) {
            for (uint32_t sets = minSets; sets <= maxSets;
                 sets *= 2) {
                for (uint32_t assoc = 1; assoc <= maxAssoc;
                     ++assoc) {
                    cache::CacheConfig cfg{
                        sets, assoc, line, 1, policy,
                        cache::WritePolicy::WriteBack};
                    out.emplace_back(cfg);
                    for (const auto &a : refs)
                        out.back()(a);
                }
            }
        }
    }
    return support::monotonicNowNs() - start;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_out = bench::extractJsonOutArg(argc, argv);
    const std::string app_name =
        argc > 1 ? argv[1] : "matmul-tile8";
    constexpr int reps = 3;
    constexpr uint64_t blocks = 20000;

    std::cout << "policy sweep: data trace of '" << app_name
              << "', all " << "FIFO/random geometries in one pass "
              << "vs one oracle run per config, best of " << reps
              << "\n";

    auto prog = workloads::buildAndProfile(
        workloads::specByName(app_name), bench::profileBlocks);
    auto ref = workloads::buildFor(
        prog, machine::MachineDesc::fromName("1111"));
    trace::TraceGenerator gen(prog, ref.sched, ref.bin);
    std::vector<trace::Access> refs;
    gen.generate(
        trace::TraceKind::Data,
        [&](const trace::Access &a) { refs.push_back(a); }, blocks);

    std::vector<cache::SetResidentSim> fast;
    std::vector<cache::CacheSim> oracle;
    uint64_t fast_ns = UINT64_MAX, oracle_ns = UINT64_MAX;
    for (int i = 0; i < reps; ++i) {
        fast_ns = std::min(fast_ns, timedSetResident(refs, fast));
        oracle_ns = std::min(oracle_ns, timedOracle(refs, oracle));
    }

    // Differential cross-check: the timing comparison is only fair
    // if both sides computed the same answer.
    size_t cell = 0, configs = 0;
    for (const auto &sim : fast) {
        for (uint32_t sets = minSets; sets <= maxSets; sets *= 2) {
            for (uint32_t assoc = 1; assoc <= maxAssoc; ++assoc) {
                const auto &ref_sim = oracle[cell++];
                ++configs;
                if (sim.misses(sets, assoc) != ref_sim.misses() ||
                    sim.writebacks(sets, assoc) !=
                        ref_sim.writebacks()) {
                    std::cerr << "FATAL: set-resident and oracle "
                              << "disagree at sets=" << sets
                              << " assoc=" << assoc << " line="
                              << sim.lineBytes() << " policy="
                              << cache::replacementName(
                                     sim.policy())
                              << "\n";
                    return 1;
                }
            }
        }
    }

    double speedup =
        fast_ns > 0 ? static_cast<double>(oracle_ns) /
                          static_cast<double>(fast_ns)
                    : 1.0;

    TextTable table("All-geometry pass vs per-config oracle");
    table.setHeader({"side", "passes", "best ns"});
    table.addRow({"set-resident", std::to_string(fast.size()),
                  std::to_string(fast_ns)});
    table.addRow({"oracle", std::to_string(configs),
                  std::to_string(oracle_ns)});
    table.print(std::cout);
    std::cout << "\nspeedup: " << TextTable::num(speedup, 2) << "x ("
              << configs << " configs, " << refs.size()
              << " refs)\n";

    bench::BenchReport json("policy_sweep");
    json.setInfo("app", app_name);
    json.setInfo("path", "SetResidentSim::access vs per-config "
                         "CacheSim");
    json.setMetric("reps", static_cast<uint64_t>(reps));
    json.setMetric("refs", static_cast<uint64_t>(refs.size()));
    json.setMetric("configs", static_cast<uint64_t>(configs));
    json.setMetric("ns.setresident", fast_ns);
    json.setMetric("ns.oracle", oracle_ns);
    json.setMetric("setresident_vs_oracle_speedup", speedup);
    json.addTable(table);
    if (!bench::writeReport(json, json_out))
        return 1;
    return 0;
}
