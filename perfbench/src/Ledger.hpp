/**
 * @file
 * Per-layer cost ledger of one design-space walk.
 *
 * The ledger re-runs the work of one Spacewalker::explore() through
 * the public entry points of each module, timing every call from the
 * benchmark's side: the reference build (Scheduler::schedule,
 * Assembler::assemble, Linker::link, chained as in buildFor), the
 * emulation of the I/D/U reference traces (TraceGenerator::generate),
 * their columnar capture (ColumnarTraceBuffer::append), AHH modeling
 * (Itrace/UtraceModeler::access), the cache sweeps
 * (SimBank::simulate), per-design compiles behind the evaluation
 * cache (EvaluationCache::getOrCompute), Pareto composition
 * (MemoryWalker::pareto) and the final flush. Those top-level layers
 * partition the walk; their sum against the untraced explore() wall
 * time is the ledger's check (dse.unattributed_frac).
 *
 * Sub-layers are timed too but are contained in a top-level layer and
 * not summed: trace.decode_ms (inside the sweeps), core.dilation_ms
 * (inside Pareto composition) and verify.ms (off in every workload).
 *
 * The per-design stage runs on a pool of the workload's jobs, as in
 * explore(); its wall time is split across the layers in proportion
 * to their summed thread time, so the ledger adds up to wall time at
 * any job count.
 */

#ifndef PERFBENCH_LEDGER_HPP
#define PERFBENCH_LEDGER_HPP

#include <map>
#include <string>
#include <vector>

#include "Bench.hpp"

namespace perfbench
{

/** Additive per-layer totals, keyed by metric name. */
using Ledger = std::map<std::string, double>;

/** The top-level layers whose times partition one walk. */
const std::vector<std::string> &topLevelLayers();

/**
 * Re-run one walk of `prog` layer by layer.
 * @param mem the evaluated memory walker of an explore() of the same
 *        program under the same settings (Pareto composition and the
 *        dilation estimates read it)
 * @param result that explore()'s result (verified, not changed)
 * @param cache_path fresh evaluation-cache file for this walk
 */
Ledger ledgerWalk(const pico::ir::Program &prog, const WalkSettings &ws,
                  const pico::dse::MemoryWalker &mem,
                  const pico::dse::ExplorationResult &result,
                  const std::string &cache_path);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HPP
