/**
 * @file
 * Memory walker and system spacewalker (paper sections 3.2 and 5).
 *
 * The MemoryWalker owns the three cache-subsystem evaluators and
 * composes inclusion-feasible hierarchies; thanks to the additive
 * stall model, the hierarchy Pareto set is built from the product of
 * the subsystem Pareto sets.
 *
 * The Spacewalker drives the whole exploration for one application:
 * it compiles the program for every machine in the processor space,
 * measures each machine's text dilation against the reference
 * processor, simulates the caches *once* on the reference traces,
 * and produces processor, memory and complete-system Pareto sets.
 * The frozen reference simulations of each trace-equivalence class
 * (a ReferenceSet) are one evaluation-cache entry, so a later walk of
 * the class skips the reference build, emulation and sweeps.
 */

#ifndef PICO_DSE_SPACEWALKER_HPP
#define PICO_DSE_SPACEWALKER_HPP

#include <map>
#include <string>
#include <vector>

#include "dse/EvaluationCache.hpp"
#include "dse/Evaluators.hpp"
#include "dse/FailureLog.hpp"
#include "dse/Pareto.hpp"
#include "ir/Program.hpp"
#include "machine/MachineDesc.hpp"
#include "support/ThreadPool.hpp"
#include "verify/Diagnostics.hpp"

namespace pico::dse
{

/** Latency parameters of the additive stall model. */
struct StallModel
{
    double l2HitLatency = 10.0;
    double memoryLatency = 80.0;
    /**
     * Stall cycles per memory write (dirty-line writeback or store
     * write-through). The default 0 keeps the classic read-only
     * stall model bit-identical; write traffic only differentiates
     * designs when this is set and the spaces enable policy axes.
     */
    double writeCost = 0.0;
};

/**
 * EvaluationCache key of one machine's per-design metrics within one
 * walk. The key embeds everything the cached value vector depends
 * on: program identity, machine, the data-cache port axis — and,
 * when any cache space extends the policy axes, the replacement/
 * write-policy axes, so entries cached by a classic LRU walk are
 * never served to an extended walk (or vice versa). Classic-space
 * keys are byte-identical to the historical schema, so old caches
 * keep hitting.
 */
std::string procMetricsKey(const std::string &prog_name,
                           uint64_t seed,
                           const std::string &machine_name,
                           const MemorySpaces &spaces);

/**
 * EvaluationCache key of one class's ReferenceSet: `ref;` plus the
 * program identity (name and seed, as procMetricsKey assumes), the
 * trace budget, both AHH granules, the reference machine (with `p`
 * for the predicated class), every size/assoc/line/replacement/write
 * axis of the three spaces and the set's layout version. It names no
 * stall parameter and no port count: the set depends on neither.
 */
std::string referenceKey(const std::string &prog_name, uint64_t seed,
                         uint64_t trace_blocks, uint64_t i_granule,
                         uint64_t u_granule,
                         const std::string &reference_machine,
                         const MemorySpaces &spaces);

/** Walks the memory design space for one reference trace set. */
class MemoryWalker
{
  public:
    MemoryWalker(MemorySpaces spaces, StallModel stalls,
                 uint64_t i_granule = core::defaultIGranule,
                 uint64_t u_granule = core::defaultUGranule);

    /**
     * A walker answering from a frozen set: evaluated, with no banks
     * and no captures (see SubsystemEvaluator::bank()).
     */
    MemoryWalker(MemorySpaces spaces, StallModel stalls,
                 const ReferenceSet &set);

    /**
     * Evaluate all three subsystems from one reference unified
     * trace: each reference goes to the I or D capture as its
     * isInstr bit says, and always to the U capture. Then the three
     * banks sweep their captures in one lane loop, on the attached
     * pool if any, and each bank is frozen. This is the only way to
     * sweep a trace-equivalence class. A cancel token aborts with
     * CancelledError; the walker is then only partially evaluated and
     * must be discarded.
     */
    void evaluate(const TraceSource &unified_trace,
                  const support::CancelToken *cancel = nullptr);

    /**
     * The evaluated walker's frozen answers, with the reference
     * binary's text size (which the walker does not know).
     */
    ReferenceSet freeze(uint64_t reference_text_bytes) const;

    /**
     * Attach (or detach, with nullptr) the pool used by evaluate()
     * and pareto(). The walker never owns the pool; results are
     * identical with and without one.
     */
    void setThreadPool(support::ThreadPool *pool) { pool_ = pool; }

    /** Stall cycles of one hierarchy at one dilation. */
    double stallCycles(const cache::CacheConfig &icache,
                       const cache::CacheConfig &dcache,
                       const cache::CacheConfig &ucache,
                       double dilation) const;

    /**
     * Pareto set of hierarchies at one dilation: cost is the summed
     * cache area, time the summed stall cycles. Built from the
     * product of subsystem Pareto sets (valid because both metrics
     * are additive), filtered for inclusion feasibility.
     *
     * @param dilation text dilation of the processor under study
     * @param dcache_ports restrict data caches to this port count
     *        (0 = no restriction); the paper's Pareto sets are
     *        parameterized by cache port constraints
     * @param failures when given, a cache configuration whose
     *        evaluation fails is recorded there and skipped instead
     *        of aborting the whole Pareto construction; without a
     *        log the error propagates (the historical behavior)
     * @param cancel when given, checked per subspace configuration;
     *        cancellation always propagates as CancelledError, even
     *        with a failure log (a deadline is not a design failure)
     */
    ParetoSet pareto(double dilation, uint32_t dcache_ports = 0,
                     FailureLog *failures = nullptr,
                     const support::CancelToken *cancel =
                         nullptr) const;

    const IcacheEvaluator &icache() const { return icacheEval_; }
    const DcacheEvaluator &dcache() const { return dcacheEval_; }
    const UcacheEvaluator &ucache() const { return ucacheEval_; }
    const StallModel &stalls() const { return stalls_; }

  private:
    MemorySpaces spaces_;
    StallModel stalls_;
    IcacheEvaluator icacheEval_;
    DcacheEvaluator dcacheEval_;
    UcacheEvaluator ucacheEval_;
    support::ThreadPool *pool_ = nullptr;
};

/** Result bundle of a full system exploration. */
struct ExplorationResult
{
    ParetoSet processors;
    ParetoSet systems;
    /** Text dilation per machine name. */
    std::map<std::string, double> dilations;
    /** Processor cycles per machine name. */
    std::map<std::string, uint64_t> processorCycles;
    /** Designs evaluated successfully. */
    uint64_t evaluatedDesigns = 0;
    /** Per-design failures the walk survived (empty = complete). */
    FailureLog failures;
    /**
     * Findings of the verification passes (empty when verification
     * was off). Verification never mutates the results above — the
     * Pareto sets, dilations and cache bytes of a verified walk are
     * bit-identical to an unverified one.
     */
    verify::Diagnostics diagnostics;
    /**
     * True when the walk was cut short by Options::cancel (explicit
     * cancel or expired deadline). The Pareto sets cover only the
     * designs that finished before the cut; every design the
     * deadline claimed is in the FailureLog under stage "deadline",
     * so the conservation invariant (failures + evaluated accounts
     * for every design) holds for partial walks too.
     */
    bool deadlineExceeded = false;

    /** True when every design of the walk evaluated cleanly. */
    bool complete() const { return failures.empty(); }
};

/** Exploration driver for one application. */
class Spacewalker
{
  public:
    struct Options
    {
        /** Block-entry budget for reference-trace generation. */
        uint64_t traceBlocks = 60000;
        StallModel stalls;
        /** Reference machine (paper: the narrow 1111). */
        std::string referenceMachine = "1111";
        /** AHH granule sizes (references per granule). */
        uint64_t iGranule = core::defaultIGranule;
        uint64_t uGranule = 100000;
        /**
         * Path of the persistent evaluation-cache database; empty
         * keeps per-machine metrics (dilation, cycles) and each
         * class's reference set in memory only. With a path,
         * repeated explorations skip the compile/assemble/link of
         * machines already evaluated and the reference simulations
         * of classes already swept — the paper's EvaluationCache
         * layer (section 5.1).
         */
        std::string evaluationCachePath;
        /**
         * Checkpoint the evaluation cache every N successfully
         * evaluated designs (0 = only at the end of explore()), so
         * an interrupted run resumes from the last checkpoint
         * instead of losing the whole walk.
         */
        uint64_t checkpointEvery = 8;
        /**
         * Rethrow per-design failures instead of recording them in
         * the FailureLog and continuing (debugging aid). In a
         * parallel walk the failure of the *earliest* design in
         * walk order is the one rethrown, matching the serial walk.
         */
        bool haltOnFailure = false;
        /**
         * Worker threads of the exploration (the --jobs knob):
         * 1 = serial (the default), N = N-way parallel, 0 = one per
         * hardware thread. Results — Pareto sets, failure ordering,
         * evaluation-cache bytes — are identical for every value.
         */
        unsigned jobs = 1;
        /**
         * Run the verification passes (src/verify) at the walk's
         * phase boundaries: -1 = automatic (on in Debug builds, off
         * in Release), 0 = off, 1 = on. Findings land in
         * ExplorationResult::diagnostics and are summarized through
         * warn(); they never change the walk's results.
         */
        int verify = -1;
        /**
         * Share an externally owned evaluation cache instead of
         * constructing one from evaluationCachePath (ignored when
         * this is set, except as documentation of where the owner
         * persists it). The server runs many concurrent walks
         * against *one* crash-safe cache this way — two private
         * caches over the same file would overwrite each other's
         * entries at save time. The cache must outlive the walker.
         */
        EvaluationCache *sharedCache = nullptr;
        /**
         * Cooperative cancellation (null = run to completion). When
         * the token fires — an explicit cancel() or an expired
         * deadline — in-flight designs unwind at their next
         * checkpoint, untouched designs are skipped, and explore()
         * returns a *partial* result: completed designs keep their
         * Pareto points and cached metrics, claimed designs land in
         * the FailureLog under stage "deadline", and
         * ExplorationResult::deadlineExceeded is set. The token must
         * outlive explore(). Cancellation bypasses haltOnFailure (a
         * deadline is an answer, not a bug to halt on).
         */
        const support::CancelToken *cancel = nullptr;
    };

    Spacewalker(MemorySpaces spaces,
                std::vector<std::string> machine_names,
                Options options);

    /** Default-options overload. */
    Spacewalker(MemorySpaces spaces,
                std::vector<std::string> machine_names)
        : Spacewalker(std::move(spaces), std::move(machine_names),
                      Options())
    {}

    /**
     * Explore processors x memory hierarchies for one profiled
     * program.
     */
    ExplorationResult explore(const ir::Program &prog);

    /** The memory walker of the last exploration. */
    const MemoryWalker &memoryWalker() const;

    /** The evaluation cache (hit/miss statistics, persistence). */
    const EvaluationCache &
    evaluationCache() const
    {
        return options_.sharedCache != nullptr ? *options_.sharedCache
                                               : cache_;
    }

  private:
    /** The cache in use: the shared one when attached, else ours. */
    EvaluationCache &
    cacheRef()
    {
        return options_.sharedCache != nullptr ? *options_.sharedCache
                                               : cache_;
    }

    MemorySpaces spaces_;
    std::vector<std::string> machineNames_;
    Options options_;
    std::unique_ptr<MemoryWalker> memory_;
    EvaluationCache cache_;
};

} // namespace pico::dse

#endif // PICO_DSE_SPACEWALKER_HPP
