/**
 * @file
 * Cache-subsystem evaluators: single-pass simulation banks plus the
 * dilation-model estimators, one evaluator per cache type.
 *
 * Each evaluator captures the *reference processor's* trace once
 * (feeding the trace modeler as it goes) and sweeps it once through
 * its bank (one Cheetah-style pass per line size the answers read),
 * after which the misses of any configuration in the space at any
 * dilation are available without further simulation — the paper's
 * central efficiency claim. Only the I-cache model reads contracted
 * line sizes, so only its bank simulates lines the space does not
 * list. A walk sweeps the three banks of a trace-equivalence class in
 * one lane loop (MemoryWalker::evaluate), then freezes each bank into
 * flat tables (FrozenBank) that every query reads.
 */

#ifndef PICO_DSE_EVALUATORS_HPP
#define PICO_DSE_EVALUATORS_HPP

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/SetResidentSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "core/DilationModel.hpp"
#include "core/TraceModel.hpp"
#include "dse/CacheSpace.hpp"
#include "dse/Pareto.hpp"
#include "dse/ReferenceSet.hpp"
#include "support/CancelToken.hpp"
#include "support/ThreadPool.hpp"
#include "trace/ColumnarTrace.hpp"

namespace pico::dse
{

/**
 * A type-erased address-trace producer: invoked with a sink, it
 * streams every Access of the trace into it.
 */
using TraceSink = std::function<void(const trace::Access &)>;
using TraceSource = std::function<void(const TraceSink &)>;

/**
 * Bank of single-pass simulators over one cache space.
 *
 * Its Cheetah simulators cover what the evaluator's model reads. The
 * I-cache dilation model interpolates at contracted line sizes
 * (Lemma 1, equation 4.12), so ContractedLines covers every
 * power-of-two line size from minCoveredLine up to the space's
 * largest line, over the space's whole set-count range. The D-cache
 * estimate is the simulated count itself (equation 4.1) and the
 * unified estimate scales the count at the configuration's own line
 * size (equations 4.13–4.15), so Enumerated builds one simulator per
 * line size the space lists, over only the set counts and
 * associativities the space enumerates at that line; a configuration
 * outside that band is not covered.
 *
 * Designs are routed by replacement policy: LRU (a stack algorithm)
 * reads misses from the Cheetah single-pass simulators; FIFO and
 * random (not stack algorithms) read them from DEW-style
 * set-resident simulators, one per (line size, policy) over the
 * space's enumerated line sizes. Each set-resident simulator holds
 * only the (sets, assoc) geometries the space enumerates at its line
 * size, so a non-LRU geometry the space does not list is not
 * covered. The set-resident bank — which also carries dirty bits, so
 * it reports write-back traffic — is built only when the space's
 * policy axes are extended; classic LRU/WB spaces pay nothing and
 * stay bit-identical.
 */
class SimBank
{
  public:
    /** Smallest line size simulated (one word). */
    static constexpr uint32_t minCoveredLine = 4;

    /** Which configurations the Cheetah simulators cover. */
    using Coverage = dse::Coverage;

    explicit SimBank(const CacheSpace &space,
                     Coverage coverage = Coverage::ContractedLines);

    /** One bank and the capture it sweeps. */
    struct Sweep
    {
        SimBank *bank;
        const trace::ColumnarTraceBuffer *trace;
    };

    /**
     * Run every simulator of every bank over its capture, in one loop
     * over lanes. A lane decodes every block of its capture once, in
     * capture order, and feeds the decoded span to its simulators.
     * With no pool workers (null/zero-worker pool) each bank is one
     * lane; with workers each simulator gets its own lane and decode
     * scratch. Either way each simulator sees the identical address
     * sequence, so miss counts are independent of the schedule. The cancel token is
     * checked once per encoded block; cancellation unwinds with
     * CancelledError and leaves the banks unusable for misses()
     * queries (the caller discards them).
     */
    static void simulate(std::span<const Sweep> sweeps,
                         support::ThreadPool *pool,
                         const support::CancelToken *cancel = nullptr);

    /** simulate() of this bank alone. */
    void simulate(const trace::ColumnarTraceBuffer &buffer,
                  support::ThreadPool *pool,
                  const support::CancelToken *cancel = nullptr);

    /** Simulated reference-trace misses of a covered config. */
    double misses(const cache::CacheConfig &config) const;

    /**
     * Simulated memory writes of a covered config under its write
     * policy: dirty-line writebacks for write-back, the trace's
     * store count for write-through. In a non-extended space (no
     * set-resident bank) write traffic is not modeled and this
     * returns 0 — consistent with the classic read-only stall model.
     */
    double writeTraffic(const cache::CacheConfig &config) const;

    /** Store references in the simulated trace (extended only). */
    uint64_t stores() const;

    /** True when the configuration is covered. */
    bool covers(const cache::CacheConfig &config) const;

    /** True when a set-resident (policy) bank was built. */
    bool extended() const { return !policySims_.empty(); }

    /** Number of independent single-pass simulations (line sizes
     *  plus, in extended spaces, set-resident passes). */
    size_t simRuns() const { return sims_.size() + policySims_.size(); }

    uint64_t
    accesses() const
    {
        return sims_.empty() ? 0 : sims_.front().accesses();
    }

    /**
     * The swept bank's answers as flat tables: the miss count of
     * every covered configuration, the write-back count of every
     * set-resident geometry, and the access and store counts.
     */
    FrozenBank freeze() const;

  private:
    /** Metric and span name of simulator i (Cheetah sims first). */
    std::string simTag(size_t i) const;

    /** Feed one decoded block to simulator i. */
    void accessBlock(size_t i, const trace::BlockView &view);

    BankLayout layout_;
    std::vector<cache::SinglePassSim> sims_;
    /**
     * Set-resident simulators for the extended policy axes, one per
     * (enumerated line size, replacement policy) — including LRU,
     * whose *misses* still come from sims_ but whose write-back
     * traffic needs the dirty-bit model.
     */
    std::vector<cache::SetResidentSim> policySims_;
};

/**
 * What the three cache evaluators share: a cache space, its simulator
 * bank, the captured reference trace and the bank's frozen answers.
 * Each evaluator is a trace sink: operator() captures one reference
 * (feeding the serial trace modeler, if any). evaluate() captures a
 * whole trace, then sweeps the bank over it once, on a pool if given
 * (results are identical without one), and freezes the bank;
 * MemoryWalker::evaluate instead captures all three evaluators from
 * one trace and sweeps their banks in one lane loop. A cancel token
 * aborts with CancelledError and leaves the evaluator not evaluated.
 *
 * Every query reads the frozen tables. An evaluator built from a
 * frozen bank (a ReferenceSet found in the evaluation cache) answers
 * the same queries but has no bank and no capture.
 */
class SubsystemEvaluator
{
  public:
    /** Simulated memory writes of a configuration (see SimBank). */
    double writeTraffic(const cache::CacheConfig &config) const;

    const CacheSpace &space() const { return space_; }
    bool evaluated() const { return evaluated_; }

    /** The live bank; fatal() when built from a frozen bank. */
    const SimBank &bank() const;

    /** The frozen answers every query reads (once evaluated). */
    const FrozenBank &frozen() const;

    /** The captured (columnar-compressed) reference trace; fatal()
     *  when built from a frozen bank. */
    const trace::ColumnarTraceBuffer &capturedTrace() const;

  protected:
    SubsystemEvaluator(CacheSpace space, Coverage coverage);

    /** An evaluated evaluator over frozen answers (no bank). */
    SubsystemEvaluator(CacheSpace space, FrozenBank frozen);

    /**
     * Sweep the evaluators' captures through their banks in one
     * SimBank::simulate lane loop, under the span evaluate.sweep, then
     * freeze each bank, fit each one's trace models and mark it
     * evaluated.
     */
    static void sweep(std::initializer_list<SubsystemEvaluator *> evaluators,
                      support::ThreadPool *pool,
                      const support::CancelToken *cancel);

    /** Fit the trace models fed during capture, after the sweep. */
    virtual void fit() {}

    /**
     * Pareto set over the space, ids prefixed; a point's time is
     * miss_time(config) plus write traffic weighted by write_cost.
     */
    ParetoSet paretoOver(
        const char *prefix,
        const std::function<double(const cache::CacheConfig &)>
            &miss_time,
        double write_cost) const;

    CacheSpace space_;
    /** Null when built from a frozen bank. */
    std::unique_ptr<SimBank> bank_;
    trace::ColumnarTraceBuffer trace_;
    FrozenBank frozen_;
    bool evaluated_ = false;

    /** Sweeps its three evaluators in one lane loop. */
    friend class MemoryWalker;
};

/** Instruction-cache evaluator (simulation + dilation model). */
class IcacheEvaluator : public SubsystemEvaluator
{
  public:
    /** The dilation model reads contracted line sizes (Lemma 1). */
    static constexpr Coverage coverage = Coverage::ContractedLines;

    explicit IcacheEvaluator(CacheSpace space,
                             uint64_t granule_refs =
                                 core::defaultIGranule);

    /** An evaluated evaluator over a frozen bank and parameters. */
    IcacheEvaluator(CacheSpace space, FrozenBank frozen,
                    core::ComponentParams params);

    /** Capture one reference of the reference instruction trace. */
    void operator()(const trace::Access &a);

    /** Capture the whole reference instruction trace, sweep it and
     *  fit the instruction trace model. */
    void evaluate(const TraceSource &ref_instr_trace,
                  support::ThreadPool *pool = nullptr,
                  const support::CancelToken *cancel = nullptr);

    /**
     * Misses of a configuration at a dilation; dilation 1 returns
     * the simulated count exactly. Non-LRU designs at dilation != 1
     * scale their simulated count by the dilation model's LRU-twin
     * ratio (the model itself is derived for stack algorithms).
     */
    double misses(const cache::CacheConfig &config,
                  double dilation) const;

    /** Pareto set over the space at one dilation; time is misses
     *  weighted by the L1-miss penalty plus write traffic weighted
     *  by the (default 0) write cost. */
    ParetoSet pareto(double dilation, double miss_penalty,
                     double write_cost = 0.0) const;

    const core::ComponentParams &params() const { return params_; }

  private:
    void fit() override;

    /** Fed during capture; dropped once fit() has set params_, so
     *  its granule buffers do not stay resident with the walker. */
    std::optional<core::ItraceModeler> modeler_;
    core::ComponentParams params_;
};

/** Data-cache evaluator (simulation only; equation 4.1). */
class DcacheEvaluator : public SubsystemEvaluator
{
  public:
    static constexpr Coverage coverage = Coverage::Enumerated;

    explicit DcacheEvaluator(CacheSpace space);

    /** An evaluated evaluator over a frozen bank. */
    DcacheEvaluator(CacheSpace space, FrozenBank frozen);

    /** Capture one reference of the reference data trace. */
    void operator()(const trace::Access &a);

    /** Capture the whole reference data trace, then sweep it. */
    void evaluate(const TraceSource &ref_data_trace,
                  support::ThreadPool *pool = nullptr,
                  const support::CancelToken *cancel = nullptr);

    /** Misses of a configuration (dilation independent). */
    double misses(const cache::CacheConfig &config) const;

    ParetoSet pareto(double miss_penalty,
                     double write_cost = 0.0) const;
};

/** Unified-cache evaluator (simulation + equations 4.13–4.15). */
class UcacheEvaluator : public SubsystemEvaluator
{
  public:
    static constexpr Coverage coverage = Coverage::Enumerated;

    explicit UcacheEvaluator(CacheSpace space,
                             uint64_t granule_refs =
                                 core::defaultUGranule);

    /** An evaluated evaluator over a frozen bank and parameters. */
    UcacheEvaluator(CacheSpace space, FrozenBank frozen,
                    core::ComponentParams instr_params,
                    core::ComponentParams data_params);

    /** Capture one reference of the reference unified trace. */
    void operator()(const trace::Access &a);

    /** Capture the whole reference unified trace, sweep it and fit
     *  both components' trace models. */
    void evaluate(const TraceSource &ref_unified_trace,
                  support::ThreadPool *pool = nullptr,
                  const support::CancelToken *cancel = nullptr);

    double misses(const cache::CacheConfig &config,
                  double dilation) const;

    ParetoSet pareto(double dilation, double miss_penalty,
                     double write_cost = 0.0) const;

    const core::ComponentParams &instrParams() const { return iParams_; }
    const core::ComponentParams &dataParams() const { return dParams_; }

  private:
    void fit() override;

    /** Fed during capture; dropped once fit() has set both
     *  (see IcacheEvaluator::modeler_). */
    std::optional<core::UtraceModeler> modeler_;
    core::ComponentParams iParams_;
    core::ComponentParams dParams_;
};

} // namespace pico::dse

#endif // PICO_DSE_EVALUATORS_HPP
