/**
 * @file
 * Cache-subsystem evaluators: single-pass simulation banks plus the
 * dilation-model estimators, one evaluator per cache type.
 *
 * sweepReference is the one way in: it captures the *reference
 * processor's* unified trace once (feeding the trace modelers as it
 * goes) and sweeps three banks once, in one lane loop (one
 * Cheetah-style pass per line size the answers read), each bank over
 * the records it reads: instruction fetches for the I-cache, data
 * references for the D-cache, every record for the unified cache.
 * Each bank is then frozen into flat tables (FrozenBank) and dies with
 * the sweep. The frozen tables are the one way out: the misses of any
 * configuration in the space at any dilation are read from them
 * without further simulation — the paper's central efficiency claim.
 * Only the I-cache model reads contracted line sizes, so only its bank
 * simulates lines the space does not list.
 */

#ifndef PICO_DSE_EVALUATORS_HPP
#define PICO_DSE_EVALUATORS_HPP

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/SetResidentSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "core/DilationModel.hpp"
#include "core/TraceModel.hpp"
#include "dse/CacheSpace.hpp"
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
 * Bank of single-pass simulators over one cache space. The live bank
 * only sweeps; its answers are read from freeze()'s tables.
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
 * covered. Write-back traffic is modeled only when the space's
 * policy axes are extended: FIFO and random count it in their
 * set-resident simulators' dirty bits, LRU in the dirty-depth bytes
 * of the Cheetah stack at each line the layout lists an LRU resident
 * at. Classic LRU/WB spaces build no set-resident simulator and no
 * dirty bytes, and stay bit-identical.
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

    /** The records of a unified capture a bank reads. */
    enum class Records : uint8_t
    {
        All,
        Instructions,
        Data,
    };

    /** One bank and the records it reads. */
    struct Sweep
    {
        SimBank *bank;
        Records records;
    };

    /**
     * Run every simulator of every bank over the records it reads of
     * one capture, in one loop over lanes. A lane decodes every block
     * of the capture once, in capture order, selects each bank's
     * records from it and feeds them to the bank's simulators. With
     * no pool workers (null/zero-worker pool) one lane feeds every
     * bank; with workers each simulator gets its own lane and decode
     * scratch. Either way each simulator sees its records in capture
     * order, so miss counts are independent of the schedule. The
     * cancel token is checked once per encoded block; cancellation
     * unwinds with CancelledError and leaves the banks half swept
     * (the caller discards them).
     */
    static void simulate(const trace::ColumnarTraceBuffer &capture,
                         std::span<const Sweep> sweeps,
                         support::ThreadPool *pool,
                         const support::CancelToken *cancel = nullptr);

    /** simulate() of this bank alone, over every record. */
    void simulate(const trace::ColumnarTraceBuffer &buffer,
                  support::ThreadPool *pool,
                  const support::CancelToken *cancel = nullptr);

    /** Store references in the simulated trace (extended only). */
    uint64_t stores() const;

    /** True when the space's policy axes are extended. */
    bool extended() const { return !layout_.residents.empty(); }

    /** Number of independent single-pass simulations (line sizes
     *  plus, in extended spaces, FIFO and random set-resident
     *  passes). */
    size_t simRuns() const { return sims_.size() + policySims_.size(); }

    uint64_t
    accesses() const
    {
        return sims_.empty() ? 0 : sims_.front().accesses();
    }

    /**
     * The swept bank's answers as flat tables, written straight from
     * the simulators in BankLayout order: the miss count of every
     * covered configuration, the write-back count of every
     * resident geometry (LRU ones read from the stack of their
     * line), and the access and store counts.
     */
    FrozenBank freeze() const;

  private:
    /** Metric and span name of simulator i (Cheetah sims first). */
    std::string simTag(size_t i) const;

    /** Feed one decoded block to simulator i. */
    void accessBlock(size_t i, const trace::BlockView &view);

    BankLayout layout_;
    /** One per layout stack; those at a line the layout lists an LRU
     *  resident at also count write-backs. */
    std::vector<cache::SinglePassSim> sims_;
    /**
     * Set-resident simulators for the extended policy axes, one per
     * FIFO or random resident of the layout, in layout order.
     */
    std::vector<cache::SetResidentSim> policySims_;
};

/**
 * What the three cache evaluators share: a cache space, its bank's
 * frozen answers and, when this process swept the class, the class's
 * captured reference trace. Only a MemoryWalker builds evaluators,
 * from a ReferenceSet, and every query reads the frozen tables.
 */
class SubsystemEvaluator
{
  public:
    /** Simulated memory writes of a configuration (see FrozenBank). */
    double writeTraffic(const cache::CacheConfig &config) const;

    const CacheSpace &space() const { return space_; }

    /** The frozen answers every query reads. */
    const FrozenBank &bank() const { return bank_; }

    /** The class's one captured (columnar-compressed) unified trace,
     *  shared by its three evaluators; fatal() when the walker was
     *  built from a set found in the evaluation cache. */
    const trace::ColumnarTraceBuffer &capturedTrace() const;

  protected:
    SubsystemEvaluator(
        CacheSpace space, FrozenBank bank,
        std::shared_ptr<const trace::ColumnarTraceBuffer> capture);

    CacheSpace space_;
    FrozenBank bank_;
    /** Shared with the class's other evaluators; null when the set
     *  came from the evaluation cache. */
    std::shared_ptr<const trace::ColumnarTraceBuffer> trace_;
};

/** Instruction-cache evaluator (simulation + dilation model). */
class IcacheEvaluator : public SubsystemEvaluator
{
  public:
    /** The dilation model reads contracted line sizes (Lemma 1). */
    static constexpr Coverage coverage = Coverage::ContractedLines;

    /**
     * Misses of a configuration at a dilation; dilation 1 returns
     * the simulated count exactly. Non-LRU designs at dilation != 1
     * scale their simulated count by the dilation model's LRU-twin
     * ratio (the model itself is derived for stack algorithms).
     */
    double misses(const cache::CacheConfig &config,
                  double dilation) const;

    const core::ComponentParams &params() const { return params_; }

  private:
    IcacheEvaluator(
        CacheSpace space, FrozenBank bank, core::ComponentParams params,
        std::shared_ptr<const trace::ColumnarTraceBuffer> capture);

    core::ComponentParams params_;

    friend class MemoryWalker;
};

/** Data-cache evaluator (simulation only; equation 4.1). */
class DcacheEvaluator : public SubsystemEvaluator
{
  public:
    static constexpr Coverage coverage = Coverage::Enumerated;

    /** Misses of a configuration (dilation independent). */
    double misses(const cache::CacheConfig &config) const;

  private:
    DcacheEvaluator(
        CacheSpace space, FrozenBank bank,
        std::shared_ptr<const trace::ColumnarTraceBuffer> capture);

    friend class MemoryWalker;
};

/** Unified-cache evaluator (simulation + equations 4.13–4.15). */
class UcacheEvaluator : public SubsystemEvaluator
{
  public:
    static constexpr Coverage coverage = Coverage::Enumerated;

    double misses(const cache::CacheConfig &config,
                  double dilation) const;

    const core::ComponentParams &instrParams() const { return iParams_; }
    const core::ComponentParams &dataParams() const { return dParams_; }

  private:
    UcacheEvaluator(
        CacheSpace space, FrozenBank bank,
        core::ComponentParams instr_params,
        core::ComponentParams data_params,
        std::shared_ptr<const trace::ColumnarTraceBuffer> capture);

    core::ComponentParams iParams_;
    core::ComponentParams dParams_;

    friend class MemoryWalker;
};

/** One swept trace-equivalence class (see sweepReference). */
struct SweptReference
{
    /** The class's frozen answers; the caller fills in textBytes. */
    ReferenceSet set;
    /** The one capture the set was swept from. */
    std::shared_ptr<const trace::ColumnarTraceBuffer> capture;
};

/**
 * Sweep one trace-equivalence class, the only way to (see the file
 * comment): capture the unified trace once, fitting the I- and U-trace
 * models at the given granules, sweep a bank of each evaluator's
 * coverage over it in one lane loop on the pool (null: one fused
 * lane) and freeze the banks into the returned set. A cancel token
 * aborts with CancelledError, and nothing is returned.
 */
SweptReference
sweepReference(const MemorySpaces &spaces,
               const TraceSource &unified_trace, uint64_t i_granule,
               uint64_t u_granule, support::ThreadPool *pool,
               const support::CancelToken *cancel = nullptr);

} // namespace pico::dse

#endif // PICO_DSE_EVALUATORS_HPP
