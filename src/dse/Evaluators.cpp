#include "dse/Evaluators.hpp"

#include "support/Logging.hpp"
#include "support/TraceEvents.hpp"

namespace pico::dse
{

SimBank::SimBank(const CacheSpace &space, Coverage coverage)
    : layout_(space, coverage)
{
    for (const auto &s : layout_.stacks)
        sims_.emplace_back(s.line, s.minSets, s.maxSets, s.maxAssoc);
    for (const auto &r : layout_.residents)
        policySims_.emplace_back(r.line, r.shapes, r.policy);
}

std::string
SimBank::simTag(size_t i) const
{
    if (i < sims_.size())
        return "line" + std::to_string(sims_[i].lineBytes());
    const auto &sim = policySims_[i - sims_.size()];
    return std::string(cache::replacementName(sim.policy())) +
           ".line" + std::to_string(sim.lineBytes());
}

void
SimBank::accessBlock(size_t i, const trace::BlockView &view)
{
    if (i < sims_.size())
        sims_[i].accessBlock(view.addrs, view.count);
    else
        policySims_[i - sims_.size()].accessBlock(view.addrs, view.kinds,
                                                  view.count);
}

void
SimBank::simulate(std::span<const Sweep> sweeps,
                  support::ThreadPool *pool,
                  const support::CancelToken *cancel)
{
    // A lane owns a range of one bank's simulators (set-resident ones
    // after the Cheetah ones) plus a private decode scratch, so lanes
    // share only the immutable encoded blocks and need no merge step.
    // The single fused lane per bank is the paper's single pass taken
    // one level further: one decode per block for the whole bank.
    // With workers, every simulator of every bank is a lane of the
    // same loop, so the banks share one barrier.
    struct Lane
    {
        const Sweep *sweep;
        size_t first;
        size_t last;
    };
    const bool fused = pool == nullptr || pool->workers() == 0;
    std::vector<Lane> lanes;
    for (const Sweep &s : sweeps) {
        const size_t count = s.bank->simRuns();
        if (fused)
            lanes.push_back({&s, 0, count});
        else
            for (size_t i = 0; i < count; ++i)
                lanes.push_back({&s, i, i + 1});
    }
    support::parallelFor(lanes.size(), pool, [&](size_t l) {
        const Lane &lane = lanes[l];
        SimBank &bank = *lane.sweep->bank;
        const trace::ColumnarTraceBuffer &buffer = *lane.sweep->trace;
        support::TimedSpan span(
            fused ? "sweep.fused" : "sweep." + bank.simTag(lane.first),
            "sweep");
        trace::BlockScratch scratch;
        for (size_t b = 0; b < buffer.blockCount(); ++b) {
            if (cancel != nullptr)
                cancel->checkpoint("SimBank::simulate");
            trace::BlockView view = buffer.decodeBlock(b, scratch);
            for (size_t i = lane.first; i < lane.last; ++i)
                bank.accessBlock(i, view);
        }
    });
    // Counted per simulator, keyed by line size (and policy) — the
    // unit the paper's efficiency claim is stated in — and the same
    // at every job count.
    for (const Sweep &s : sweeps) {
        PICO_METRIC_COUNT("sweep.runs", s.bank->simRuns());
        if (support::metricsEnabled()) {
            for (size_t i = 0; i < s.bank->simRuns(); ++i)
                support::metrics()
                    .counter("sweep." + s.bank->simTag(i) + ".accesses")
                    .add(s.trace->size());
        }
    }
}

void
SimBank::simulate(const trace::ColumnarTraceBuffer &buffer,
                  support::ThreadPool *pool,
                  const support::CancelToken *cancel)
{
    const Sweep sweep{this, &buffer};
    simulate(std::span<const Sweep>(&sweep, 1), pool, cancel);
}

uint64_t
SimBank::stores() const
{
    fatalIf(policySims_.empty(),
            "store counts need the set-resident bank (extended "
            "policy axes)");
    return policySims_.front().stores();
}

FrozenBank
SimBank::freeze() const
{
    std::vector<double> miss_table, writeback_table;
    miss_table.reserve(layout_.missCount());
    writeback_table.reserve(layout_.writebackCount());
    for (size_t k = 0; k < sims_.size(); ++k) {
        const auto &s = layout_.stacks[k];
        for (uint32_t sets = s.minSets; sets <= s.maxSets; sets *= 2) {
            for (uint32_t assoc = 1; assoc <= s.maxAssoc; ++assoc)
                miss_table.push_back(
                    static_cast<double>(sims_[k].misses(sets, assoc)));
        }
    }
    // LRU misses come from the stacks above; every resident's shapes
    // carry write-back counts.
    for (size_t k = 0; k < policySims_.size(); ++k) {
        const auto &r = layout_.residents[k];
        for (const auto &g : r.shapes) {
            if (r.policy != cache::ReplacementPolicy::LRU)
                miss_table.push_back(static_cast<double>(
                    policySims_[k].misses(g.sets, g.assoc)));
            writeback_table.push_back(static_cast<double>(
                policySims_[k].writebacks(g.sets, g.assoc)));
        }
    }
    return FrozenBank(layout_, accesses(), extended() ? stores() : 0,
                      std::move(miss_table), std::move(writeback_table));
}

// --- SubsystemEvaluator -----------------------------------------------

SubsystemEvaluator::SubsystemEvaluator(CacheSpace space,
                                       Coverage coverage)
    : space_(std::move(space)),
      bank_(std::make_unique<SimBank>(space_, coverage))
{}

SubsystemEvaluator::SubsystemEvaluator(CacheSpace space,
                                       FrozenBank frozen)
    : space_(std::move(space)), frozen_(std::move(frozen)),
      evaluated_(true)
{}

const SimBank &
SubsystemEvaluator::bank() const
{
    fatalIf(!bank_, "evaluator was built from a frozen reference set "
                    "and has no simulation bank");
    return *bank_;
}

const FrozenBank &
SubsystemEvaluator::frozen() const
{
    fatalIf(!evaluated_, "evaluator has not seen a trace yet");
    return frozen_;
}

const trace::ColumnarTraceBuffer &
SubsystemEvaluator::capturedTrace() const
{
    fatalIf(!bank_, "evaluator was built from a frozen reference set "
                    "and captured no trace");
    return trace_;
}

void
SubsystemEvaluator::sweep(
    std::initializer_list<SubsystemEvaluator *> evaluators,
    support::ThreadPool *pool, const support::CancelToken *cancel)
{
    std::vector<SimBank::Sweep> sweeps;
    for (SubsystemEvaluator *e : evaluators) {
        PICO_METRIC_COUNT("evaluate.captured.accesses", e->trace_.size());
        PICO_METRIC_COUNT("evaluate.captured.bytes",
                          e->trace_.encodedBytes());
        sweeps.push_back({e->bank_.get(), &e->trace_});
    }
    {
        support::TimedSpan span("evaluate.sweep", "evaluate");
        SimBank::simulate(sweeps, pool, cancel);
    }
    for (SubsystemEvaluator *e : evaluators) {
        e->frozen_ = e->bank_->freeze();
        e->fit();
        e->evaluated_ = true;
    }
}

double
SubsystemEvaluator::writeTraffic(const cache::CacheConfig &config) const
{
    return frozen().writeTraffic(config);
}

// --- IcacheEvaluator ---------------------------------------------------

IcacheEvaluator::IcacheEvaluator(CacheSpace space,
                                 uint64_t granule_refs)
    : SubsystemEvaluator(std::move(space), coverage),
      modeler_(std::in_place, granule_refs)
{}

IcacheEvaluator::IcacheEvaluator(CacheSpace space, FrozenBank frozen,
                                 core::ComponentParams params)
    : SubsystemEvaluator(std::move(space), std::move(frozen)),
      params_(params)
{}

void
IcacheEvaluator::operator()(const trace::Access &a)
{
    trace_(a);
    modeler_->access(a);
}

void
IcacheEvaluator::fit()
{
    params_ = modeler_->params();
    modeler_.reset();
}

double
IcacheEvaluator::misses(const cache::CacheConfig &config,
                        double dilation) const
{
    const FrozenBank &bank = frozen();
    if (dilation == 1.0)
        return bank.misses(config);
    core::DilationModel model(params_, params_, params_);
    if (config.replacement == cache::ReplacementPolicy::LRU)
        return model.estimateIcacheMisses(config, dilation,
                                          bank.oracle());
    // The dilation model reasons over LRU stack behavior
    // (contracted line sizes against the Cheetah oracle). For
    // non-stack policies, apply the model's *relative* dilation
    // effect — estimated on the LRU twin of the same geometry — to
    // the policy's own simulated count.
    cache::CacheConfig twin = config;
    twin.replacement = cache::ReplacementPolicy::LRU;
    twin.write = cache::WritePolicy::WriteBack;
    double twin_sim = bank.misses(twin);
    double twin_est = model.estimateIcacheMisses(twin, dilation,
                                                 bank.oracle());
    double scale = twin_sim > 0.0 ? twin_est / twin_sim : 1.0;
    return bank.misses(config) * scale;
}

// --- DcacheEvaluator ---------------------------------------------------

DcacheEvaluator::DcacheEvaluator(CacheSpace space)
    : SubsystemEvaluator(std::move(space), coverage)
{}

DcacheEvaluator::DcacheEvaluator(CacheSpace space, FrozenBank frozen)
    : SubsystemEvaluator(std::move(space), std::move(frozen))
{}

void
DcacheEvaluator::operator()(const trace::Access &a)
{
    trace_(a);
}

double
DcacheEvaluator::misses(const cache::CacheConfig &config) const
{
    return frozen().misses(config);
}

// --- UcacheEvaluator ---------------------------------------------------

UcacheEvaluator::UcacheEvaluator(CacheSpace space,
                                 uint64_t granule_refs)
    : SubsystemEvaluator(std::move(space), coverage),
      modeler_(std::in_place, granule_refs)
{}

UcacheEvaluator::UcacheEvaluator(CacheSpace space, FrozenBank frozen,
                                 core::ComponentParams instr_params,
                                 core::ComponentParams data_params)
    : SubsystemEvaluator(std::move(space), std::move(frozen)),
      iParams_(instr_params), dParams_(data_params)
{}

void
UcacheEvaluator::operator()(const trace::Access &a)
{
    trace_(a);
    modeler_->access(a);
}

void
UcacheEvaluator::fit()
{
    iParams_ = modeler_->instrParams();
    dParams_ = modeler_->dataParams();
    modeler_.reset();
}

double
UcacheEvaluator::misses(const cache::CacheConfig &config,
                        double dilation) const
{
    // The dilation estimate scales the simulated reference count
    // (equations 4.13–4.15), so routing the reference count by
    // replacement policy is all a non-LRU design needs.
    double ref_misses = frozen().misses(config);
    if (dilation == 1.0)
        return ref_misses;
    core::DilationModel model(iParams_, iParams_, dParams_);
    return model.estimateUcacheMisses(config, dilation, ref_misses);
}

} // namespace pico::dse
