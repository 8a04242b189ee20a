#include "dse/Evaluators.hpp"

#include <algorithm>

#include "support/Logging.hpp"
#include "support/TraceEvents.hpp"

namespace pico::dse
{

namespace
{

bool
isLru(const BankLayout::Resident &r)
{
    return r.policy == cache::ReplacementPolicy::LRU;
}

} // namespace

SimBank::SimBank(const CacheSpace &space, Coverage coverage)
    : layout_(space, coverage)
{
    // An LRU resident's write-backs come from the stack of its line,
    // which covers every shape the space lists there.
    for (const auto &s : layout_.stacks) {
        const bool writebacks = std::any_of(
            layout_.residents.begin(), layout_.residents.end(),
            [&](const auto &r) { return isLru(r) && r.line == s.line; });
        sims_.emplace_back(s.line, s.minSets, s.maxSets, s.maxAssoc,
                           writebacks);
    }
    for (const auto &r : layout_.residents) {
        if (!isLru(r))
            policySims_.emplace_back(r.line, r.shapes, r.policy);
    }
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
        sims_[i].accessBlock(view.addrs, view.kinds, view.count);
    else
        policySims_[i - sims_.size()].accessBlock(view.addrs, view.kinds,
                                                  view.count);
}

namespace
{

/** The records of a decoded block a bank reads, in capture order. */
trace::BlockView
selectRecords(const trace::BlockView &view, SimBank::Records records,
              trace::BlockScratch &out)
{
    if (records == SimBank::Records::All)
        return view;
    const bool instructions = records == SimBank::Records::Instructions;
    out.addrs.resize(view.count);
    out.kinds.resize(view.count);
    uint32_t kept = 0;
    for (uint32_t i = 0; i < view.count; ++i) {
        out.addrs[kept] = view.addrs[i];
        out.kinds[kept] = view.kinds[i];
        kept += (view.kinds[i] == trace::kindInstruction) == instructions;
    }
    return {out.addrs.data(), out.kinds.data(), kept};
}

} // namespace

void
SimBank::simulate(const trace::ColumnarTraceBuffer &capture,
                  std::span<const Sweep> sweeps,
                  support::ThreadPool *pool,
                  const support::CancelToken *cancel)
{
    // A lane feeds a range of one or more banks' simulators (a bank's
    // set-resident ones after its Cheetah ones) and owns its decode
    // and selection scratch, so lanes share only the immutable encoded
    // blocks and need no merge step. The single fused lane is the
    // paper's single pass taken one level further: one decode per
    // block for every simulator of the class. With workers, every
    // simulator of every bank is a lane of the same loop, so the banks
    // share one barrier.
    struct Feed
    {
        const Sweep *sweep;
        size_t first;
        size_t last;
        trace::BlockScratch picked = {};
        /** Records fed to each simulator in [first, last). */
        uint64_t read = 0;
    };
    const bool fused = pool == nullptr || pool->workers() == 0;
    std::vector<Feed> feeds;
    for (const Sweep &s : sweeps) {
        const size_t count = s.bank->simRuns();
        if (fused)
            feeds.push_back({&s, 0, count});
        else
            for (size_t i = 0; i < count; ++i)
                feeds.push_back({&s, i, i + 1});
    }
    support::parallelFor(fused ? 1 : feeds.size(), pool, [&](size_t l) {
        const std::span<Feed> lane =
            fused ? std::span<Feed>(feeds)
                  : std::span<Feed>(feeds).subspan(l, 1);
        support::TimedSpan span(
            fused ? "sweep.fused"
                  : "sweep." + lane[0].sweep->bank->simTag(lane[0].first),
            "sweep");
        trace::BlockScratch scratch;
        for (size_t b = 0; b < capture.blockCount(); ++b) {
            if (cancel != nullptr)
                cancel->checkpoint("SimBank::simulate");
            const trace::BlockView block = capture.decodeBlock(b, scratch);
            for (Feed &f : lane) {
                const trace::BlockView view =
                    selectRecords(block, f.sweep->records, f.picked);
                for (size_t i = f.first; i < f.last; ++i)
                    f.sweep->bank->accessBlock(i, view);
                f.read += view.count;
            }
        }
    });
    // Counted per simulator, keyed by line size (and policy) — the
    // unit the paper's efficiency claim is stated in — and the same
    // at every job count.
    for (const Sweep &s : sweeps)
        PICO_METRIC_COUNT("sweep.runs", s.bank->simRuns());
    if (support::metricsEnabled()) {
        for (const Feed &f : feeds)
            for (size_t i = f.first; i < f.last; ++i)
                support::metrics()
                    .counter("sweep." + f.sweep->bank->simTag(i) +
                             ".accesses")
                    .add(f.read);
    }
}

void
SimBank::simulate(const trace::ColumnarTraceBuffer &buffer,
                  support::ThreadPool *pool,
                  const support::CancelToken *cancel)
{
    const Sweep sweep{this, Records::All};
    simulate(buffer, std::span<const Sweep>(&sweep, 1), pool, cancel);
}

uint64_t
SimBank::stores() const
{
    fatalIf(!extended(),
            "store counts need the extended policy axes");
    // Every simulator of the bank reads the same records.
    return sims_.front().stores();
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
    // LRU misses come from the stacks above, and so do LRU
    // write-backs; every resident's shapes carry write-back counts.
    size_t k = 0;
    for (const auto &r : layout_.residents) {
        if (isLru(r)) {
            const auto stack =
                std::find_if(sims_.begin(), sims_.end(), [&](const auto &sim) {
                    return sim.lineBytes() == r.line;
                });
            panicIf(stack == sims_.end(), "no stack at line ", r.line);
            for (const auto &g : r.shapes)
                writeback_table.push_back(static_cast<double>(
                    stack->writebacks(g.sets, g.assoc)));
            continue;
        }
        const cache::SetResidentSim &sim = policySims_[k++];
        for (const auto &g : r.shapes) {
            miss_table.push_back(
                static_cast<double>(sim.misses(g.sets, g.assoc)));
            writeback_table.push_back(
                static_cast<double>(sim.writebacks(g.sets, g.assoc)));
        }
    }
    return FrozenBank(layout_, accesses(), extended() ? stores() : 0,
                      std::move(miss_table), std::move(writeback_table));
}

// --- SubsystemEvaluator -----------------------------------------------

SubsystemEvaluator::SubsystemEvaluator(
    CacheSpace space, FrozenBank bank,
    std::shared_ptr<const trace::ColumnarTraceBuffer> capture)
    : space_(std::move(space)), bank_(std::move(bank)),
      trace_(std::move(capture))
{}

const trace::ColumnarTraceBuffer &
SubsystemEvaluator::capturedTrace() const
{
    fatalIf(!trace_, "evaluator was built from a cached reference set "
                     "and captured no trace");
    return *trace_;
}

double
SubsystemEvaluator::writeTraffic(const cache::CacheConfig &config) const
{
    return bank_.writeTraffic(config);
}

// --- IcacheEvaluator ---------------------------------------------------

IcacheEvaluator::IcacheEvaluator(
    CacheSpace space, FrozenBank bank, core::ComponentParams params,
    std::shared_ptr<const trace::ColumnarTraceBuffer> capture)
    : SubsystemEvaluator(std::move(space), std::move(bank),
                         std::move(capture)),
      params_(params)
{}

double
IcacheEvaluator::misses(const cache::CacheConfig &config,
                        double dilation) const
{
    if (dilation == 1.0)
        return bank_.misses(config);
    core::DilationModel model(params_, params_, params_);
    if (config.replacement == cache::ReplacementPolicy::LRU)
        return model.estimateIcacheMisses(config, dilation,
                                          bank_.oracle());
    // The dilation model reasons over LRU stack behavior
    // (contracted line sizes against the Cheetah oracle). For
    // non-stack policies, apply the model's *relative* dilation
    // effect — estimated on the LRU twin of the same geometry — to
    // the policy's own simulated count.
    cache::CacheConfig twin = config;
    twin.replacement = cache::ReplacementPolicy::LRU;
    twin.write = cache::WritePolicy::WriteBack;
    double twin_sim = bank_.misses(twin);
    double twin_est = model.estimateIcacheMisses(twin, dilation,
                                                 bank_.oracle());
    double scale = twin_sim > 0.0 ? twin_est / twin_sim : 1.0;
    return bank_.misses(config) * scale;
}

// --- DcacheEvaluator ---------------------------------------------------

DcacheEvaluator::DcacheEvaluator(
    CacheSpace space, FrozenBank bank,
    std::shared_ptr<const trace::ColumnarTraceBuffer> capture)
    : SubsystemEvaluator(std::move(space), std::move(bank),
                         std::move(capture))
{}

double
DcacheEvaluator::misses(const cache::CacheConfig &config) const
{
    return bank_.misses(config);
}

// --- UcacheEvaluator ---------------------------------------------------

UcacheEvaluator::UcacheEvaluator(
    CacheSpace space, FrozenBank bank, core::ComponentParams instr_params,
    core::ComponentParams data_params,
    std::shared_ptr<const trace::ColumnarTraceBuffer> capture)
    : SubsystemEvaluator(std::move(space), std::move(bank),
                         std::move(capture)),
      iParams_(instr_params), dParams_(data_params)
{}

double
UcacheEvaluator::misses(const cache::CacheConfig &config,
                        double dilation) const
{
    // The dilation estimate scales the simulated reference count
    // (equations 4.13–4.15), so routing the reference count by
    // replacement policy is all a non-LRU design needs.
    double ref_misses = bank_.misses(config);
    if (dilation == 1.0)
        return ref_misses;
    core::DilationModel model(iParams_, iParams_, dParams_);
    return model.estimateUcacheMisses(config, dilation, ref_misses);
}

// --- sweepReference ----------------------------------------------------

SweptReference
sweepReference(const MemorySpaces &spaces,
               const TraceSource &unified_trace, uint64_t i_granule,
               uint64_t u_granule, support::ThreadPool *pool,
               const support::CancelToken *cancel)
{
    // The banks are built before the capture: built after it,
    // walk-policy's sweeps measured about 12% slower.
    SimBank ibank(spaces.icache, IcacheEvaluator::coverage);
    SimBank dbank(spaces.dcache, DcacheEvaluator::coverage);
    SimBank ubank(spaces.ucache, UcacheEvaluator::coverage);
    // The instruction and data traces are exactly the isInstr and
    // !isInstr subsequences of the unified one (pinned by
    // TraceGenerator.UnifiedIsSupersetCountOfComponents), so one
    // emulation and one capture feed all three banks, and the I-trace
    // modeler skips the data references itself.
    auto capture = std::make_shared<trace::ColumnarTraceBuffer>();
    core::ItraceModeler imodeler(i_granule);
    core::UtraceModeler umodeler(u_granule);
    {
        support::TimedSpan span("evaluate.capture", "evaluate");
        support::CancelCheck check(cancel);
        unified_trace([&](const trace::Access &a) {
            check.tick("sweepReference");
            capture->append(a);
            imodeler.access(a);
            umodeler.access(a);
        });
    }
    PICO_METRIC_COUNT("evaluate.captured.accesses", capture->size());
    PICO_METRIC_COUNT("evaluate.captured.bytes", capture->encodedBytes());
    // One lane loop over the three banks: on a pool, no bank waits
    // for its own slowest lane while the others' lanes could run.
    const SimBank::Sweep sweeps[] = {
        {&ibank, SimBank::Records::Instructions},
        {&dbank, SimBank::Records::Data},
        {&ubank, SimBank::Records::All},
    };
    {
        support::TimedSpan span("evaluate.sweep", "evaluate");
        SimBank::simulate(*capture, sweeps, pool, cancel);
    }
    SweptReference out;
    out.set.iParams = imodeler.params();
    out.set.uiParams = umodeler.instrParams();
    out.set.udParams = umodeler.dataParams();
    out.set.icache = ibank.freeze();
    out.set.dcache = dbank.freeze();
    out.set.ucache = ubank.freeze();
    out.capture = std::move(capture);
    return out;
}

} // namespace pico::dse
