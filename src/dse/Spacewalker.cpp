#include "dse/Spacewalker.hpp"

#include <atomic>
#include <optional>

#include "compiler/Scheduler.hpp"
#include "support/FaultInjection.hpp"
#include "support/Logging.hpp"
#include "support/TraceEvents.hpp"
#include "trace/TraceGenerator.hpp"
#include "verify/DesignVerifier.hpp"
#include "verify/ProgramVerifier.hpp"
#include "verify/ResultVerifier.hpp"
#include "workloads/Toolchain.hpp"

namespace pico::dse
{

MemoryWalker::MemoryWalker(MemorySpaces spaces, StallModel stalls,
                           uint64_t i_granule, uint64_t u_granule)
    : spaces_(spaces), stalls_(stalls), iGranule_(i_granule),
      uGranule_(u_granule), icacheEval_(spaces.icache),
      dcacheEval_(spaces.dcache), ucacheEval_(spaces.ucache)
{}

MemoryWalker::MemoryWalker(MemorySpaces spaces, StallModel stalls,
                           const ReferenceSet &set)
    : spaces_(spaces), stalls_(stalls),
      icacheEval_(spaces.icache, set.icache, set.iParams),
      dcacheEval_(spaces.dcache, set.dcache),
      ucacheEval_(spaces.ucache, set.ucache, set.uiParams, set.udParams)
{}

ReferenceSet
MemoryWalker::freeze(uint64_t reference_text_bytes) const
{
    ReferenceSet set;
    set.textBytes = reference_text_bytes;
    set.iParams = icacheEval_.params();
    set.uiParams = ucacheEval_.instrParams();
    set.udParams = ucacheEval_.dataParams();
    set.icache = icacheEval_.frozen();
    set.dcache = dcacheEval_.frozen();
    set.ucache = ucacheEval_.frozen();
    return set;
}

void
MemoryWalker::evaluate(const TraceSource &unified_trace,
                       const support::CancelToken *cancel)
{
    // The instruction and data traces are exactly the isInstr and
    // !isInstr subsequences of the unified one (pinned by
    // TraceGenerator.UnifiedIsSupersetCountOfComponents), so one
    // emulation and one capture feed all three banks, and the I-trace
    // modeler skips the data references itself.
    auto capture = std::make_shared<trace::ColumnarTraceBuffer>();
    core::ItraceModeler imodeler(iGranule_);
    core::UtraceModeler umodeler(uGranule_);
    {
        support::TimedSpan span("evaluate.capture", "evaluate");
        support::CancelCheck check(cancel);
        unified_trace([&](const trace::Access &a) {
            check.tick("MemoryWalker::evaluate");
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
        {icacheEval_.bank_.get(), SimBank::Records::Instructions},
        {dcacheEval_.bank_.get(), SimBank::Records::Data},
        {ucacheEval_.bank_.get(), SimBank::Records::All},
    };
    {
        support::TimedSpan span("evaluate.sweep", "evaluate");
        SimBank::simulate(*capture, sweeps, pool_, cancel);
    }
    icacheEval_.params_ = imodeler.params();
    ucacheEval_.iParams_ = umodeler.instrParams();
    ucacheEval_.dParams_ = umodeler.dataParams();
    SubsystemEvaluator *const evaluators[] = {&icacheEval_, &dcacheEval_,
                                              &ucacheEval_};
    for (SubsystemEvaluator *e : evaluators) {
        e->trace_ = capture;
        e->frozen_ = e->bank_->freeze();
        e->evaluated_ = true;
    }
}

double
MemoryWalker::stallCycles(const cache::CacheConfig &icache,
                          const cache::CacheConfig &dcache,
                          const cache::CacheConfig &ucache,
                          double dilation) const
{
    double stalls =
        icacheEval_.misses(icache, dilation) * stalls_.l2HitLatency +
        dcacheEval_.misses(dcache) * stalls_.l2HitLatency +
        ucacheEval_.misses(ucache, dilation) * stalls_.memoryLatency;
    // Write traffic (instruction fetches never write, so only the
    // data-side caches contribute). Still additive per subsystem,
    // which is what keeps the product-of-fronts Pareto construction
    // valid.
    if (stalls_.writeCost != 0.0) {
        stalls += dcacheEval_.writeTraffic(dcache) * stalls_.writeCost;
        stalls += ucacheEval_.writeTraffic(ucache) * stalls_.writeCost;
    }
    return stalls;
}

ParetoSet
MemoryWalker::pareto(double dilation, uint32_t dcache_ports,
                     FailureLog *failures,
                     const support::CancelToken *cancel) const
{
    support::TimedSpan span("memory.pareto", "walk");
    // Subsystem Pareto fronts first: with additive cost and additive
    // stall time, any hierarchy containing a dominated component is
    // itself dominated, so the product of the subsystem fronts
    // covers the full hierarchy Pareto set. Candidates and offers
    // carry numbers only; ids are built for the survivors.
    struct Candidate
    {
        cache::CacheConfig cfg;
        double cost = 0.0;
        double time = 0.0;
    };

    // Evaluate one subspace: the per-design miss estimates (the
    // dilation-model extrapolations) are independent, so they are
    // sharded across the pool; each task writes only its own slot
    // and the slots are merged in enumeration order, which keeps
    // candidate ordering and failure ordering schedule-independent.
    //
    // With a failure log, one unevaluable cache configuration is
    // recorded and skipped; without one the error propagates (the
    // historical behavior; parallelFor rethrows the error of the
    // smallest failing index — the same one the serial loop hit
    // first).
    auto evalSubspace =
        [&](const std::vector<cache::CacheConfig> &configs,
            const char *prefix,
            const std::function<double(const cache::CacheConfig &)>
                &stall_cycles) {
            std::vector<std::optional<Candidate>> slots(
                configs.size());
            std::vector<std::string> errors(configs.size());
            support::parallelFor(
                configs.size(), pool_, [&](size_t i) {
                    const auto &cfg = configs[i];
                    auto candidate = [&] {
                        return Candidate{cfg, cfg.areaCost(),
                                         stall_cycles(cfg)};
                    };
                    if (cancel != nullptr)
                        cancel->checkpoint("MemoryWalker::pareto");
                    if (!failures) {
                        slots[i] = candidate();
                        return;
                    }
                    try {
                        slots[i] = candidate();
                    } catch (const PanicError &) {
                        throw; // internal bugs always propagate
                    } catch (const CancelledError &) {
                        throw; // a deadline is not a design failure
                    } catch (const std::exception &e) {
                        errors[i] = e.what();
                    }
                });
            std::vector<Candidate> cands;
            cands.reserve(configs.size());
            for (size_t i = 0; i < configs.size(); ++i) {
                if (slots[i])
                    cands.push_back(*slots[i]);
                else
                    failures->record(prefix + configs[i].name(),
                                     "memory-pareto", errors[i]);
            }
            keepParetoFront(cands);
            return cands;
        };

    std::vector<cache::CacheConfig> d_configs;
    for (const auto &cfg : spaces_.dcache.enumerate()) {
        if (dcache_ports != 0 && cfg.ports != dcache_ports)
            continue;
        d_configs.push_back(cfg);
    }

    const auto i_front = evalSubspace(
        spaces_.icache.enumerate(), "I$",
        [&](const cache::CacheConfig &cfg) {
            return icacheEval_.misses(cfg, dilation) *
                   stalls_.l2HitLatency;
        });
    const auto d_front = evalSubspace(
        d_configs, "D$", [&](const cache::CacheConfig &cfg) {
            double t =
                dcacheEval_.misses(cfg) * stalls_.l2HitLatency;
            if (stalls_.writeCost != 0.0)
                t += dcacheEval_.writeTraffic(cfg) *
                     stalls_.writeCost;
            return t;
        });
    const auto u_front = evalSubspace(
        spaces_.ucache.enumerate(), "U$",
        [&](const cache::CacheConfig &cfg) {
            double t = ucacheEval_.misses(cfg, dilation) *
                       stalls_.memoryLatency;
            if (stalls_.writeCost != 0.0)
                t += ucacheEval_.writeTraffic(cfg) *
                     stalls_.writeCost;
            return t;
        });

    // One offer per inclusion-feasible (I$, D$, U$) triple of front
    // members, in the nesting order the ids follow.
    struct Hierarchy
    {
        double cost = 0.0;
        double time = 0.0;
        uint32_t i = 0;
        uint32_t d = 0;
        uint32_t u = 0;
    };
    std::vector<Hierarchy> offers;
    offers.reserve(i_front.size() * d_front.size() * u_front.size());
    for (uint32_t i = 0; i < i_front.size(); ++i) {
        const Candidate &ic = i_front[i];
        for (uint32_t d = 0; d < d_front.size(); ++d) {
            const Candidate &dc = d_front[d];
            for (uint32_t u = 0; u < u_front.size(); ++u) {
                const Candidate &uc = u_front[u];
                // Inclusion requirement (section 3.1).
                if (uc.cfg.sizeBytes() < ic.cfg.sizeBytes() ||
                    uc.cfg.sizeBytes() < dc.cfg.sizeBytes() ||
                    uc.cfg.lineBytes < ic.cfg.lineBytes ||
                    uc.cfg.lineBytes < dc.cfg.lineBytes) {
                    continue;
                }
                offers.push_back({ic.cost + dc.cost + uc.cost,
                                  ic.time + dc.time + uc.time, i, d, u});
            }
        }
    }
    const uint64_t offered = offers.size();
    keepParetoFront(offers);

    auto names = [](const std::vector<Candidate> &front,
                    const char *prefix) {
        std::vector<std::string> out;
        out.reserve(front.size());
        for (const Candidate &c : front)
            out.push_back(prefix + c.cfg.name());
        return out;
    };
    const auto i_names = names(i_front, "I$");
    const auto d_names = names(d_front, "D$");
    const auto u_names = names(u_front, "U$");
    std::vector<DesignPoint> points;
    points.reserve(offers.size());
    for (const Hierarchy &h : offers)
        points.push_back(DesignPoint{
            i_names[h.i] + "+" + d_names[h.d] + "+" + u_names[h.u],
            h.cost, h.time});
    return ParetoSet(std::move(points), offered);
}

std::string
procMetricsKey(const std::string &prog_name, uint64_t seed,
               const std::string &machine_name,
               const MemorySpaces &spaces)
{
    std::string key = "proc;" + prog_name + ";s" +
                      std::to_string(seed) + ";" + machine_name;
    for (uint32_t ports : spaces.dcache.portCounts)
        key += ";p" + std::to_string(ports);
    // Policy axes are part of the key only when some space extends
    // them, keeping classic-space keys byte-identical to the
    // historical schema (old caches keep hitting) while extended
    // walks can never be served a classic entry or vice versa.
    if (spaces.icache.extendedAxes() || spaces.dcache.extendedAxes() ||
        spaces.ucache.extendedAxes()) {
        for (const CacheSpace *space :
             {&spaces.icache, &spaces.dcache, &spaces.ucache}) {
            key += ";r";
            for (auto repl : space->replacements)
                key += std::string(".") +
                       cache::replacementName(repl);
            key += ";w";
            for (auto wp : space->writePolicies)
                key += std::string(".") + cache::writePolicyName(wp);
        }
    }
    return key;
}

std::string
referenceKey(const std::string &prog_name, uint64_t seed,
             uint64_t trace_blocks, uint64_t i_granule,
             uint64_t u_granule, const std::string &reference_machine,
             const MemorySpaces &spaces)
{
    std::string key = "ref;" + prog_name + ";s" + std::to_string(seed) +
                      ";b" + std::to_string(trace_blocks) + ";gi" +
                      std::to_string(i_granule) + ";gu" +
                      std::to_string(u_granule) + ";m" +
                      reference_machine;
    auto list = [&key](char tag, const auto &values, auto name) {
        key += ':';
        key += tag;
        for (size_t i = 0; i < values.size(); ++i) {
            if (i != 0)
                key += '.';
            key += name(values[i]);
        }
    };
    auto number = [](auto v) { return std::to_string(v); };
    for (const auto &[tag, space] :
         {std::pair{'i', &spaces.icache}, std::pair{'d', &spaces.dcache},
          std::pair{'u', &spaces.ucache}}) {
        key += ';';
        key += tag;
        list('z', space->sizesBytes, number);
        list('a', space->assocs, number);
        list('l', space->lineSizes, number);
        list('r', space->replacements, [](auto p) {
            return std::string(cache::replacementName(p));
        });
        list('w', space->writePolicies, [](auto p) {
            return std::string(cache::writePolicyName(p));
        });
    }
    return key + ";v" + std::to_string(ReferenceSet::layoutVersion);
}

Spacewalker::Spacewalker(MemorySpaces spaces,
                         std::vector<std::string> machine_names,
                         Options options)
    : spaces_(spaces), machineNames_(std::move(machine_names)),
      options_(options),
      cache_(options.sharedCache != nullptr
                 ? std::string()
                 : options.evaluationCachePath)
{
    fatalIf(machineNames_.empty(), "no machines to explore");
}

const MemoryWalker &
Spacewalker::memoryWalker() const
{
    fatalIf(!memory_, "explore() has not run yet");
    return *memory_;
}

namespace
{

/** Reference-processor state shared by one trace-equivalence class. */
struct ClassContext
{
    /** The class's program: the caller's, or the if-converted one. */
    const ir::Program *prog = nullptr;
    std::optional<ir::Program> converted;
    /** The reference build; only where this walk computed the set. */
    std::optional<workloads::MachineBuild> refBuild;
    /** Text size of the reference binary (the dilation divisor). */
    uint64_t refTextBytes = 0;
    std::unique_ptr<MemoryWalker> memory;
    /** Set when the reference setup of this class failed. */
    std::exception_ptr error;
};

/** Per-design exploration plan (phase 1 output). */
struct DesignPlan
{
    bool predicated = false;
    std::optional<machine::MachineDesc> mdes;
    /** Set when the machine description could not be built. */
    std::exception_ptr descError;
};

/** Per-design exploration outcome (phase 3 output, merged in
 *  design order by phase 4). */
struct DesignOutcome
{
    bool ok = false;
    double dilation = 0.0;
    uint64_t cycles = 0;
    DesignPoint processor;
    std::vector<DesignPoint> systems;
    /** Cache-config failures recorded while composing (compose
     *  stage), plus at most one machine-level failure. */
    FailureLog failures;
};

/** Resolve Options::verify (-1 auto / 0 off / 1 on). */
bool
verificationEnabled(int option)
{
    if (option >= 0)
        return option != 0;
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

/**
 * Verify one trace-equivalence class after its reference setup: the
 * profiled program's CFG and flow counts, the AHH parameter domains,
 * that the I$ and D$ access counts sum to the U$ count, that no
 * configuration reports more misses than its bank had accesses, and
 * the write model. All of these read the frozen set, so they run on a
 * cache hit too; the reference binary's text layout and the captured
 * trace exist only where this walk computed the set, and are checked
 * there. Read-only: the class's evaluators and program are never
 * mutated.
 */
void
verifyClassInvariants(bool predicated, const ClassContext &ctx,
                      const Spacewalker::Options &options,
                      verify::Diagnostics &diags)
{
    const std::string cls =
        predicated ? "class pred" : "class base";
    const MemoryWalker &mem = *ctx.memory;
    verify::verifyProgram(*ctx.prog, diags);
    if (ctx.refBuild)
        verify::verifyLayout(*ctx.prog, ctx.refBuild->bin, diags);
    verify::verifyAhhParams(mem.icache().params(), options.iGranule,
                            cls + " instruction trace", diags);
    verify::verifyAhhParams(mem.ucache().instrParams(),
                            options.uGranule,
                            cls + " unified instruction trace",
                            diags);
    verify::verifyAhhParams(mem.ucache().dataParams(),
                            options.uGranule,
                            cls + " unified data trace", diags);
    // The captured columnar trace must decode back bit-for-bit:
    // every simulated miss count in this class was derived from
    // replaying its blocks, the I$ and D$ banks reading disjoint
    // parts of what the U$ bank read.
    const trace::ColumnarTraceBuffer *capture =
        ctx.refBuild ? &mem.ucache().capturedTrace() : nullptr;
    if (capture != nullptr)
        verify::verifyColumnarTrace(*capture, cls + " unified trace",
                                    diags);
    verify::verifyAccessSplit(mem.icache().frozen().accesses(),
                              mem.dcache().frozen().accesses(),
                              mem.ucache().frozen().accesses(), capture,
                              cls + " unified trace", diags);
    // At dilation 1 every evaluator answers with its bank's simulated
    // counts. Extended policy axes add the write model: check every
    // enumerated cell's traffic (policy-tagged via cfg.name()) against
    // the bank's store count; classic spaces model no write traffic,
    // so there is nothing to check there.
    const std::pair<const char *, const SubsystemEvaluator *> banks[] = {
        {" I$", &mem.icache()},
        {" D$", &mem.dcache()},
        {" U$", &mem.ucache()},
    };
    for (const auto &[tag, eval] : banks) {
        const FrozenBank &bank = eval->frozen();
        for (const auto &cfg : eval->space().enumerate()) {
            const std::string what = cls + tag + cfg.name();
            verify::verifyMissCount(bank.misses(cfg),
                                    static_cast<double>(bank.accesses()),
                                    what, diags);
            if (eval->space().extendedAxes())
                verify::verifyWriteModel(
                    bank.writeTraffic(cfg), bank.misses(cfg),
                    static_cast<double>(bank.stores()), cfg.write, what,
                    diags);
        }
    }
}

} // namespace

ExplorationResult
Spacewalker::explore(const ir::Program &prog)
{
    using machine::MachineDesc;

    const size_t n = machineNames_.size();
    const support::CancelToken *cancel = options_.cancel;
    support::TimedSpan exploreSpan("walk.explore", "walk");
    // A default only: when the walk runs on a server worker, the
    // worker's own track name must survive.
    support::TraceRecorder::instance().nameThisThreadDefault(
        "walk-main");
    support::ThreadPool pool(
        support::ThreadPool::resolveJobs(options_.jobs) - 1);
    if (support::metricsEnabled()) {
        support::metrics()
            .gauge("walk.jobs")
            .set(support::ThreadPool::resolveJobs(options_.jobs));
        support::metrics().gauge("walk.designs").set(
            static_cast<double>(n));
    }

    // Verification (optional, read-only) piggybacks on the serial
    // phases, so findings are ordered deterministically no matter
    // how many workers the parallel phases use.
    const bool verifying = verificationEnabled(options_.verify);
    verify::Diagnostics diags;
    if (verifying) {
        support::TimedSpan span("walk.verify.spaces", "verify");
        verify::verifyCacheSpace(spaces_.icache, "icache space",
                                 diags);
        verify::verifyCacheSpace(spaces_.dcache, "dcache space",
                                 diags);
        verify::verifyCacheSpace(spaces_.ucache, "ucache space",
                                 diags);
    }

    // Phase 1 (serial, cheap): machine descriptions. A bad name is
    // remembered and surfaces from its design's own evaluation so
    // per-design isolation and failure ordering stay intact.
    std::vector<DesignPlan> plans(n);
    {
        support::TimedSpan phase("walk.phase1.plan", "phase");
        for (size_t i = 0; i < n; ++i) {
            try {
                plans[i].mdes =
                    MachineDesc::fromName(machineNames_[i]);
                plans[i].predicated = plans[i].mdes->predRegs > 0;
            } catch (const PanicError &) {
                throw; // internal bugs always propagate
            } catch (const std::exception &) {
                plans[i].descError = std::current_exception();
            }
        }
    }

    // Phase 2 (serial across classes, parallel within): one
    // reference processor (and one set of reference-trace
    // simulations) per trace-equivalence class — the paper
    // prescribes a separate Pref for each predication/speculation
    // combination. The class's unified reference trace is emulated
    // and captured once; the simulators of the three banks then read
    // their records of it on the pool as one lane loop, and the swept
    // class is frozen into one evaluation-cache entry. A later walk of
    // the class (another request, a rerun, a restarted server) finds
    // the entry and skips all of that.
    std::map<bool, std::unique_ptr<ClassContext>> classes;
    std::optional<support::TimedSpan> phase;
    phase.emplace("walk.phase2.reference", "phase");
    for (const auto &plan : plans) {
        if (!plan.mdes || classes.count(plan.predicated))
            continue;
        auto ctx = std::make_unique<ClassContext>();
        try {
            // A cancelled class setup is stored as the class error:
            // every design of the class then unwinds through the
            // phase-3 CancelledError handler into stage "deadline".
            if (cancel != nullptr)
                cancel->checkpoint("Spacewalker::reference");
            std::string ref_name = options_.referenceMachine;
            if (plan.predicated && ref_name.back() != 'p')
                ref_name += 'p';
            auto ref_mdes = MachineDesc::fromName(ref_name);
            // workloads::programForClass: a predicated class runs the
            // if-converted program, the base class the caller's.
            ctx->prog = &prog;
            if (ref_mdes.predRegs > 0) {
                ctx->converted = workloads::programForClass(
                    prog, ref_mdes, options_.traceBlocks);
                ctx->prog = &*ctx->converted;
            }

            std::optional<ReferenceSet> found;
            auto values = cacheRef().getOrCompute(
                referenceKey(prog.name, prog.seed, options_.traceBlocks,
                             options_.iGranule, options_.uGranule,
                             ref_name, spaces_),
                [&]() {
                    ctx->refBuild = workloads::buildFor(*ctx->prog,
                                                        ref_mdes);
                    auto memory = std::make_unique<MemoryWalker>(
                        spaces_, options_.stalls, options_.iGranule,
                        options_.uGranule);
                    memory->setThreadPool(&pool);
                    trace::TraceGenerator gen(*ctx->prog,
                                              ctx->refBuild->sched,
                                              ctx->refBuild->bin);
                    uint64_t blocks = options_.traceBlocks;
                    memory->evaluate(
                        [&gen, blocks](const TraceSink &sink) {
                            gen.generate(trace::TraceKind::Unified,
                                         sink, blocks);
                        },
                        cancel);
                    ctx->refTextBytes = ctx->refBuild->bin.textSize();
                    ctx->memory = std::move(memory);
                    PICO_METRIC_COUNT("walk.reference.computed", 1);
                    return ctx->memory->freeze(ctx->refTextBytes)
                        .encode();
                },
                [&](const std::vector<double> &v) {
                    found = ReferenceSet::decode(v, spaces_,
                                                 options_.iGranule,
                                                 options_.uGranule);
                    return found.has_value();
                });
            if (!ctx->memory) {
                // A hit, or another walk's compute this one waited on.
                std::string why;
                if (!found)
                    found = ReferenceSet::decode(
                        values, spaces_, options_.iGranule,
                        options_.uGranule, &why);
                panicIf(!found, "reference set does not decode: ", why);
                PICO_METRIC_COUNT("walk.reference.hits", 1);
                ctx->refTextBytes = found->textBytes;
                ctx->memory = std::make_unique<MemoryWalker>(
                    spaces_, options_.stalls, *found);
                ctx->memory->setThreadPool(&pool);
            }
        } catch (const PanicError &) {
            throw; // internal bugs always propagate
        } catch (const std::exception &) {
            ctx->error = std::current_exception();
            ctx->memory.reset();
        }
        if (verifying && ctx->memory) {
            support::TimedSpan span("walk.verify.class", "verify");
            verifyClassInvariants(plan.predicated, *ctx, options_,
                                  diags);
        }
        classes.emplace(plan.predicated, std::move(ctx));
    }
    phase.reset();

    // Phase 3 (parallel): evaluate every design. Each task writes
    // only its own outcome slot; nothing here touches the shared
    // result. One infeasible or failing design must not destroy the
    // walk: every per-design error is recorded in the task's own
    // FailureLog and the exploration continues. Results commit
    // atomically per design — a machine that fails mid-compose
    // contributes no points at all.
    std::vector<DesignOutcome> outcomes(n);
    std::atomic<uint64_t> completed{0};
    phase.emplace("walk.phase3.evaluate", "phase");
    support::parallelFor(n, &pool, [&](size_t i) {
        const auto &name = machineNames_[i];
        const auto &plan = plans[i];
        auto &out = outcomes[i];
        // Spans are named per design but share one wall-time
        // histogram, so the trace shows which worker ran which
        // machine while the report keeps a single distribution.
        support::TimedSpan designSpan("design:" + name, "design",
                                      "walk.design.ns");
        const char *stage = "machine-description";
        try {
            support::faultPoint("Spacewalker::evaluateDesign");
            if (cancel != nullptr)
                cancel->checkpoint("Spacewalker::design");
            if (plan.descError)
                std::rethrow_exception(plan.descError);
            stage = "reference-setup";
            auto &cls = *classes.at(plan.predicated);
            if (cls.error)
                std::rethrow_exception(cls.error);

            // Per-machine metrics flow through the EvaluationCache
            // (section 5.1): a hit skips the whole compile/assemble/
            // link of this machine.
            stage = "metrics";
            // An entry of the wrong shape is quarantined and
            // recomputed, never read past its end.
            const size_t width = 2 + spaces_.dcache.portCounts.size();
            std::string key = procMetricsKey(prog.name, prog.seed,
                                             name, spaces_);
            auto metrics = cacheRef().getOrCompute(
                key,
                [&]() {
                    if (cancel != nullptr)
                        cancel->checkpoint("Spacewalker::metrics");
                    auto build = workloads::buildFor(*cls.prog,
                                                     *plan.mdes);
                    std::vector<double> v;
                    v.push_back(linker::textDilation(build.bin,
                                                     cls.refTextBytes));
                    v.push_back(
                        static_cast<double>(build.processorCycles));
                    for (uint32_t ports : spaces_.dcache.portCounts) {
                        v.push_back(static_cast<double>(
                            compiler::Scheduler::processorCycles(
                                *cls.prog, build.sched, ports)));
                    }
                    return v;
                },
                [width](const std::vector<double> &v) {
                    return v.size() == width;
                });

            out.dilation = metrics[0];
            out.cycles = static_cast<uint64_t>(metrics[1]);
            out.processor.id = "P" + name;
            out.processor.cost = plan.mdes->cost();
            out.processor.time = metrics[1];

            // Compose systems per data-cache port constraint: ports
            // couple the cache to the processor's memory issue rate.
            stage = "compose";
            for (size_t pi = 0;
                 pi < spaces_.dcache.portCounts.size(); ++pi) {
                uint32_t ports = spaces_.dcache.portCounts[pi];
                double cycles = metrics[2 + pi];
                ParetoSet mem = cls.memory->pareto(
                    out.dilation, ports, &out.failures, cancel);
                for (const auto &hierarchy : mem.points()) {
                    DesignPoint sys;
                    sys.id = out.processor.id + "+" + hierarchy.id;
                    sys.cost = out.processor.cost + hierarchy.cost;
                    sys.time = cycles + hierarchy.time;
                    out.systems.push_back(sys);
                }
            }
            out.ok = true;
            PICO_METRIC_COUNT("walk.designs.ok", 1);
        } catch (const PanicError &) {
            throw; // internal bugs always propagate
        } catch (const CancelledError &e) {
            // A deadline is an answer, not a bug: record the claimed
            // design (keeping the conservation invariant — failures
            // plus evaluated covers every design) and let the
            // remaining tasks drain through their own checkpoints.
            // Deliberately not subject to haltOnFailure.
            PICO_METRIC_COUNT("walk.designs.deadline", 1);
            out.failures.record(name, "deadline", e.what());
            return;
        } catch (const std::exception &e) {
            if (options_.haltOnFailure)
                throw;
            PICO_METRIC_COUNT("walk.designs.failed", 1);
            out.failures.record(name, stage, e.what());
            return;
        }

        // Periodic checkpoint: an interrupted run resumes from the
        // evaluation cache's last flushed generation. The trigger
        // counts *completions* (schedule-dependent timing, but
        // flush() writes a sorted snapshot, so the final database
        // bytes never depend on when checkpoints fired).
        uint64_t done =
            completed.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (options_.checkpointEvery != 0 &&
            done % options_.checkpointEvery == 0) {
            PICO_METRIC_COUNT("walk.checkpoints", 1);
            cacheRef().flush();
        }
    });
    phase.reset();

    // Phase 4 (serial): merge outcomes in design order. This is the
    // only writer of the shared result, so Pareto insertion order,
    // FailureLog ordering and evaluatedDesigns are identical to the
    // serial walk no matter how phase 3 was scheduled.
    ExplorationResult result;
    phase.emplace("walk.phase4.merge", "phase");
    for (size_t i = 0; i < n; ++i) {
        auto &out = outcomes[i];
        result.failures.append(out.failures);
        if (!out.ok)
            continue;
        const auto &name = machineNames_[i];
        result.dilations[name] = out.dilation;
        result.processorCycles[name] = out.cycles;
        result.processors.insertPoint(out.processor);
        for (const auto &sys : out.systems)
            result.systems.insertPoint(sys);
        ++result.evaluatedDesigns;
    }
    result.deadlineExceeded =
        cancel != nullptr && cancel->cancelled();
    // Completed designs stay cached even when the walk was cut
    // short: the flush below is what makes a retried request after a
    // deadline cheaper than the first attempt.
    cacheRef().flush();
    phase.reset();

    if (verifying) {
        support::TimedSpan span("walk.verify.result", "verify");
        verify::verifyWalkResult(result, n, diags);
        // A shared cache's file is flushed by *other* walks too;
        // only the owner can verify it race-free.
        if (!options_.evaluationCachePath.empty() &&
            options_.sharedCache == nullptr)
            verify::verifyCacheFile(options_.evaluationCachePath,
                                    diags);
    }
    if (!diags.empty()) {
        for (const auto &d : diags.entries())
            warn("verify: ", d.format());
        warn("verification: ", diags.errorCount(), " error(s), ",
             diags.warningCount(), " warning(s)");
        PICO_METRIC_COUNT("walk.verify.errors", diags.errorCount());
        PICO_METRIC_COUNT("walk.verify.warnings",
                          diags.warningCount());
    }
    result.diagnostics = std::move(diags);

    if (!result.failures.empty())
        warn("exploration partial: ", result.failures.size(),
             " failure(s) across ", machineNames_.size(),
             " design(s); ", result.evaluatedDesigns, " evaluated");

    // Keep the base class's walker accessible for callers that want
    // to inspect the memory design space after exploration. The
    // pool dies with this frame, so detach it first.
    for (auto &[pred, ctx] : classes) {
        if (ctx->memory)
            ctx->memory->setThreadPool(nullptr);
    }
    for (auto pred : {false, true}) {
        auto it = classes.find(pred);
        if (it != classes.end() && it->second->memory) {
            memory_ = std::move(it->second->memory);
            break;
        }
    }
    return result;
}

} // namespace pico::dse
