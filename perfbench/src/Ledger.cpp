#include "Ledger.hpp"

#include <stdexcept>

#include "compiler/Scheduler.hpp"
#include "core/TraceModel.hpp"
#include "isa/Assembler.hpp"
#include "isa/InstructionFormat.hpp"
#include "linker/Linker.hpp"
#include "support/Metrics.hpp"
#include "support/TraceEvents.hpp"
#include "trace/TraceGenerator.hpp"
#include "verify/DesignVerifier.hpp"
#include "verify/ProgramVerifier.hpp"
#include "verify/ResultVerifier.hpp"
#include "workloads/Toolchain.hpp"

namespace perfbench
{

using namespace pico;

namespace
{

/**
 * Scoped timer: adds the elapsed milliseconds to `slot` and, when
 * tracing is on, records a span of the benchmark's own on the calling
 * thread's track.
 */
class Timed
{
  public:
    Timed(double &slot, const char *span)
        : slot_(slot), span_(span), startNs_(support::monotonicNowNs())
    {}

    ~Timed()
    {
        uint64_t end = support::monotonicNowNs();
        slot_ += static_cast<double>(end - startNs_) / 1e6;
        support::TraceRecorder::instance().complete(
            span_, "perfbench", startNs_, end - startNs_);
    }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    double &slot_;
    const char *span_;
    uint64_t startNs_;
};

/** Thread time of one machine build, by layer (ms). */
struct BuildTimes
{
    double schedule = 0.0;
    double assemble = 0.0;
    double link = 0.0;
    uint64_t builds = 0;

    double total() const { return schedule + assemble + link; }
};

/** workloads::buildFor with each tool of the chain timed. */
workloads::MachineBuild
timedBuild(const ir::Program &prog, const machine::MachineDesc &mdes,
           BuildTimes &t)
{
    compiler::Scheduler scheduler;
    linker::Linker linker;
    workloads::MachineBuild out;
    {
        Timed timed(t.schedule, "compiler.schedule");
        out.sched = scheduler.schedule(prog, mdes);
        out.processorCycles =
            compiler::Scheduler::processorCycles(prog, out.sched);
    }
    isa::ObjectFile object;
    {
        Timed timed(t.assemble, "isa.assemble");
        isa::InstructionFormat format(mdes);
        isa::Assembler assembler(format);
        object = assembler.assemble(prog, out.sched);
    }
    {
        Timed timed(t.link, "linker.link");
        out.bin = linker.link(object);
    }
    ++t.builds;
    return out;
}

/** Per-design thread times of the parallel stage. */
struct DesignWork
{
    BuildTimes build;
    /** getOrCompute() wall, compute callback included. */
    double get = 0.0;
    double pareto = 0.0;
    uint64_t offered = 0;
    uint64_t kept = 0;
    double dilation = 0.0;
    std::vector<dse::DesignPoint> systems;
};

} // namespace

const std::vector<std::string> &
topLevelLayers()
{
    static const std::vector<std::string> layers = {
        "compiler.schedule_ms", "isa.assemble_ms",
        "linker.link_ms",       "trace.emulate_ms",
        "trace.capture_ms",     "core.ahh_ms",
        "cache.sweep_i_ms",     "cache.sweep_d_ms",
        "cache.sweep_u_ms",     "dse.evalcache_get_ms",
        "dse.pareto_ms",        "dse.evalcache_flush_ms"};
    return layers;
}

Ledger
ledgerWalk(const ir::Program &prog, const WalkSettings &ws,
           const dse::MemoryWalker &mem,
           const dse::ExplorationResult &result,
           const std::string &cache_path)
{
    Ledger l;
    for (const auto &layer : topLevelLayers())
        l[layer] = 0.0;
    const auto &o = ws.options;
    const unsigned jobs = support::ThreadPool::resolveJobs(o.jobs);
    support::ThreadPool pool(jobs - 1);

    // Stage 1 (serial, as explore()'s phase 2): reference build,
    // emulation, capture, modeling and the sweeps.
    auto ref_mdes = machine::MachineDesc::fromName(o.referenceMachine);
    ir::Program cls =
        workloads::programForClass(prog, ref_mdes, o.traceBlocks);
    BuildTimes ref_times;
    workloads::MachineBuild ref = timedBuild(cls, ref_mdes, ref_times);
    trace::TraceGenerator gen(cls, ref.sched, ref.bin);

    struct Kind
    {
        trace::TraceKind kind;
        const dse::CacheSpace *space;
        const char *sweep;
    };
    const Kind kinds[] = {
        {trace::TraceKind::Instruction, &ws.spaces.icache,
         "cache.sweep_i_ms"},
        {trace::TraceKind::Data, &ws.spaces.dcache, "cache.sweep_d_ms"},
        {trace::TraceKind::Unified, &ws.spaces.ucache,
         "cache.sweep_u_ms"},
    };
    uint64_t decoded = 0;
    for (const auto &k : kinds) {
        uint64_t refs = 0;
        {
            Timed timed(l["trace.emulate_ms"], "trace.emulate");
            gen.generate(
                k.kind, [&refs](const trace::Access &) { ++refs; },
                o.traceBlocks);
        }
        l["trace.refs"] += static_cast<double>(refs);

        // Materialized outside the ledger so capture and modeling are
        // timed on their own.
        std::vector<trace::Access> accesses =
            gen.collect(k.kind, o.traceBlocks);
        trace::ColumnarTraceBuffer buffer;
        {
            Timed timed(l["trace.capture_ms"], "trace.capture");
            for (const auto &a : accesses)
                buffer.append(a);
        }
        l["trace.encoded_bytes"] +=
            static_cast<double>(buffer.encodedBytes());

        if (k.kind == trace::TraceKind::Instruction) {
            core::ItraceModeler modeler(o.iGranule);
            {
                Timed timed(l["core.ahh_ms"], "core.ahh");
                for (const auto &a : accesses)
                    modeler.access(a);
            }
            l["core.granules"] += static_cast<double>(modeler.granules());
        } else if (k.kind == trace::TraceKind::Unified) {
            core::UtraceModeler modeler(o.uGranule);
            {
                Timed timed(l["core.ahh_ms"], "core.ahh");
                for (const auto &a : accesses)
                    modeler.access(a);
            }
            l["core.granules"] += static_cast<double>(modeler.granules());
        }
        accesses = {};

        // Bank construction (the simulators' tables) belongs to the
        // cache layer just like the sweep itself.
        double sweep_ms = 0.0;
        {
            Timed timed(sweep_ms, "cache.sweep");
            dse::SimBank bank(*k.space);
            bank.simulate(buffer, &pool);
            l["cache.sim_runs"] += static_cast<double>(bank.simRuns());
        }
        l[k.sweep] += sweep_ms;
        l["cache.sweep_refs"] += static_cast<double>(buffer.size());
        if (jobs > 1) {
            // The serial side of cache.sweep_parallel_speedup; extra
            // work, not part of the walk.
            double serial_ms = 0.0;
            {
                Timed timed(serial_ms, "cache.sweep.jobs1");
                dse::SimBank bank(*k.space);
                bank.simulate(buffer, nullptr);
            }
            l["cache.sweep_jobs1_ms"] += serial_ms;
            l["cache.sweep_jobsN_ms"] += sweep_ms;
        }
        {
            Timed timed(l["trace.decode_ms"], "trace.decode");
            trace::BlockScratch scratch;
            for (size_t b = 0; b < buffer.blockCount(); ++b)
                decoded += buffer.decodeBlock(b, scratch).count;
        }
    }
    if (decoded != static_cast<uint64_t>(l["cache.sweep_refs"]))
        throw std::runtime_error("decoded trace lost records");

    // Stage 2 (parallel over designs, as explore()'s phase 3).
    std::unique_ptr<dse::EvaluationCache> cache;
    {
        Timed timed(l["dse.evalcache_get_ms"], "dse.evalcache.load");
        cache = std::make_unique<dse::EvaluationCache>(cache_path);
    }
    const size_t n = ws.machines.size();
    std::vector<DesignWork> work(n);
    const double stage_start = nowSeconds();
    support::parallelFor(n, &pool, [&](size_t i) {
        const std::string &name = ws.machines[i];
        auto mdes = machine::MachineDesc::fromName(name);
        if (mdes.predRegs > 0)
            throw std::runtime_error("predicated machines are not "
                                     "modeled by the ledger: " + name);
        DesignWork &w = work[i];
        std::string key =
            dse::procMetricsKey(prog.name, prog.seed, name, ws.spaces);
        std::vector<double> metrics;
        {
            Timed timed(w.get, "dse.evalcache.get");
            metrics = cache->getOrCompute(key, [&]() {
                auto build = timedBuild(cls, mdes, w.build);
                std::vector<double> v;
                {
                    Timed link(w.build.link, "linker.dilation");
                    v.push_back(linker::textDilation(build.bin, ref.bin));
                }
                v.push_back(static_cast<double>(build.processorCycles));
                Timed sched(w.build.schedule, "compiler.port_cycles");
                for (uint32_t ports : ws.spaces.dcache.portCounts) {
                    v.push_back(static_cast<double>(
                        compiler::Scheduler::processorCycles(
                            cls, build.sched, ports)));
                }
                return v;
            });
        }
        w.dilation = metrics[0];
        Timed timed(w.pareto, "dse.pareto");
        for (size_t pi = 0; pi < ws.spaces.dcache.portCounts.size();
             ++pi) {
            dse::FailureLog failures;
            dse::ParetoSet set = mem.pareto(
                w.dilation, ws.spaces.dcache.portCounts[pi], &failures);
            if (!failures.empty())
                throw std::runtime_error("memory Pareto failed for " +
                                         name);
            w.offered += set.offered();
            w.kept += set.size();
            for (const auto &h : set.points()) {
                w.systems.push_back(dse::DesignPoint{
                    "P" + name + "+" + h.id, mdes.cost() + h.cost,
                    metrics[2 + pi] + h.time});
            }
        }
    });
    const double stage_ms = (nowSeconds() - stage_start) * 1e3;
    double thread_ms = 0.0;
    for (const auto &w : work)
        thread_ms += w.get + w.pareto;
    const double share = thread_ms > 0.0 ? stage_ms / thread_ms : 0.0;

    BuildTimes builds = ref_times;
    for (const auto &w : work) {
        builds.schedule += share * w.build.schedule;
        builds.assemble += share * w.build.assemble;
        builds.link += share * w.build.link;
        builds.builds += w.build.builds;
        l["dse.evalcache_get_ms"] += share * (w.get - w.build.total());
        l["dse.pareto_ms"] += share * w.pareto;
        l["dse.pareto_offered"] += static_cast<double>(w.offered);
        l["dse.pareto_kept"] += static_cast<double>(w.kept);
    }
    l["compiler.schedule_ms"] = builds.schedule;
    l["isa.assemble_ms"] = builds.assemble;
    l["linker.link_ms"] = builds.link;
    l["compiler.builds"] = static_cast<double>(builds.builds);

    // Stage 3 (serial, as explore()'s phase 4): system-level merge
    // and the final flush.
    {
        Timed timed(l["dse.pareto_ms"], "dse.pareto.merge");
        dse::ParetoSet systems;
        for (const auto &w : work) {
            for (const auto &sys : w.systems)
                systems.insertPoint(sys);
        }
    }
    {
        Timed timed(l["dse.evalcache_flush_ms"], "dse.evalcache.flush");
        cache->flush();
    }
    l["dse.evalcache_bytes"] += static_cast<double>(fileBytes(cache_path));
    auto stats = cache->stats();
    l["dse.evalcache_hits"] += static_cast<double>(stats.hits);
    l["dse.evalcache_lookups"] +=
        static_cast<double>(stats.hits + stats.misses);
    cache.reset();

    // Sub-layer: the dilation model's estimates, every I$ and U$
    // configuration at every design's dilation (thread time).
    double estimates = 0.0, sum = 0.0;
    {
        Timed timed(l["core.dilation_ms"], "core.dilation");
        for (const auto &w : work) {
            for (const auto &cfg : ws.spaces.icache.enumerate()) {
                sum += mem.icache().misses(cfg, w.dilation);
                ++estimates;
            }
            for (const auto &cfg : ws.spaces.ucache.enumerate()) {
                sum += mem.ucache().misses(cfg, w.dilation);
                ++estimates;
            }
        }
    }
    l["core.estimates"] += estimates;
    if (!(sum >= 0.0))
        throw std::runtime_error("negative miss estimate");

    // Sub-layer: the verification passes the walk skips (verify 0),
    // on this walk's artifacts, as verify=1 would run them.
    {
        Timed timed(l["verify.ms"], "verify");
        verify::Diagnostics diags;
        verify::verifyCacheSpace(ws.spaces.icache, "icache space", diags);
        verify::verifyCacheSpace(ws.spaces.dcache, "dcache space", diags);
        verify::verifyCacheSpace(ws.spaces.ucache, "ucache space", diags);
        verify::verifyProgram(cls, diags);
        verify::verifyLayout(cls, ref.bin, diags);
        verify::verifyAhhParams(mem.icache().params(), o.iGranule,
                                "instruction trace", diags);
        verify::verifyAhhParams(mem.ucache().instrParams(), o.uGranule,
                                "unified instruction trace", diags);
        verify::verifyAhhParams(mem.ucache().dataParams(), o.uGranule,
                                "unified data trace", diags);
        verify::verifyColumnarTrace(mem.icache().capturedTrace(),
                                    "instruction trace", diags);
        verify::verifyColumnarTrace(mem.dcache().capturedTrace(),
                                    "data trace", diags);
        verify::verifyColumnarTrace(mem.ucache().capturedTrace(),
                                    "unified trace", diags);
        auto i_acc = static_cast<double>(mem.icache().bank().accesses());
        auto d_acc = static_cast<double>(mem.dcache().bank().accesses());
        auto u_acc = static_cast<double>(mem.ucache().bank().accesses());
        for (const auto &cfg : ws.spaces.icache.enumerate())
            verify::verifyMissCount(mem.icache().misses(cfg, 1.0), i_acc,
                                    "I$" + cfg.name(), diags);
        for (const auto &cfg : ws.spaces.dcache.enumerate())
            verify::verifyMissCount(mem.dcache().misses(cfg), d_acc,
                                    "D$" + cfg.name(), diags);
        for (const auto &cfg : ws.spaces.ucache.enumerate())
            verify::verifyMissCount(mem.ucache().misses(cfg, 1.0), u_acc,
                                    "U$" + cfg.name(), diags);
        if (ws.spaces.dcache.extendedAxes()) {
            auto stores =
                static_cast<double>(mem.dcache().bank().stores());
            for (const auto &cfg : ws.spaces.dcache.enumerate())
                verify::verifyWriteModel(mem.dcache().writeTraffic(cfg),
                                         mem.dcache().misses(cfg), stores,
                                         cfg.write, "D$" + cfg.name(),
                                         diags);
        }
        if (ws.spaces.ucache.extendedAxes()) {
            auto stores =
                static_cast<double>(mem.ucache().bank().stores());
            for (const auto &cfg : ws.spaces.ucache.enumerate())
                verify::verifyWriteModel(
                    mem.ucache().writeTraffic(cfg),
                    mem.ucache().misses(cfg, 1.0), stores, cfg.write,
                    "U$" + cfg.name(), diags);
        }
        verify::verifyWalkResult(result, n, diags);
        verify::verifyCacheFile(cache_path, diags);
        l["verify.errors"] += static_cast<double>(diags.errorCount());
    }

    double total = 0.0;
    for (const auto &layer : topLevelLayers())
        total += l[layer];
    l["ledger.total_ms"] = total;
    return l;
}

} // namespace perfbench
