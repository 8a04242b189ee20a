#include "bench/BenchCommon.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cache/CacheSim.hpp"
#include "core/DilationModel.hpp"
#include "core/TraceModel.hpp"
#include "linker/LinkedBinary.hpp"
#include "machine/MachineDesc.hpp"
#include "support/Logging.hpp"
#include "support/Metrics.hpp"
#include "support/RunReport.hpp"
#include "support/Stats.hpp"
#include "trace/TraceGenerator.hpp"

namespace pico::bench
{

const std::vector<std::string> paperMachines = {"1111", "2111", "3221",
                                                "4221", "6332"};

cache::CacheConfig
smallIcache()
{
    return cache::CacheConfig::fromSize(1024, 1, 32);
}

cache::CacheConfig
largeIcache()
{
    return cache::CacheConfig::fromSize(16384, 2, 32);
}

cache::CacheConfig
smallDcache()
{
    return cache::CacheConfig::fromSize(1024, 1, 32);
}

cache::CacheConfig
largeDcache()
{
    return cache::CacheConfig::fromSize(16384, 2, 32);
}

cache::CacheConfig
smallUcache()
{
    return cache::CacheConfig::fromSize(16384, 2, 64);
}

cache::CacheConfig
largeUcache()
{
    return cache::CacheConfig::fromSize(131072, 4, 64);
}

AppContext::AppContext(const workloads::AppSpec &spec)
    : name_(spec.name)
{
    prog_ = workloads::buildAndProfile(spec, profileBlocks);
    for (const auto &m : paperMachines) {
        builds_.emplace(m, workloads::buildFor(
                               prog_, machine::MachineDesc::fromName(m)));
    }
}

const workloads::MachineBuild &
AppContext::build(const std::string &m) const
{
    auto it = builds_.find(m);
    fatalIf(it == builds_.end(), "unknown machine '", m, "'");
    return it->second;
}

double
AppContext::dilation(const std::string &m) const
{
    return linker::textDilation(build(m).bin, build("1111").bin);
}

const std::vector<trace::Access> &
AppContext::traceFor(const std::string &m, trace::TraceKind kind) const
{
    auto key = std::make_pair(m, static_cast<int>(kind));
    auto it = traces_.find(key);
    if (it != traces_.end())
        return it->second;
    const auto &b = build(m);
    trace::TraceGenerator gen(prog_, b.sched, b.bin);
    auto trace = gen.collect(kind, traceBlocks);
    return traces_.emplace(key, std::move(trace)).first->second;
}

uint64_t
AppContext::dilatedTrace(
    trace::TraceKind kind, double d,
    const std::function<void(const trace::Access &)> &sink) const
{
    const auto &b = build("1111");
    trace::TraceGenerator gen(prog_, b.sched, b.bin);
    return gen.generateDilated(kind, d, sink, traceBlocks);
}

uint64_t
AppContext::simulate(const std::string &m, trace::TraceKind kind,
                     const cache::CacheConfig &cfg) const
{
    cache::CacheSim sim(cfg);
    for (const auto &a : traceFor(m, kind))
        sim.access(a.addr, a.isWrite);
    return sim.misses();
}

uint64_t
AppContext::simulateDilated(trace::TraceKind kind, double d,
                            const cache::CacheConfig &cfg) const
{
    cache::CacheSim sim(cfg);
    dilatedTrace(kind, d, [&sim](const trace::Access &a) {
        sim.access(a.addr, a.isWrite);
    });
    return sim.misses();
}

void
AppContext::fitParams() const
{
    if (paramsReady_)
        return;
    core::ItraceModeler imod(iGranule);
    for (const auto &a :
         traceFor("1111", trace::TraceKind::Instruction))
        imod.access(a);
    iParams_ = imod.params();

    core::UtraceModeler umod(uGranule);
    for (const auto &a : traceFor("1111", trace::TraceKind::Unified))
        umod.access(a);
    uiParams_ = umod.instrParams();
    udParams_ = umod.dataParams();
    paramsReady_ = true;
}

const core::ComponentParams &
AppContext::instrParams() const
{
    fitParams();
    return iParams_;
}

const core::ComponentParams &
AppContext::unifiedInstrParams() const
{
    fitParams();
    return uiParams_;
}

const core::ComponentParams &
AppContext::unifiedDataParams() const
{
    fitParams();
    return udParams_;
}

cache::CacheConfig
evalConfig(EvalCache which)
{
    switch (which) {
      case EvalCache::SmallI:
        return smallIcache();
      case EvalCache::LargeI:
        return largeIcache();
      case EvalCache::SmallU:
        return smallUcache();
      case EvalCache::LargeU:
        return largeUcache();
    }
    panic("unknown EvalCache");
}

bool
isUnified(EvalCache which)
{
    return which == EvalCache::SmallU || which == EvalCache::LargeU;
}

MissTriple
evaluateTriple(const AppContext &app, const std::string &machine,
               EvalCache which)
{
    auto cfg = evalConfig(which);
    auto kind = isUnified(which) ? trace::TraceKind::Unified
                                 : trace::TraceKind::Instruction;
    double d = app.dilation(machine);

    MissTriple out;
    out.reference =
        static_cast<double>(app.simulate("1111", kind, cfg));
    out.actual = static_cast<double>(app.simulate(machine, kind, cfg));
    out.dilated =
        static_cast<double>(app.simulateDilated(kind, d, cfg));

    core::DilationModel model(app.instrParams(),
                              app.unifiedInstrParams(),
                              app.unifiedDataParams());
    if (isUnified(which)) {
        out.estimated =
            model.estimateUcacheMisses(cfg, d, out.reference);
    } else {
        core::MissOracle oracle =
            [&app](const cache::CacheConfig &c) {
                return static_cast<double>(app.simulate(
                    "1111", trace::TraceKind::Instruction, c));
            };
        out.estimated = model.estimateIcacheMisses(cfg, d, oracle);
    }
    return out;
}

std::vector<AppContext>
buildSuite()
{
    std::vector<AppContext> suite;
    for (const auto &spec : workloads::paperSuite())
        suite.emplace_back(spec);
    return suite;
}

AppContext
buildApp(const std::string &name)
{
    return AppContext(workloads::specByName(name));
}

std::string
appArg(int argc, char **argv, const std::string &fallback)
{
    const std::string name = argc > 1 ? argv[1] : fallback;
    auto reject = [&](const std::string &reason) {
        if (!reason.empty())
            std::cerr << argv[0] << ": " << reason << "\n";
        std::cerr << "usage: " << argv[0] << " [app] [--json-out FILE]\n";
        std::exit(2);
    };
    if (argc > 2)
        reject("unexpected argument '" + std::string(argv[2]) + "'");
    if (name.rfind('-', 0) == 0)
        reject("unknown flag '" + name + "'");
    try {
        workloads::specByName(name);
    } catch (const FatalError &) {
        // fatal() has already printed the reason.
        reject("");
    }
    return name;
}

// --- BenchReport -------------------------------------------------------

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void
BenchReport::addTable(const TextTable &table)
{
    tables_.push_back(
        Table{table.title(), table.header(), table.rowData()});
}

void
BenchReport::setMetric(const std::string &key, double value)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << value;
    metrics_[key] = oss.str();
}

void
BenchReport::setMetric(const std::string &key, uint64_t value)
{
    metrics_[key] = std::to_string(value);
}

void
BenchReport::setInfo(const std::string &key, const std::string &value)
{
    info_[key] = value;
}

std::string
BenchReport::toJson() const
{
    using support::jsonEscape;
    std::ostringstream os;
    os << "{\"schema\":\"" << schema << "\",\"bench\":\""
       << jsonEscape(name_) << "\",\"git\":\""
       << jsonEscape(support::buildVersion()) << "\",\"info\":{";
    bool first = true;
    for (const auto &[key, value] : info_) {
        os << (first ? "" : ",") << '"' << jsonEscape(key)
           << "\":\"" << jsonEscape(value) << '"';
        first = false;
    }
    os << "},\"metrics\":{";
    first = true;
    for (const auto &[key, value] : metrics_) {
        // Values are pre-formatted JSON numbers.
        os << (first ? "" : ",") << '"' << jsonEscape(key)
           << "\":" << value;
        first = false;
    }
    os << "},\"tables\":[";
    for (size_t t = 0; t < tables_.size(); ++t) {
        const auto &table = tables_[t];
        os << (t ? "," : "") << "{\"title\":\""
           << jsonEscape(table.title) << "\",\"header\":[";
        for (size_t i = 0; i < table.header.size(); ++i)
            os << (i ? "," : "") << '"' << jsonEscape(table.header[i])
               << '"';
        os << "],\"rows\":[";
        for (size_t r = 0; r < table.rows.size(); ++r) {
            os << (r ? "," : "") << '[';
            for (size_t i = 0; i < table.rows[r].size(); ++i)
                os << (i ? "," : "") << '"'
                   << jsonEscape(table.rows[r][i]) << '"';
            os << ']';
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

bool
BenchReport::write(const std::string &dir) const
{
    return writeTo(dir + "/BENCH_" + name_ + ".json");
}

bool
BenchReport::writeTo(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("cannot write bench report '", path, "'");
        return false;
    }
    out << toJson() << '\n';
    out.flush();
    if (!out) {
        warn("writing bench report '", path, "' failed");
        return false;
    }
    inform("bench report written to ", path);
    return true;
}

std::string
extractJsonOutArg(int &argc, char **argv)
{
    const std::string flag = "--json-out";
    std::string path;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == flag && i + 1 < argc) {
            path = argv[++i];
            continue;
        }
        if (arg.rfind(flag + "=", 0) == 0) {
            path = arg.substr(flag.size() + 1);
            continue;
        }
        argv[w++] = argv[i];
    }
    argc = w;
    argv[argc] = nullptr;
    return path;
}

bool
writeReport(const BenchReport &report, const std::string &json_out)
{
    return json_out.empty() ? report.write()
                            : report.writeTo(json_out);
}

// --- pairedOverhead ----------------------------------------------------

namespace
{

/** Wall time of one call, in ns. */
double
timedCall(const std::function<void()> &side)
{
    const uint64_t start = support::monotonicNowNs();
    side();
    return static_cast<double>(support::monotonicNowNs() - start);
}

} // namespace

PairedOverhead
pairedOverhead(const std::function<void()> &off,
               const std::function<void()> &on)
{
    constexpr int pairs = 10;
    off();
    on();
    WeightedDistribution off_ns, on_ns, percent;
    for (int p = 0; p < pairs; ++p) {
        double on_time = p % 2 ? timedCall(on) : 0.0;
        const double off_time = timedCall(off);
        if (p % 2 == 0)
            on_time = timedCall(on);
        off_ns.add(off_time);
        on_ns.add(on_time);
        percent.add(100.0 * (on_time / off_time - 1.0));
    }
    PairedOverhead out;
    out.pairs = pairs;
    out.offNs = static_cast<uint64_t>(off_ns.quantile(0.5));
    out.onNs = static_cast<uint64_t>(on_ns.quantile(0.5));
    out.percent = percent.quantile(0.5);
    out.q1Percent = percent.quantile(0.25);
    out.q3Percent = percent.quantile(0.75);
    return out;
}

} // namespace pico::bench
