/**
 * @file
 * Shared context for the experiment benches: builds the benchmark
 * suite for the paper's machines, caches traces, and provides the
 * simulate/estimate helpers every table and figure needs.
 */

#ifndef PICO_BENCH_BENCH_COMMON_HPP
#define PICO_BENCH_BENCH_COMMON_HPP

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cache/CacheConfig.hpp"
#include "core/TraceModel.hpp"
#include "ir/Program.hpp"
#include "support/Table.hpp"
#include "trace/Access.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico::bench
{

/** Machines of the paper's experiments, reference first. */
extern const std::vector<std::string> paperMachines;

/** Block-entry budget used for all experiment traces. */
constexpr uint64_t traceBlocks = 40000;
/** Block-entry budget used for profiling. */
constexpr uint64_t profileBlocks = 40000;
/** Granule sizes (paper section 5.2). */
constexpr uint64_t iGranule = 10000;
constexpr uint64_t uGranule = 100000;

/** The paper's four evaluation cache configurations (section 6). */
cache::CacheConfig smallIcache();  ///< 1KB direct-mapped, 32B lines
cache::CacheConfig largeIcache();  ///< 16KB 2-way, 32B lines
cache::CacheConfig smallDcache();  ///< 1KB direct-mapped, 32B lines
cache::CacheConfig largeDcache();  ///< 16KB 2-way, 32B lines
cache::CacheConfig smallUcache();  ///< 16KB 2-way, 64B lines
cache::CacheConfig largeUcache();  ///< 128KB 4-way, 64B lines

/** One application compiled for every machine in the study. */
class AppContext
{
  public:
    explicit AppContext(const workloads::AppSpec &spec);

    const std::string &name() const { return name_; }
    const ir::Program &program() const { return prog_; }

    /** Build (schedule + binary) for a machine name. */
    const workloads::MachineBuild &build(const std::string &m) const;

    /** Text dilation of a machine w.r.t. the 1111 reference. */
    double dilation(const std::string &m) const;

    /**
     * Address trace of a machine, cached after first use.
     * @param m machine name
     * @param kind trace kind
     */
    const std::vector<trace::Access> &
    traceFor(const std::string &m, trace::TraceKind kind) const;

    /**
     * Reference trace with the instruction component dilated by d
     * (not cached; streams into the sink).
     */
    uint64_t dilatedTrace(
        trace::TraceKind kind, double d,
        const std::function<void(const trace::Access &)> &sink) const;

    /** Misses of one cache on a machine's trace. */
    uint64_t simulate(const std::string &m, trace::TraceKind kind,
                      const cache::CacheConfig &cfg) const;

    /** Misses of one cache on the dilated reference trace. */
    uint64_t simulateDilated(trace::TraceKind kind, double d,
                             const cache::CacheConfig &cfg) const;

    /** AHH parameters of the reference instruction trace. */
    const core::ComponentParams &instrParams() const;
    /** AHH parameters of the reference unified trace components. */
    const core::ComponentParams &unifiedInstrParams() const;
    const core::ComponentParams &unifiedDataParams() const;

  private:
    void fitParams() const;

    std::string name_;
    ir::Program prog_;
    std::map<std::string, workloads::MachineBuild> builds_;
    mutable std::map<std::pair<std::string, int>,
                     std::vector<trace::Access>>
        traces_;
    mutable bool paramsReady_ = false;
    mutable core::ComponentParams iParams_;
    mutable core::ComponentParams uiParams_;
    mutable core::ComponentParams udParams_;
};

/** Which of the paper's four evaluation caches to use. */
enum class EvalCache
{
    SmallI, ///< 1KB direct-mapped I-cache
    LargeI, ///< 16KB 2-way I-cache
    SmallU, ///< 16KB 2-way unified cache
    LargeU, ///< 128KB 4-way unified cache
};

/** The three bars of figure 7 / table 4 for one design point. */
struct MissTriple
{
    /** Misses simulating the target machine's own trace. */
    double actual = 0.0;
    /** Misses simulating the dilated reference trace. */
    double dilated = 0.0;
    /** Misses from the dilation model (no extra simulation). */
    double estimated = 0.0;
    /** Misses of the reference machine (normalization base). */
    double reference = 0.0;
};

/** Configuration object for an EvalCache selector. */
cache::CacheConfig evalConfig(EvalCache which);

/** True for the unified-cache selectors. */
bool isUnified(EvalCache which);

/**
 * Compute actual / dilated / estimated misses for one application,
 * machine, and evaluation cache (the cell of table 4).
 */
MissTriple evaluateTriple(const AppContext &app,
                          const std::string &machine,
                          EvalCache which);

/** Build contexts for the whole suite (ten applications). */
std::vector<AppContext> buildSuite();

/** Build one context by benchmark name. */
AppContext buildApp(const std::string &name);

/**
 * The app a bench names in its one optional argument (`--json-out`
 * already extracted), or `fallback` without one. A flag such as
 * --help, an unknown app or a second argument prints one reason and
 * the usage line on stderr and exits 2, before the bench prints or
 * builds anything.
 */
std::string appArg(int argc, char **argv, const std::string &fallback);

/**
 * Machine-readable bench results: collects the tables and scalar
 * metrics a bench prints and writes them as one deterministic JSON
 * document (`BENCH_<name>.json` by default), so CI can archive and
 * diff experiment results instead of scraping stdout.
 */
class BenchReport
{
  public:
    /** Schema tag written into every document. */
    static constexpr const char *schema = "picoeval-bench-v1";

    /** @param name bench identifier (e.g. "table2"). */
    explicit BenchReport(std::string name);

    /** Record a finished table (call after the rows are added). */
    void addTable(const TextTable &table);

    /** Record one scalar result. */
    void setMetric(const std::string &key, double value);
    void setMetric(const std::string &key, uint64_t value);

    /** Attach one configuration fact (string-valued). */
    void setInfo(const std::string &key, const std::string &value);

    /** Render the document (sorted keys, fixed formatting). */
    std::string toJson() const;

    /**
     * Write `BENCH_<name>.json` into `dir` (default: the working
     * directory). @return false (after a warn()) on I/O failure.
     */
    bool write(const std::string &dir = ".") const;

    /**
     * Write the document to an explicit file path (the
     * `--json-out <path>` contract every bench binary honors).
     * @return false (after a warn()) on I/O failure
     */
    bool writeTo(const std::string &path) const;

  private:
    struct Table
    {
        std::string title;
        std::vector<std::string> header;
        std::vector<std::vector<std::string>> rows;
    };

    std::string name_;
    std::vector<Table> tables_;
    std::map<std::string, std::string> metrics_;
    std::map<std::string, std::string> info_;
};

/**
 * Extract a `--json-out <path>` (or `--json-out=<path>`) argument
 * and remove it from argv, so argument parsers that reject unknown
 * flags (google-benchmark) never see it.
 * @return the path, or "" when the flag is absent
 */
std::string extractJsonOutArg(int &argc, char **argv);

/**
 * Write a finished report honoring the uniform `--json-out` flag:
 * to `json_out` when non-empty, else `BENCH_<name>.json` in the
 * working directory.
 * @return false (after a warn()) on I/O failure
 */
bool writeReport(const BenchReport &report,
                 const std::string &json_out);

/** What pairedOverhead() measured: the cost of `on` over `off`. */
struct PairedOverhead
{
    /** Pairs timed. */
    int pairs = 0;
    /** Median wall time of each side, in ns. */
    uint64_t offNs = 0;
    uint64_t onNs = 0;
    /** Per-pair overhead, on / off - 1 in percent: median and
     *  quartiles (nearest rank). */
    double percent = 0.0;
    double q1Percent = 0.0;
    double q3Percent = 0.0;
};

/**
 * Time the two sides of an overhead check in alternating pairs. After
 * one untimed call of each side (caches fill, lazy set-up finishes),
 * `off` and `on` run back to back in each of ten pairs, and the side
 * that runs first alternates from pair to pair, so drift on a shared
 * host moves both sides instead of one. Each call is one sample; the
 * per-pair overhead is read pair by pair, so a slow stretch of the
 * host skews one pair, not a whole side.
 */
PairedOverhead pairedOverhead(const std::function<void()> &off,
                              const std::function<void()> &on);

} // namespace pico::bench

#endif // PICO_BENCH_BENCH_COMMON_HPP
