/**
 * @file
 * Frozen reference simulations: what a walk reads from one swept
 * trace-equivalence class (paper sections 3.3 and 5).
 *
 * After the sweep, answering a processor needs only a few numbers per
 * class: the miss count of every configuration a bank covers, the
 * write-back count of every geometry of the policy axes, the access and
 * store counts, the AHH trace parameters and the reference binary's
 * text size. A ReferenceSet holds exactly those, in flat tables
 * indexed by (line, sets, assoc) per replacement policy, and encodes
 * to one evaluation-cache entry of a few kilobytes. Every walk answers
 * its queries from such a set, whether it swept the class itself or
 * found the set in the cache.
 */

#ifndef PICO_DSE_REFERENCE_SET_HPP
#define PICO_DSE_REFERENCE_SET_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/SetResidentSim.hpp"
#include "core/DilationModel.hpp"
#include "core/TraceModel.hpp"
#include "dse/CacheSpace.hpp"

namespace pico::dse
{

/** Which configurations a bank's Cheetah simulators cover. */
enum class Coverage
{
    /** Every line from one word up, over the space's set range. */
    ContractedLines,
    /** Only the line sizes and set bands the space enumerates. */
    Enumerated,
};

/**
 * The simulators a SimBank builds for one cache space, without their
 * state, and where each configuration's count lives in the bank's
 * frozen tables. The live bank writes its tables in this order and
 * the frozen bank reads them through these slots, so a set decoded
 * from the cache lines up with the bank that swept it.
 *
 * The miss table holds every stack cell, stack by stack, with set
 * counts ascending and then associativities ascending; then the
 * shapes of each non-LRU resident (LRU misses come from the stacks).
 * The write-back table holds the shapes of every resident; an LRU
 * resident's write-backs are counted by the stack at its line.
 */
struct BankLayout
{
    /** One Cheetah simulator: every (sets, assoc) of its range. */
    struct Stack
    {
        uint32_t line = 0;
        uint32_t minSets = 0;
        uint32_t maxSets = 0;
        uint32_t maxAssoc = 0;

        /** Number of cells: set counts times associativities. */
        size_t cells() const;

        bool operator==(const Stack &) const = default;
    };

    /**
     * One policy's geometries at one line, sorted, unique: a
     * set-resident simulator for FIFO and random, write-back cells
     * of the stack at its line for LRU.
     */
    struct Resident
    {
        uint32_t line = 0;
        cache::ReplacementPolicy policy = cache::ReplacementPolicy::LRU;
        std::vector<cache::SetResidentSim::Geometry> shapes;

        bool operator==(const Resident &) const = default;
    };

    BankLayout() = default;
    BankLayout(const CacheSpace &space, Coverage coverage);

    /** Length of the miss table. */
    size_t missCount() const;

    /** Length of the write-back table. */
    size_t writebackCount() const;

    /** Miss-table slot of a configuration, or -1 when not covered. */
    int64_t missSlot(const cache::CacheConfig &config) const;

    /** Write-back-table slot of a geometry, or -1 when not covered. */
    int64_t writebackSlot(const cache::CacheConfig &config) const;

    bool operator==(const BankLayout &) const = default;

    std::vector<Stack> stacks;
    std::vector<Resident> residents;
};

/**
 * The frozen answers of one swept SimBank. A query is one slot
 * computation over the bank's layout plus one table read, and a
 * configuration outside the bank's coverage fails with fatal().
 */
class FrozenBank
{
  public:
    FrozenBank() = default;

    /**
     * @param misses one count per miss-table slot of the layout
     * @param writebacks one count per write-back-table slot
     */
    FrozenBank(BankLayout layout, uint64_t accesses, uint64_t stores,
               std::vector<double> misses,
               std::vector<double> writebacks);

    /** Simulated misses of a covered configuration. */
    double misses(const cache::CacheConfig &config) const;

    /**
     * Simulated memory writes of a covered configuration under its
     * write policy: dirty-line writebacks for write-back, the trace's
     * store count for write-through. A classic bank (no policy axes)
     * models no write traffic: write-back returns 0, consistent with
     * the read-only stall model.
     */
    double writeTraffic(const cache::CacheConfig &config) const;

    /** Store references (extended banks only). */
    uint64_t stores() const;

    uint64_t accesses() const { return accesses_; }
    bool covers(const cache::CacheConfig &config) const;

    /** True when the bank's space had extended policy axes. */
    bool extended() const { return !layout_.residents.empty(); }

    /** Oracle adapter for the dilation model. */
    core::MissOracle oracle() const;

    const std::vector<double> &missTable() const { return misses_; }
    const std::vector<double> &writebackTable() const
    {
        return writebacks_;
    }

    bool operator==(const FrozenBank &) const = default;

  private:
    BankLayout layout_;
    std::vector<double> misses_;
    std::vector<double> writebacks_;
    uint64_t accesses_ = 0;
    uint64_t stores_ = 0;
};

/**
 * Everything phase 3 reads from one trace-equivalence class. The
 * encoding is a flat vector of doubles (counts below 2^53 are exact):
 *
 *     version, textBytes, I.u1, I.p1, I.lav, UI.u1, UI.p1, UI.lav,
 *     UD.u1, UD.p1, UD.lav,
 *     then per bank (I$, D$, U$): accesses, stores,
 *     nMisses, misses..., nWritebacks, writebacks...
 *
 * Table order is the bank layout's (see BankLayout), derived from
 * the cache spaces, so the entry holds no geometry.
 */
struct ReferenceSet
{
    /** Encoding version; also part of the evaluation-cache key. */
    static constexpr uint32_t layoutVersion = 1;

    /** Text size of the reference binary (the dilation divisor). */
    uint64_t textBytes = 0;
    /** Instruction-trace parameters (I$ dilation model). */
    core::ComponentParams iParams;
    /** The unified trace's instruction and data components. */
    core::ComponentParams uiParams;
    core::ComponentParams udParams;
    FrozenBank icache;
    FrozenBank dcache;
    FrozenBank ucache;

    std::vector<double> encode() const;

    /**
     * Decode an entry for these spaces and the AHH granules its key
     * names (i_granule for the instruction trace, u_granule for the
     * unified trace). Checks the version, every AHH parameter triple
     * against the model's domain for its granule
     * (ComponentParams::domainErrors), every table length against the
     * spaces' bank layouts, and every count (a non-negative integer
     * no larger than its access count).
     * @return nullopt with `reason` filled when malformed
     */
    static std::optional<ReferenceSet>
    decode(const std::vector<double> &values, const MemorySpaces &spaces,
           uint64_t i_granule, uint64_t u_granule,
           std::string *reason = nullptr);

    bool operator==(const ReferenceSet &) const = default;
};

} // namespace pico::dse

#endif // PICO_DSE_REFERENCE_SET_HPP
