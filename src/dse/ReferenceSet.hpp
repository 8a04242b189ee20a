/**
 * @file
 * Frozen reference simulations: what a walk reads from one swept
 * trace-equivalence class (paper sections 3.3 and 5).
 *
 * After the sweep, answering a processor needs only a few numbers per
 * class: the miss count of every configuration a bank covers, the
 * write-back count of every set-resident geometry, the access and
 * store counts, the AHH trace parameters and the reference binary's
 * text size. A ReferenceSet holds exactly those, in flat tables
 * indexed by (line, sets, assoc) per replacement policy, and encodes
 * to one evaluation-cache entry of a few kilobytes. Every walk answers
 * its queries from such a set, whether it swept the class itself or
 * found the set in the cache.
 */

#ifndef PICO_DSE_REFERENCE_SET_HPP
#define PICO_DSE_REFERENCE_SET_HPP

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
 * state. The live bank and its frozen tables share this shape, so a
 * set decoded from the cache lines up with the bank that swept it.
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
    };

    /** One set-resident simulator: its geometries, sorted, unique. */
    struct Resident
    {
        uint32_t line = 0;
        cache::ReplacementPolicy policy = cache::ReplacementPolicy::LRU;
        std::vector<cache::SetResidentSim::Geometry> shapes;
    };

    BankLayout(const CacheSpace &space, Coverage coverage);

    /**
     * The configurations of the frozen miss table, in table order:
     * every stack cell in (sets, assoc) order, then every shape of
     * each non-LRU resident (LRU misses come from the stacks).
     */
    std::vector<cache::CacheConfig> missCells() const;

    /** The write-back table's configurations: every resident shape. */
    std::vector<cache::CacheConfig> writebackCells() const;

    std::vector<Stack> stacks;
    std::vector<Resident> residents;
};

/**
 * The frozen answers of one swept SimBank. Queries cost one scan over
 * at most a few (policy, line) grids plus one table read, and a
 * configuration outside the bank's coverage fails as the live bank
 * does.
 */
class FrozenBank
{
  public:
    FrozenBank() = default;

    /**
     * @param misses one count per layout.missCells() entry
     * @param writebacks one count per layout.writebackCells() entry
     */
    FrozenBank(const BankLayout &layout, uint64_t accesses,
               uint64_t stores, std::vector<double> misses,
               std::vector<double> writebacks);

    /** Simulated misses of a covered configuration. */
    double misses(const cache::CacheConfig &config) const;

    /** Memory writes under the config's write policy (see SimBank). */
    double writeTraffic(const cache::CacheConfig &config) const;

    /** Store references (extended banks only). */
    uint64_t stores() const;

    uint64_t accesses() const { return accesses_; }
    bool covers(const cache::CacheConfig &config) const;
    bool extended() const { return extended_; }

    /** Oracle adapter for the dilation model. */
    core::MissOracle oracle() const;

    const std::vector<double> &missTable() const { return misses_; }
    const std::vector<double> &writebackTable() const
    {
        return writebacks_;
    }

    bool operator==(const FrozenBank &) const = default;

  private:
    /** The cells of one (policy, line) pair. */
    struct Grid
    {
        cache::ReplacementPolicy policy = cache::ReplacementPolicy::LRU;
        uint32_t line = 0;
        uint32_t minSets = 0;
        uint32_t maxSets = 0;
        uint32_t maxAssoc = 0;
        /** [level * maxAssoc + assoc - 1]: table index, -1 = none. */
        std::vector<int32_t> slots;

        bool operator==(const Grid &) const = default;
    };

    /** Grids over `cells`, each cell mapped to its table index. */
    static std::vector<Grid>
    index(const std::vector<cache::CacheConfig> &cells);

    /** Table index of a configuration, or -1 when not covered. */
    static int32_t find(const std::vector<Grid> &grids,
                        const cache::CacheConfig &config);

    std::vector<Grid> missGrids_;
    std::vector<Grid> writebackGrids_;
    std::vector<double> misses_;
    std::vector<double> writebacks_;
    uint64_t accesses_ = 0;
    uint64_t stores_ = 0;
    bool extended_ = false;
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
 * Table order is the bank layout's (BankLayout::missCells and
 * writebackCells), derived from the cache spaces, so the entry holds
 * no geometry.
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
     * Decode an entry for these spaces. Checks the version, every
     * table length against the spaces' bank layouts, and every count
     * (a non-negative integer no larger than its access count).
     * @return nullopt with `reason` filled when malformed
     */
    static std::optional<ReferenceSet>
    decode(const std::vector<double> &values, const MemorySpaces &spaces,
           std::string *reason = nullptr);

    bool operator==(const ReferenceSet &) const = default;
};

} // namespace pico::dse

#endif // PICO_DSE_REFERENCE_SET_HPP
