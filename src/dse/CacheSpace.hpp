/**
 * @file
 * Parameterized cache design-space specification.
 *
 * Mirrors the paper's design-space spec: a cache space is the cross
 * product of total sizes, associativities, line sizes and port
 * counts; infeasible combinations (fewer lines than ways, non
 * power-of-two set counts) are skipped during enumeration.
 */

#ifndef PICO_DSE_CACHE_SPACE_HPP
#define PICO_DSE_CACHE_SPACE_HPP

#include <cstdint>
#include <vector>

#include "cache/CacheConfig.hpp"

namespace pico::dse
{

/** Cross-product specification of a cache subspace. */
struct CacheSpace
{
    std::vector<uint64_t> sizesBytes;
    std::vector<uint32_t> assocs;
    std::vector<uint32_t> lineSizes;
    std::vector<uint32_t> portCounts = {1};
    /** Replacement-policy axis; {LRU} keeps the classic space. */
    std::vector<cache::ReplacementPolicy> replacements = {
        cache::ReplacementPolicy::LRU};
    /** Write-policy axis; {WriteBack} keeps the classic space. */
    std::vector<cache::WritePolicy> writePolicies = {
        cache::WritePolicy::WriteBack};

    /**
     * True when the policy axes extend beyond the classic
     * LRU/write-back space. Extended spaces pay for set-resident
     * simulation and get a distinct evaluation-cache key schema;
     * default spaces stay on the pure Cheetah path with byte-
     * identical results and keys.
     */
    bool extendedAxes() const;

    /** All feasible configurations in the space. */
    std::vector<cache::CacheConfig> enumerate() const;

    /** Distinct line sizes, ascending; one Cheetah run each. */
    std::vector<uint32_t> distinctLineSizes() const;

    /** Largest set count over the space (Cheetah range sizing). */
    uint32_t maxSets() const;

    /** Smallest set count over the space. */
    uint32_t minSets() const;

    /** Largest associativity over the space. */
    uint32_t maxAssoc() const;

    /** The paper's example sizing: a space of about 20 caches. */
    static CacheSpace defaultL1Space();

    /** Default L2 space (larger sizes, longer lines). */
    static CacheSpace defaultL2Space();
};

/** The three cache subspaces of a memory-hierarchy exploration. */
struct MemorySpaces
{
    CacheSpace icache = CacheSpace::defaultL1Space();
    CacheSpace dcache = CacheSpace::defaultL1Space();
    CacheSpace ucache = CacheSpace::defaultL2Space();
};

} // namespace pico::dse

#endif // PICO_DSE_CACHE_SPACE_HPP
