/**
 * @file
 * Reference single-configuration cache simulator (the oracle).
 *
 * Replacement is LRU, FIFO, or random per CacheConfig::replacement;
 * write handling is write-back or write-through per
 * CacheConfig::write. Both write policies are write-allocate, so
 * miss counts depend only on the replacement policy; the policies
 * differ in memory write traffic (writebacks() for write-back, stores
 * forwarded for write-through — see writeTraffic()).
 * Compulsory (first-reference) misses are tracked separately so
 * model validation can exclude start-up misses the way the AHH model
 * does.
 *
 * Random replacement draws victims from a deterministic per-geometry
 * stream (policyRng) so two simulators of the same geometry — or the
 * set-resident fast simulator — produce bit-identical results.
 */

#ifndef PICO_CACHE_CACHE_SIM_HPP
#define PICO_CACHE_CACHE_SIM_HPP

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cache/CacheConfig.hpp"
#include "cache/Policy.hpp"
#include "support/Random.hpp"
#include "trace/Access.hpp"

namespace pico::cache
{

/** Outcome of one cache access. */
struct AccessResult
{
    bool hit = false;
    /** A valid line was evicted to make room. */
    bool hasVictim = false;
    /** Line id (addr / lineBytes) of the victim, if any. */
    uint64_t victimLine = 0;
};

/** Set-associative cache, one configuration per instance. */
class CacheSim
{
  public:
    explicit CacheSim(const CacheConfig &config,
                      bool track_compulsory = false,
                      uint64_t policy_seed = policyDefaultSeed);

    /** Simulate one reference; returns hit/miss and any victim. */
    AccessResult access(uint64_t addr, bool write = false);

    /** Sink-compatible overload. */
    void
    operator()(const trace::Access &a)
    {
        access(a.addr, a.isWrite);
    }

    /** Invalidate one line by line id (inclusion back-invalidate). */
    void invalidateLine(uint64_t line_id);

    /** Invalidate every line overlapping [addr_lo, addr_hi). */
    void invalidateRange(uint64_t addr_lo, uint64_t addr_hi);

    const CacheConfig &config() const { return config_; }
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    /** First-reference (start-up) misses; only when tracking is on. */
    uint64_t compulsoryMisses() const { return compulsory_; }
    /** Dirty lines written back on eviction or invalidation. */
    uint64_t writebacks() const { return writebacks_; }
    /**
     * Memory writes this cache generated under its write policy:
     * line writebacks (write-back) or store write-throughs
     * (write-through).
     */
    uint64_t
    writeTraffic() const
    {
        return config_.write == WritePolicy::WriteBack
                   ? writebacks_
                   : writeThroughs_;
    }

    double
    missRate() const
    {
        return accesses_ ? static_cast<double>(misses_) /
                               static_cast<double>(accesses_)
                         : 0.0;
    }

    /** Reset contents and statistics (victim Rng included). */
    void reset();

  private:
    /** One cached line: id plus write-back state. */
    struct Entry
    {
        uint64_t line;
        bool dirty;
    };

    /**
     * One set. Ordering encodes the replacement policy's state:
     * LRU keeps entries most- to least-recently used (hits reorder);
     * FIFO keeps insertion order, newest first (hits do not reorder);
     * random replacement keeps stable slot positions — a victim is
     * replaced in place so slot indices match the set-resident
     * simulator's flat arrays.
     */
    using Set = std::vector<Entry>;

    uint64_t lineId(uint64_t addr) const { return addr / config_.lineBytes; }

    uint32_t
    setIndex(uint64_t line_id) const
    {
        return static_cast<uint32_t>(line_id & (config_.sets - 1));
    }

    void installMiss(Set &set, uint64_t line, bool write,
                     AccessResult &result);

    CacheConfig config_;
    std::vector<Set> sets_;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
    uint64_t compulsory_ = 0;
    uint64_t writebacks_ = 0;
    uint64_t writeThroughs_ = 0;
    bool trackCompulsory_;
    uint64_t policySeed_;
    Rng victimRng_;
    std::unordered_set<uint64_t> seenLines_;
};

} // namespace pico::cache

#endif // PICO_CACHE_CACHE_SIM_HPP
