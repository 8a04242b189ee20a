/**
 * @file
 * Single-pass multi-configuration cache simulator (Cheetah).
 *
 * Simulates, in one pass over an address trace, *every* LRU
 * set-associative cache whose line size equals the fixed line size
 * and whose set count and associativity lie within configured ranges.
 * This is the paper's first efficiency lever (section 3.3): the
 * number of simulation runs drops from the number of caches in the
 * design space to the number of distinct line sizes.
 *
 * Algorithm: per candidate set count S, each set keeps an LRU stack
 * truncated at the maximum associativity; the stack distance of each
 * reference is histogrammed. By LRU inclusion, misses for
 * associativity A are the references whose stack distance is >= A.
 *
 * Layout: the per-set stacks of one level (set count) live in a
 * single flat tag array of sets x maxAssoc words (structure of
 * arrays), slot [set * maxAssoc + d] holding the tag at LRU depth d.
 * Empty slots hold the sentinel ~0, which no real line tag can equal
 * (tags are addr >> log2(lineBytes), lineBytes >= 4). The per-level
 * update is branch-free: the depth search reads all maxAssoc slots
 * with a conditional-move reduction, the histogram has an extra miss
 * bin at index maxAssoc so every reference increments exactly one
 * bin, and the LRU update is a shift-down-and-insert.
 *
 * Two filters keep references out of levels they cannot change:
 *
 * - MRU filter: a reference to the same line as the previous one
 *   hits at depth 0 in every level and leaves every stack unchanged,
 *   so it is counted in a single repeat counter. Sequential
 *   instruction fetch makes such runs the common case.
 * - Set-refinement filter: levels run in ascending set count, and
 *   with bit-selection indexing the (S, A) LRU cache holds a subset
 *   of the (2S, A) cache at every step (Hill and Smith's set
 *   refinement), so a line's stack distance never grows with the set
 *   count. A line at depth 0 of its set at S is at depth 0 at every
 *   larger S, where its move-to-front is a no-op, so it leaves the
 *   sweep there and is counted in that level's drop counter.
 *
 * misses() folds both counters back in as depth-0 hits: the repeats
 * at every level, a level's drops at every larger level.
 *
 * Write-backs (optional, Thompson and Smith's dirty-depth stack): an
 * LRU stack also answers the write-back traffic of every (S, A). Each
 * slot carries one byte, the smallest associativity at which its line
 * is dirty (0 when clean): a store sets the referenced line's byte to
 * 1, and dirtiness grows with the associativity because a larger
 * cache has held the line at least as long. When a shift moves an
 * entry from depth d-1 to d while its byte is d, the d-way cache
 * evicts it dirty: that is one write-back at associativity d, and the
 * byte becomes d+1. Dirtiness is included across set counts too
 * (dirty in (S, A) implies dirty in (2S, A)), so a depth-0 store
 * leaves the sweep only where its byte already reads 1. A bank that
 * never asks for write-backs allocates no bytes and runs the
 * filter-only kernel.
 */

#ifndef PICO_CACHE_SINGLE_PASS_SIM_HPP
#define PICO_CACHE_SINGLE_PASS_SIM_HPP

#include <cstdint>
#include <vector>

#include "cache/CacheConfig.hpp"
#include "trace/Access.hpp"

namespace pico::cache
{

/** All-associativity, all-set-count simulator for one line size. */
class SinglePassSim
{
  public:
    /** Sentinel tag of an empty LRU slot (never a real line tag). */
    static constexpr uint64_t emptyTag = ~0ULL;

    /**
     * @param line_bytes fixed line size (power of two)
     * @param min_sets smallest set count simulated (power of two)
     * @param max_sets largest set count simulated (power of two)
     * @param max_assoc largest associativity simulated (at most 254
     *        when counting write-backs)
     * @param count_writebacks also count the write-back traffic of
     *        every covered configuration (see the file comment)
     */
    SinglePassSim(uint32_t line_bytes, uint32_t min_sets,
                  uint32_t max_sets, uint32_t max_assoc,
                  bool count_writebacks = false);

    /** Feed one reference. */
    void access(uint64_t addr, bool write = false);

    /** Sink-compatible overload. */
    void operator()(const trace::Access &a) { access(a.addr, a.isWrite); }

    /**
     * Feed a span of decoded columnar references. `kinds` holds the
     * per-reference kind codes of BlockView (trace::kindWrite is a
     * store, every other code a load); nullptr means all loads.
     * Same-line runs fold into one touch carrying the OR of their
     * store bits, and runs may span calls. Levels run in the outer
     * loop so each level's tag array stays hot across the span; the
     * answers are bit-identical to calling access() per reference.
     */
    void accessBlock(const uint64_t *addrs, const uint8_t *kinds,
                     size_t n);

    /** Total references observed. */
    uint64_t accesses() const { return accesses_; }

    /** Store references observed (write-through traffic). */
    uint64_t stores() const { return stores_; }

    /**
     * Misses of the cache with the given set count and associativity
     * (and this simulator's line size).
     */
    uint64_t misses(uint32_t sets, uint32_t assoc) const;

    /** Misses of a configuration; must match the simulated ranges. */
    uint64_t misses(const CacheConfig &config) const;

    /**
     * Dirty-line write-backs of the write-back cache with the given
     * set count and associativity; fatal() unless the simulator
     * counts write-backs.
     */
    uint64_t writebacks(uint32_t sets, uint32_t assoc) const;

    /** True when the simulator counts write-backs. */
    bool countsWritebacks() const { return !dirty_.empty(); }

    /** True when the configuration is covered by this simulator. */
    bool covers(const CacheConfig &config) const;

    uint32_t lineBytes() const { return lineBytes_; }
    uint32_t minSets() const { return minSets_; }
    uint32_t maxSets() const { return maxSets_; }
    uint32_t maxAssoc() const { return maxAssoc_; }

    /** All configurations covered, in (sets, assoc) order. */
    std::vector<CacheConfig> coveredConfigs() const;

  private:
    /** Index of a set count in the per-level arrays. */
    size_t levelOf(uint32_t sets) const;

    /** Slot of depth 0 of a line's set at one level. */
    size_t
    setBase(size_t lv, uint64_t line) const
    {
        return (line & ((static_cast<uint64_t>(minSets_) << lv) - 1)) *
               maxAssoc_;
    }

    /**
     * The per-reference update of one level; returns whether the
     * line must also be fed to the next level (see the file
     * comment's set-refinement filter).
     */
    template <bool WriteBacks>
    bool touchLevel(size_t lv, uint64_t line, bool write);

    /** accessBlock() of one kernel. */
    template <bool WriteBacks>
    void sweepBlock(const uint64_t *addrs, const uint8_t *kinds,
                    size_t n);

    /** A store to the line at depth 0 of every level (lastLine_). */
    void dirtyMru(uint64_t line);

    uint32_t lineBytes_;
    uint32_t minSets_;
    uint32_t maxSets_;
    uint32_t maxAssoc_;
    uint32_t lineShift_;
    uint64_t accesses_ = 0;
    uint64_t stores_ = 0;

    /** Line of the most recent reference (emptyTag before any). */
    uint64_t lastLine_ = emptyTag;
    /** References filtered as depth-0 hits on lastLine_. */
    uint64_t mruRepeats_ = 0;
    /** accessBlock scratch: the block's run-compacted lines... */
    std::vector<uint64_t> compact_;
    /** ...and, when counting write-backs, their runs' store bits. */
    std::vector<uint8_t> writes_;

    /**
     * Per level (set count): flat tag array of sets x maxAssoc
     * words, [set * maxAssoc + depth], emptyTag when vacant.
     */
    std::vector<std::vector<uint64_t>> tags_;
    /**
     * Per level: histogram of stack distances. maxAssoc + 1 bins;
     * the last bin counts misses at every simulated associativity.
     */
    std::vector<std::vector<uint64_t>> hist_;
    /** Per level: lines that hit at depth 0 and left the sweep. */
    std::vector<uint64_t> drops_;
    /**
     * Per level, when counting write-backs: each slot's dirty byte,
     * parallel to tags_ (empty otherwise).
     */
    std::vector<std::vector<uint8_t>> dirty_;
    /** Per level: write-backs by associativity, index 1..maxAssoc. */
    std::vector<std::vector<uint64_t>> writebacks_;
};

} // namespace pico::cache

#endif // PICO_CACHE_SINGLE_PASS_SIM_HPP
