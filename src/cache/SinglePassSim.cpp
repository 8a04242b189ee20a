#include "cache/SinglePassSim.hpp"

#include "support/BitUtils.hpp"
#include "support/Logging.hpp"

namespace pico::cache
{

SinglePassSim::SinglePassSim(uint32_t line_bytes, uint32_t min_sets,
                             uint32_t max_sets, uint32_t max_assoc,
                             bool count_writebacks)
    : lineBytes_(line_bytes), minSets_(min_sets), maxSets_(max_sets),
      maxAssoc_(max_assoc)
{
    fatalIf(!isPowerOfTwo(line_bytes) || line_bytes < 4,
            "bad line size ", line_bytes);
    fatalIf(!isPowerOfTwo(min_sets) || !isPowerOfTwo(max_sets) ||
                min_sets > max_sets,
            "bad set-count range [", min_sets, ", ", max_sets, "]");
    fatalIf(max_assoc == 0, "max associativity must be positive");
    // A dirty byte holds 0 (clean) or an associativity up to
    // maxAssoc + 1, the depth a line pushed off the stack reaches.
    fatalIf(count_writebacks && max_assoc > 254,
            "write-backs need max associativity <= 254, not ", max_assoc);
    lineShift_ = log2Floor(line_bytes);

    size_t levels = log2Floor(max_sets) - log2Floor(min_sets) + 1;
    tags_.resize(levels);
    hist_.resize(levels);
    drops_.assign(levels, 0);
    for (size_t lv = 0; lv < levels; ++lv) {
        size_t sets = static_cast<size_t>(minSets_) << lv;
        tags_[lv].assign(sets * maxAssoc_, emptyTag);
        hist_[lv].assign(static_cast<size_t>(maxAssoc_) + 1, 0);
        if (count_writebacks) {
            dirty_.emplace_back(sets * maxAssoc_, uint8_t{0});
            writebacks_.emplace_back(static_cast<size_t>(maxAssoc_) + 1,
                                     uint64_t{0});
        }
    }
}

size_t
SinglePassSim::levelOf(uint32_t sets) const
{
    fatalIf(!isPowerOfTwo(sets) || sets < minSets_ || sets > maxSets_,
            "set count ", sets, " outside simulated range");
    return log2Floor(sets) - log2Floor(minSets_);
}

template <bool WriteBacks>
inline bool
SinglePassSim::touchLevel(size_t lv, uint64_t line, bool write)
{
    const size_t assoc = maxAssoc_;
    const size_t base = setBase(lv, line);
    uint64_t *stack = tags_[lv].data() + base;

    // Stack-distance search, no early exit: all slots are read and
    // the smallest matching depth wins via conditional moves. Vacant
    // slots hold emptyTag, which no real tag equals.
    size_t depth = assoc;
    for (size_t d = assoc; d-- > 0;)
        depth = stack[d] == line ? d : depth;

    // Exactly one histogram bin per reference: bin `assoc` is the
    // miss bin (stack distance >= every simulated associativity).
    hist_[lv][depth] += 1;

    // LRU update: shift [0, end) down one slot, insert at the top.
    // On a hit end == depth (move-to-front); on a miss end == assoc-1
    // (the LRU tag at the bottom is evicted by the shift).
    const size_t end = depth < assoc ? depth : assoc - 1;
    if constexpr (!WriteBacks) {
        for (size_t d = end; d > 0; --d)
            stack[d] = stack[d - 1];
        stack[0] = line;
        return depth != 0;
    } else {
        uint8_t *dirty = dirty_[lv].data() + base;
        uint64_t *wb = writebacks_[lv].data();
        // The line's byte: its own on a hit, clean on a miss. Every
        // byte exceeds its depth (or is 0), so a load keeps it.
        const uint8_t was = depth < assoc ? dirty[depth] : 0;
        // A miss pushes the bottom entry off: the maxAssoc-way cache
        // evicts it, dirty when its byte reads maxAssoc.
        wb[assoc] += depth == assoc && dirty[assoc - 1] == assoc;
        for (size_t d = end; d > 0; --d) {
            const uint8_t byte = dirty[d - 1];
            const bool evicted_dirty = byte == d;
            wb[d] += evicted_dirty;
            dirty[d] = static_cast<uint8_t>(byte + evicted_dirty);
            stack[d] = stack[d - 1];
        }
        stack[0] = line;
        dirty[0] = write ? uint8_t{1} : was;
        return depth != 0 || (write && was != 1);
    }
}

void
SinglePassSim::dirtyMru(uint64_t line)
{
    // The line sits at depth 0 of every level. Dirty at S sets
    // implies dirty at 2S, so the first level whose byte already
    // reads 1 ends the walk.
    for (size_t lv = 0; lv < dirty_.size(); ++lv) {
        uint8_t &byte = dirty_[lv][setBase(lv, line)];
        if (byte == 1)
            return;
        byte = 1;
    }
}

void
SinglePassSim::access(uint64_t addr, bool write)
{
    ++accesses_;
    stores_ += write;
    uint64_t line = addr >> lineShift_;
    // MRU filter: a reference to the line just touched hits at depth
    // 0 in every level and the move-to-front is a no-op everywhere,
    // so one counter stands in for the whole bank update. misses()
    // folds the counter into every level's depth-0 bin.
    if (line == lastLine_) {
        ++mruRepeats_;
        if (write && countsWritebacks())
            dirtyMru(line);
        return;
    }
    lastLine_ = line;
    // Set-refinement filter: stop at the level where the line leaves
    // the sweep, exactly as accessBlock() does.
    for (size_t lv = 0; lv < tags_.size(); ++lv) {
        const bool keep = countsWritebacks()
                              ? touchLevel<true>(lv, line, write)
                              : touchLevel<false>(lv, line, false);
        if (!keep) {
            ++drops_[lv];
            return;
        }
    }
}

template <bool WriteBacks>
void
SinglePassSim::sweepBlock(const uint64_t *addrs, const uint8_t *kinds,
                          size_t n)
{
    // Compact adjacent same-line runs first (the MRU filter of
    // access(), applied once for all levels). A run's touch carries
    // the OR of its store bits; stores that continue the previous
    // call's run dirty the line where it sits, at depth 0 of every
    // level, before any new line moves it.
    compact_.clear();
    writes_.clear();
    uint64_t last = lastLine_;
    uint64_t stores = 0;
    bool carried_store = false;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t line = addrs[i] >> lineShift_;
        const bool write = kinds != nullptr && kinds[i] == trace::kindWrite;
        stores += write;
        if (line != last) {
            compact_.push_back(line);
            if constexpr (WriteBacks)
                writes_.push_back(write);
            last = line;
        } else if constexpr (WriteBacks) {
            if (compact_.empty())
                carried_store |= write;
            else
                writes_.back() |= static_cast<uint8_t>(write);
        }
    }
    if (carried_store)
        dirtyMru(lastLine_);
    lastLine_ = last;
    mruRepeats_ += n - compact_.size();
    accesses_ += n;
    stores_ += stores;

    // Sweep level by level, ascending set count, keeping only the
    // lines the level passes on (stable, branch-free compaction) and
    // stopping once none is left. Levels are independent apart from
    // that subsequence, so running the level loop outside the line
    // loop reorders only writes to disjoint state; the payoff is
    // locality, one level's tags staying cached across the span.
    size_t live = compact_.size();
    for (size_t lv = 0; lv < tags_.size() && live != 0; ++lv) {
        size_t kept = 0;
        for (size_t i = 0; i < live; ++i) {
            const uint64_t line = compact_[i];
            compact_[kept] = line;
            if constexpr (WriteBacks) {
                const uint8_t write = writes_[i];
                writes_[kept] = write;
                kept += touchLevel<true>(lv, line, write != 0);
            } else {
                kept += touchLevel<false>(lv, line, false);
            }
        }
        drops_[lv] += live - kept;
        live = kept;
    }
}

void
SinglePassSim::accessBlock(const uint64_t *addrs, const uint8_t *kinds,
                           size_t n)
{
    if (countsWritebacks())
        sweepBlock<true>(addrs, kinds, n);
    else
        sweepBlock<false>(addrs, kinds, n);
}

uint64_t
SinglePassSim::misses(uint32_t sets, uint32_t assoc) const
{
    fatalIf(assoc == 0 || assoc > maxAssoc_,
            "associativity ", assoc, " outside simulated range");
    const size_t level = levelOf(sets);
    const auto &hist = hist_[level];
    // Filtered MRU repeats are depth-0 hits at every level, and the
    // lines a smaller level dropped are depth-0 hits here: hits for
    // every associativity >= 1.
    uint64_t hits = mruRepeats_;
    for (size_t lv = 0; lv < level; ++lv)
        hits += drops_[lv];
    for (uint32_t d = 0; d < assoc; ++d)
        hits += hist[d];
    return accesses_ - hits;
}

uint64_t
SinglePassSim::writebacks(uint32_t sets, uint32_t assoc) const
{
    fatalIf(!countsWritebacks(), "simulator of line ", lineBytes_,
            " does not count write-backs");
    fatalIf(assoc == 0 || assoc > maxAssoc_,
            "associativity ", assoc, " outside simulated range");
    return writebacks_[levelOf(sets)][assoc];
}

uint64_t
SinglePassSim::misses(const CacheConfig &config) const
{
    fatalIf(!covers(config),
            "configuration ", config.name(), " not covered");
    return misses(config.sets, config.assoc);
}

bool
SinglePassSim::covers(const CacheConfig &config) const
{
    return config.lineBytes == lineBytes_ && config.assoc >= 1 &&
           config.assoc <= maxAssoc_ && isPowerOfTwo(config.sets) &&
           config.sets >= minSets_ && config.sets <= maxSets_;
}

std::vector<CacheConfig>
SinglePassSim::coveredConfigs() const
{
    std::vector<CacheConfig> out;
    for (uint32_t sets = minSets_; sets <= maxSets_; sets *= 2) {
        for (uint32_t assoc = 1; assoc <= maxAssoc_; ++assoc) {
            CacheConfig cfg;
            cfg.sets = sets;
            cfg.assoc = assoc;
            cfg.lineBytes = lineBytes_;
            out.push_back(cfg);
        }
        if (sets == maxSets_)
            break;
    }
    return out;
}

} // namespace pico::cache
