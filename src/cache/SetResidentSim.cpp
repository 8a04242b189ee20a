#include "cache/SetResidentSim.hpp"

#include "support/BitUtils.hpp"
#include "support/Logging.hpp"

namespace pico::cache
{

SetResidentSim::SetResidentSim(uint32_t line_bytes, uint32_t min_sets,
                               uint32_t max_sets, uint32_t max_assoc,
                               ReplacementPolicy policy,
                               uint64_t policy_seed)
    : lineBytes_(line_bytes), minSets_(min_sets), maxSets_(max_sets),
      maxAssoc_(max_assoc), policy_(policy)
{
    fatalIf(!isPowerOfTwo(line_bytes) || line_bytes < 4,
            "bad line size ", line_bytes);
    fatalIf(!isPowerOfTwo(min_sets) || !isPowerOfTwo(max_sets) ||
                min_sets > max_sets,
            "bad set-count range [", min_sets, ", ", max_sets, "]");
    fatalIf(max_assoc == 0, "max associativity must be positive");
    lineShift_ = log2Floor(line_bytes);

    size_t levels = log2Floor(max_sets) - log2Floor(min_sets) + 1;
    geometries_.reserve(levels * maxAssoc_);
    for (size_t lv = 0; lv < levels; ++lv) {
        auto sets = static_cast<uint32_t>(
            static_cast<uint64_t>(minSets_) << lv);
        for (uint32_t assoc = 1; assoc <= maxAssoc_; ++assoc) {
            Geometry g;
            g.sets = sets;
            g.assoc = assoc;
            g.tags.assign(static_cast<size_t>(sets) * assoc,
                          emptyTag);
            g.dirty.assign(static_cast<size_t>(sets) * assoc, 0);
            if (policy_ == ReplacementPolicy::FIFO)
                g.fifoPtr.assign(sets, 0);
            if (policy_ == ReplacementPolicy::Random)
                g.rng = policyRng(sets, assoc, lineBytes_,
                                  policy_seed);
            geometries_.push_back(std::move(g));
        }
    }
}

size_t
SetResidentSim::geometryIndex(uint32_t sets, uint32_t assoc) const
{
    fatalIf(!isPowerOfTwo(sets) || sets < minSets_ || sets > maxSets_,
            "set count ", sets, " outside simulated range");
    fatalIf(assoc == 0 || assoc > maxAssoc_,
            "associativity ", assoc, " outside simulated range");
    size_t lv = log2Floor(sets) - log2Floor(minSets_);
    return lv * maxAssoc_ + (assoc - 1);
}

void
SetResidentSim::touch(Geometry &g, uint64_t line, bool write)
{
    const uint32_t assoc = g.assoc;
    const uint64_t set = line & (g.sets - 1);
    uint64_t *tags = g.tags.data() + set * assoc;
    uint8_t *dirty = g.dirty.data() + set * assoc;

    // Resident-set search; also remember the first vacant way so the
    // fill phase installs in slot order (matching the reference
    // simulator's push_back order).
    uint32_t found = assoc;
    uint32_t vacant = assoc;
    for (uint32_t w = assoc; w-- > 0;) {
        if (tags[w] == line)
            found = w;
        if (tags[w] == emptyTag)
            vacant = w;
    }

    if (found != assoc) {
        // Hit. LRU reorders (move to front); FIFO/random keep stable
        // positions. Dirty state follows the line either way.
        if (policy_ == ReplacementPolicy::LRU) {
            uint8_t d = static_cast<uint8_t>(dirty[found] | write);
            for (uint32_t w = found; w > 0; --w) {
                tags[w] = tags[w - 1];
                dirty[w] = dirty[w - 1];
            }
            tags[0] = line;
            dirty[0] = d;
        } else {
            dirty[found] = static_cast<uint8_t>(dirty[found] | write);
        }
        return;
    }

    ++g.misses;
    auto installed = static_cast<uint8_t>(write);

    switch (policy_) {
    case ReplacementPolicy::LRU:
        // Evict the bottom of the recency order (way assoc-1), then
        // shift everything down and install at the top.
        if (tags[assoc - 1] != emptyTag && dirty[assoc - 1])
            ++g.writebacks;
        for (uint32_t w = assoc - 1; w > 0; --w) {
            tags[w] = tags[w - 1];
            dirty[w] = dirty[w - 1];
        }
        tags[0] = line;
        dirty[0] = installed;
        return;
    case ReplacementPolicy::FIFO: {
        // The round-robin pointer always names the oldest-installed
        // way: ways fill 0..assoc-1 in order, and replacing the
        // oldest makes its successor the new oldest.
        uint32_t w = g.fifoPtr[set];
        if (tags[w] != emptyTag && dirty[w])
            ++g.writebacks;
        tags[w] = line;
        dirty[w] = installed;
        g.fifoPtr[set] = w + 1 == assoc ? 0 : w + 1;
        return;
    }
    case ReplacementPolicy::Random: {
        // Fill vacant ways in slot order without consuming random
        // numbers; draw a victim only from a full set, so the draw
        // sequence matches the per-config reference simulator.
        uint32_t w = vacant;
        if (w == assoc) {
            w = static_cast<uint32_t>(g.rng.below(assoc));
            if (dirty[w])
                ++g.writebacks;
        }
        tags[w] = line;
        dirty[w] = installed;
        return;
    }
    }
    panic("unknown replacement policy");
}

void
SetResidentSim::access(uint64_t addr, bool write)
{
    ++accesses_;
    if (write)
        ++stores_;
    uint64_t line = addr >> lineShift_;
    // No MRU filter here: a repeat reference is a hit in every
    // geometry, but a repeat *store* after a clean install must
    // still set the dirty bit, so every reference walks the bank.
    for (auto &g : geometries_)
        touch(g, line, write);
}

void
SetResidentSim::accessBlock(const uint64_t *addrs,
                            const uint8_t *kinds, size_t n)
{
    // Geometry-outer loop for tag-array locality, exactly as
    // SinglePassSim::accessBlock: geometries are independent, so the
    // reordering touches disjoint state and the counts stay
    // bit-identical to per-reference access().
    for (auto &g : geometries_) {
        for (size_t i = 0; i < n; ++i) {
            bool write = kinds != nullptr && kinds[i] == 1;
            touch(g, addrs[i] >> lineShift_, write);
        }
    }
    accesses_ += n;
    if (kinds != nullptr) {
        for (size_t i = 0; i < n; ++i)
            stores_ += kinds[i] == 1;
    }
}

uint64_t
SetResidentSim::misses(uint32_t sets, uint32_t assoc) const
{
    return geometries_[geometryIndex(sets, assoc)].misses;
}

uint64_t
SetResidentSim::writebacks(uint32_t sets, uint32_t assoc) const
{
    return geometries_[geometryIndex(sets, assoc)].writebacks;
}

uint64_t
SetResidentSim::misses(const CacheConfig &config) const
{
    fatalIf(!covers(config),
            "configuration ", config.name(), " not covered");
    return misses(config.sets, config.assoc);
}

uint64_t
SetResidentSim::writebacks(const CacheConfig &config) const
{
    fatalIf(!covers(config),
            "configuration ", config.name(), " not covered");
    return writebacks(config.sets, config.assoc);
}

bool
SetResidentSim::covers(const CacheConfig &config) const
{
    return config.replacement == policy_ &&
           config.lineBytes == lineBytes_ && config.assoc >= 1 &&
           config.assoc <= maxAssoc_ && isPowerOfTwo(config.sets) &&
           config.sets >= minSets_ && config.sets <= maxSets_;
}

} // namespace pico::cache
