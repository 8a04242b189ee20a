#include "cache/SetResidentSim.hpp"

#include <algorithm>

#include "support/BitUtils.hpp"
#include "support/Logging.hpp"

namespace pico::cache
{

SetResidentSim::SetResidentSim(uint32_t line_bytes,
                               std::vector<Geometry> geometries,
                               ReplacementPolicy policy,
                               uint64_t policy_seed)
    : lineBytes_(line_bytes), policy_(policy)
{
    fatalIf(policy == ReplacementPolicy::LRU,
            "LRU is a stack algorithm: SinglePassSim answers its misses "
            "and write-backs, not SetResidentSim");
    fatalIf(!isPowerOfTwo(line_bytes) || line_bytes < 4,
            "bad line size ", line_bytes);
    lineShift_ = log2Floor(line_bytes);

    std::sort(geometries.begin(), geometries.end());
    geometries.erase(std::unique(geometries.begin(), geometries.end()),
                     geometries.end());
    residents_.reserve(geometries.size());
    for (const Geometry &shape : geometries) {
        fatalIf(!isPowerOfTwo(shape.sets),
                "set count ", shape.sets, " is not a power of two");
        fatalIf(shape.assoc == 0, "associativity must be positive");
        Resident r;
        r.shape = shape;
        size_t ways = static_cast<size_t>(shape.sets) * shape.assoc;
        r.tags.assign(ways, emptyTag);
        r.dirty.assign(ways, 0);
        if (policy_ == ReplacementPolicy::FIFO)
            r.fifoPtr.assign(shape.sets, 0);
        if (policy_ == ReplacementPolicy::Random)
            r.rng = policyRng(shape.sets, shape.assoc, lineBytes_,
                              policy_seed);
        residents_.push_back(std::move(r));
    }
}

const SetResidentSim::Resident *
SetResidentSim::find(uint32_t sets, uint32_t assoc) const
{
    const Geometry key{sets, assoc};
    auto it = std::lower_bound(
        residents_.begin(), residents_.end(), key,
        [](const Resident &r, const Geometry &g) { return r.shape < g; });
    return it != residents_.end() && it->shape == key ? &*it : nullptr;
}

const SetResidentSim::Resident &
SetResidentSim::at(uint32_t sets, uint32_t assoc) const
{
    const Resident *r = find(sets, assoc);
    fatalIf(r == nullptr, "geometry ", sets, " sets x ", assoc,
            " ways not simulated");
    return *r;
}

void
SetResidentSim::touch(Resident &r, uint64_t line, bool write)
{
    const uint32_t assoc = r.shape.assoc;
    const uint64_t set = line & (r.shape.sets - 1);
    uint64_t *tags = r.tags.data() + set * assoc;
    uint8_t *dirty = r.dirty.data() + set * assoc;

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
        // Hit: FIFO and random keep stable positions, and the dirty
        // bit follows the line.
        dirty[found] = static_cast<uint8_t>(dirty[found] | write);
        return;
    }

    ++r.misses;
    auto installed = static_cast<uint8_t>(write);

    if (policy_ == ReplacementPolicy::FIFO) {
        // The round-robin pointer always names the oldest-installed
        // way: ways fill 0..assoc-1 in order, and replacing the
        // oldest makes its successor the new oldest.
        uint32_t w = r.fifoPtr[set];
        if (tags[w] != emptyTag && dirty[w])
            ++r.writebacks;
        tags[w] = line;
        dirty[w] = installed;
        r.fifoPtr[set] = w + 1 == assoc ? 0 : w + 1;
        return;
    }
    // Random: fill vacant ways in slot order without consuming random
    // numbers; draw a victim only from a full set, so the draw
    // sequence matches the per-config reference simulator.
    uint32_t w = vacant;
    if (w == assoc) {
        w = static_cast<uint32_t>(r.rng.below(assoc));
        if (dirty[w])
            ++r.writebacks;
    }
    tags[w] = line;
    dirty[w] = installed;
}

void
SetResidentSim::access(uint64_t addr, bool write)
{
    ++accesses_;
    if (write)
        ++stores_;
    uint64_t line = addr >> lineShift_;
    // The plain per-reference path: every reference, repeat or not,
    // walks every geometry. accessBlock() folds same-line runs; it
    // reads lastLine_ to continue a run across calls.
    lastLine_ = line;
    for (auto &r : residents_)
        touch(r, line, write);
}

void
SetResidentSim::accessBlock(const uint64_t *addrs,
                            const uint8_t *kinds, size_t n)
{
    // Fold same-line runs first: a repeat of the line touched last
    // is a hit in every geometry and can only set the dirty bit, so
    // one touch carrying the OR of the run's store bits stands in
    // for the run. A run carried over from the previous call is
    // already resident, so it is touched again only if it stores.
    runs_.clear();
    uint64_t last = lastLine_;
    uint64_t stores = 0;
    for (size_t i = 0; i < n; ++i) {
        uint64_t line = addrs[i] >> lineShift_;
        bool write = kinds != nullptr && kinds[i] == trace::kindWrite;
        stores += write;
        if (line != last) {
            runs_.push_back({line, write});
            last = line;
        } else if (!runs_.empty()) {
            runs_.back().write |= write;
        } else if (write) {
            runs_.push_back({line, true});
        }
    }
    lastLine_ = last;
    accesses_ += n;
    stores_ += stores;
    // Geometry-outer loop for tag-array locality, exactly as
    // SinglePassSim::accessBlock: geometries are independent, so the
    // reordering touches disjoint state and the counts stay
    // bit-identical to per-reference access().
    for (auto &r : residents_)
        for (const Touch &t : runs_)
            touch(r, t.line, t.write);
}

uint64_t
SetResidentSim::misses(uint32_t sets, uint32_t assoc) const
{
    return at(sets, assoc).misses;
}

uint64_t
SetResidentSim::writebacks(uint32_t sets, uint32_t assoc) const
{
    return at(sets, assoc).writebacks;
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
           config.lineBytes == lineBytes_ &&
           find(config.sets, config.assoc) != nullptr;
}

} // namespace pico::cache
