#include "dse/ReferenceSet.hpp"

#include <algorithm>
#include <cmath>

#include "dse/Evaluators.hpp"
#include "support/BitUtils.hpp"
#include "support/Logging.hpp"

namespace pico::dse
{

BankLayout::BankLayout(const CacheSpace &space, Coverage coverage)
{
    auto lines = space.distinctLineSizes();
    fatalIf(lines.empty(), "cache space has no line sizes");
    const auto configs = space.enumerate();
    fatalIf(configs.empty(), "empty cache space");

    if (coverage == Coverage::ContractedLines) {
        uint32_t min_sets = space.minSets();
        uint32_t max_sets = space.maxSets();
        uint32_t max_assoc = space.maxAssoc();
        // Cover every power-of-two line size down to one word so the
        // dilation model can interpolate at any contracted line size.
        for (uint32_t line = SimBank::minCoveredLine; line <= lines.back();
             line *= 2)
            stacks.push_back({line, min_sets, max_sets, max_assoc});
    } else {
        // One pass per listed line size, over the band of set counts
        // and associativities the space enumerates at that line.
        for (uint32_t line : lines) {
            Stack s{line, ~0u, 0, 0};
            for (const auto &cfg : configs) {
                if (cfg.lineBytes != line)
                    continue;
                s.minSets = std::min(s.minSets, cfg.sets);
                s.maxSets = std::max(s.maxSets, cfg.sets);
                s.maxAssoc = std::max(s.maxAssoc, cfg.assoc);
            }
            if (s.maxSets != 0)
                stacks.push_back(s);
        }
    }

    // Extended policy axes list one resident per (enumerated line
    // size, policy), over exactly the geometries the space enumerates
    // at that line size. A FIFO or random resident is a set-resident
    // pass. An LRU resident only places write-back cells: the Cheetah
    // stack at its line counts both its misses and its write-backs.
    // Classic spaces list nothing here.
    if (!space.extendedAxes())
        return;
    std::vector<cache::ReplacementPolicy> policies;
    for (auto policy : space.replacements) {
        if (std::find(policies.begin(), policies.end(), policy) ==
            policies.end())
            policies.push_back(policy);
    }
    for (auto policy : policies) {
        for (uint32_t line : lines) {
            Resident r{line, policy, {}};
            for (const auto &cfg : configs) {
                if (cfg.lineBytes == line)
                    r.shapes.push_back({cfg.sets, cfg.assoc});
            }
            std::sort(r.shapes.begin(), r.shapes.end());
            r.shapes.erase(std::unique(r.shapes.begin(), r.shapes.end()),
                           r.shapes.end());
            residents.push_back(std::move(r));
        }
    }
}

size_t
BankLayout::Stack::cells() const
{
    return (log2Floor(maxSets) - log2Floor(minSets) + 1) * size_t{maxAssoc};
}

size_t
BankLayout::missCount() const
{
    size_t n = 0;
    for (const auto &s : stacks)
        n += s.cells();
    for (const auto &r : residents) {
        if (r.policy != cache::ReplacementPolicy::LRU)
            n += r.shapes.size();
    }
    return n;
}

size_t
BankLayout::writebackCount() const
{
    size_t n = 0;
    for (const auto &r : residents)
        n += r.shapes.size();
    return n;
}

namespace
{

/**
 * Slot of a configuration among the residents' shapes, counting from
 * `offset` and skipping LRU residents unless `with_lru`; -1 when not
 * covered.
 */
int64_t
residentSlot(const std::vector<BankLayout::Resident> &residents,
             const cache::CacheConfig &config, size_t offset, bool with_lru)
{
    for (const auto &r : residents) {
        if (!with_lru && r.policy == cache::ReplacementPolicy::LRU)
            continue;
        if (r.policy == config.replacement && r.line == config.lineBytes) {
            const cache::SetResidentSim::Geometry key{config.sets,
                                                      config.assoc};
            auto it = std::lower_bound(r.shapes.begin(), r.shapes.end(), key);
            if (it == r.shapes.end() || *it != key)
                return -1;
            return static_cast<int64_t>(offset) + (it - r.shapes.begin());
        }
        offset += r.shapes.size();
    }
    return -1;
}

} // namespace

int64_t
BankLayout::missSlot(const cache::CacheConfig &config) const
{
    // Stack cells are dense: level-major, then associativity.
    size_t offset = 0;
    for (const auto &s : stacks) {
        if (config.replacement == cache::ReplacementPolicy::LRU &&
            s.line == config.lineBytes) {
            if (config.assoc < 1 || config.assoc > s.maxAssoc ||
                !isPowerOfTwo(config.sets) || config.sets < s.minSets ||
                config.sets > s.maxSets)
                return -1;
            const size_t level =
                log2Floor(config.sets) - log2Floor(s.minSets);
            return static_cast<int64_t>(offset + level * s.maxAssoc +
                                        config.assoc - 1);
        }
        offset += s.cells();
    }
    return residentSlot(residents, config, offset, /*with_lru=*/false);
}

int64_t
BankLayout::writebackSlot(const cache::CacheConfig &config) const
{
    return residentSlot(residents, config, 0, /*with_lru=*/true);
}

// --- FrozenBank --------------------------------------------------------

FrozenBank::FrozenBank(BankLayout layout, uint64_t accesses,
                       uint64_t stores, std::vector<double> misses,
                       std::vector<double> writebacks)
    : layout_(std::move(layout)), misses_(std::move(misses)),
      writebacks_(std::move(writebacks)), accesses_(accesses),
      stores_(stores)
{
    panicIf(misses_.size() != layout_.missCount() ||
                writebacks_.size() != layout_.writebackCount(),
            "frozen bank tables do not match the bank layout");
}

bool
FrozenBank::covers(const cache::CacheConfig &config) const
{
    return layout_.missSlot(config) >= 0;
}

double
FrozenBank::misses(const cache::CacheConfig &config) const
{
    // LRU reads the Cheetah stacks' cells, FIFO/random the
    // set-resident shapes'. Both write policies are write-allocate,
    // so misses never depend on config.write.
    const int64_t i = layout_.missSlot(config);
    if (i >= 0)
        return misses_[static_cast<size_t>(i)];
    if (config.replacement != cache::ReplacementPolicy::LRU)
        fatal("configuration ", config.name(),
              " not covered by the set-resident bank (policy axes "
              "not enabled in the space?)");
    fatal("configuration ", config.name(),
          " not covered by the simulation bank");
}

uint64_t
FrozenBank::stores() const
{
    fatalIf(!extended(), "store counts need the set-resident bank "
                         "(extended policy axes)");
    return stores_;
}

double
FrozenBank::writeTraffic(const cache::CacheConfig &config) const
{
    // Write-allocate write-through: every store goes to memory,
    // independent of the cache geometry.
    if (config.write == cache::WritePolicy::WriteThrough)
        return static_cast<double>(stores());
    // Classic spaces model no write traffic (read-only stall model).
    if (!extended())
        return 0.0;
    const int64_t i = layout_.writebackSlot(config);
    if (i >= 0)
        return writebacks_[static_cast<size_t>(i)];
    fatal("configuration ", config.name(),
          " not covered by the set-resident bank");
}

core::MissOracle
FrozenBank::oracle() const
{
    return [this](const cache::CacheConfig &config) {
        return misses(config);
    };
}

// --- ReferenceSet ------------------------------------------------------

namespace
{

/** Largest count a double holds exactly. */
constexpr double maxExactCount = 9007199254740992.0; // 2^53

bool
isCount(double v)
{
    return v >= 0.0 && v <= maxExactCount && v == std::floor(v);
}

/** Sequential reader over an encoded entry; fails softly. */
struct Reader
{
    const std::vector<double> &values;
    size_t pos = 0;
    std::string *reason;

    bool
    fail(const std::string &why)
    {
        if (reason != nullptr)
            *reason = why + " at value " + std::to_string(pos);
        return false;
    }

    bool
    next(double &v)
    {
        if (pos >= values.size())
            return fail("entry ends early");
        v = values[pos++];
        return true;
    }

    /** A count no larger than `limit`. */
    bool
    count(uint64_t &out, double limit = maxExactCount)
    {
        double v = 0.0;
        if (!next(v))
            return false;
        if (!isCount(v) || v > limit)
            return fail("bad count");
        out = static_cast<uint64_t>(v);
        return true;
    }

    /** An AHH triple inside the model's domain for the granule. */
    bool
    params(core::ComponentParams &p, uint64_t granule_refs)
    {
        for (double *v : {&p.u1, &p.p1, &p.lav})
            if (!next(*v))
                return false;
        const auto errors = p.domainErrors(granule_refs);
        return errors.empty() || fail(errors.front());
    }

    /** One length-prefixed table of counts, each <= limit. */
    bool
    table(std::vector<double> &out, size_t expected, double limit)
    {
        uint64_t n = 0;
        if (!count(n))
            return false;
        if (n != expected)
            return fail("table length " + std::to_string(n) +
                        " differs from the layout's " +
                        std::to_string(expected));
        out.resize(expected);
        for (auto &v : out) {
            uint64_t c = 0;
            if (!count(c, limit))
                return false;
            v = static_cast<double>(c);
        }
        return true;
    }

    bool
    bank(BankLayout layout, FrozenBank &out)
    {
        uint64_t accesses = 0, stores = 0;
        if (!count(accesses))
            return false;
        const auto limit = static_cast<double>(accesses);
        std::vector<double> misses, writebacks;
        if (!count(stores, limit) ||
            !table(misses, layout.missCount(), limit) ||
            !table(writebacks, layout.writebackCount(), limit))
            return false;
        out = FrozenBank(std::move(layout), accesses, stores,
                         std::move(misses), std::move(writebacks));
        return true;
    }
};

void
encodeBank(const FrozenBank &bank, std::vector<double> &out)
{
    out.push_back(static_cast<double>(bank.accesses()));
    out.push_back(
        static_cast<double>(bank.extended() ? bank.stores() : 0));
    for (const auto *table : {&bank.missTable(), &bank.writebackTable()}) {
        out.push_back(static_cast<double>(table->size()));
        out.insert(out.end(), table->begin(), table->end());
    }
}

} // namespace

std::vector<double>
ReferenceSet::encode() const
{
    std::vector<double> out = {static_cast<double>(layoutVersion),
                               static_cast<double>(textBytes)};
    for (const auto *p : {&iParams, &uiParams, &udParams}) {
        out.push_back(p->u1);
        out.push_back(p->p1);
        out.push_back(p->lav);
    }
    encodeBank(icache, out);
    encodeBank(dcache, out);
    encodeBank(ucache, out);
    return out;
}

std::optional<ReferenceSet>
ReferenceSet::decode(const std::vector<double> &values,
                     const MemorySpaces &spaces, uint64_t i_granule,
                     uint64_t u_granule, std::string *reason)
{
    Reader r{values, 0, reason};
    ReferenceSet set;
    uint64_t version = 0;
    if (!r.count(version))
        return std::nullopt;
    if (version != layoutVersion) {
        r.fail("unknown layout version " + std::to_string(version));
        return std::nullopt;
    }
    if (!r.count(set.textBytes))
        return std::nullopt;
    if (set.textBytes == 0) {
        r.fail("empty reference text");
        return std::nullopt;
    }
    if (!r.params(set.iParams, i_granule) ||
        !r.params(set.uiParams, u_granule) ||
        !r.params(set.udParams, u_granule) ||
        !r.bank(BankLayout(spaces.icache, IcacheEvaluator::coverage),
                set.icache) ||
        !r.bank(BankLayout(spaces.dcache, DcacheEvaluator::coverage),
                set.dcache) ||
        !r.bank(BankLayout(spaces.ucache, UcacheEvaluator::coverage),
                set.ucache))
        return std::nullopt;
    if (r.pos != values.size()) {
        r.fail("trailing values");
        return std::nullopt;
    }
    return set;
}

} // namespace pico::dse
