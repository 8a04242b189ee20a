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

    // Extended policy axes add one set-resident pass per (enumerated
    // line size, policy), over exactly the geometries the space
    // enumerates at that line size. LRU is included when present so
    // its write-back traffic is modeled; its misses still come from
    // the Cheetah stacks above. Classic spaces list nothing here.
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

namespace
{

cache::CacheConfig
cell(uint32_t line, uint32_t sets, uint32_t assoc,
     cache::ReplacementPolicy policy)
{
    cache::CacheConfig cfg;
    cfg.sets = sets;
    cfg.assoc = assoc;
    cfg.lineBytes = line;
    cfg.replacement = policy;
    cfg.write = cache::WritePolicy::WriteBack;
    return cfg;
}

} // namespace

std::vector<cache::CacheConfig>
BankLayout::missCells() const
{
    std::vector<cache::CacheConfig> out;
    for (const auto &s : stacks) {
        for (uint32_t sets = s.minSets; sets <= s.maxSets; sets *= 2) {
            for (uint32_t assoc = 1; assoc <= s.maxAssoc; ++assoc)
                out.push_back(cell(s.line, sets, assoc,
                                   cache::ReplacementPolicy::LRU));
        }
    }
    for (const auto &r : residents) {
        if (r.policy == cache::ReplacementPolicy::LRU)
            continue;
        for (const auto &g : r.shapes)
            out.push_back(cell(r.line, g.sets, g.assoc, r.policy));
    }
    return out;
}

std::vector<cache::CacheConfig>
BankLayout::writebackCells() const
{
    std::vector<cache::CacheConfig> out;
    for (const auto &r : residents) {
        for (const auto &g : r.shapes)
            out.push_back(cell(r.line, g.sets, g.assoc, r.policy));
    }
    return out;
}

// --- FrozenBank --------------------------------------------------------

FrozenBank::FrozenBank(const BankLayout &layout, uint64_t accesses,
                       uint64_t stores, std::vector<double> misses,
                       std::vector<double> writebacks)
    : misses_(std::move(misses)), writebacks_(std::move(writebacks)),
      accesses_(accesses), stores_(stores),
      extended_(!layout.residents.empty())
{
    const auto miss_cells = layout.missCells();
    const auto writeback_cells = layout.writebackCells();
    panicIf(misses_.size() != miss_cells.size() ||
                writebacks_.size() != writeback_cells.size(),
            "frozen bank tables do not match the bank layout");
    missGrids_ = index(miss_cells);
    writebackGrids_ = index(writeback_cells);
}

std::vector<FrozenBank::Grid>
FrozenBank::index(const std::vector<cache::CacheConfig> &cells)
{
    std::vector<Grid> grids;
    auto gridOf = [&grids](const cache::CacheConfig &c) -> Grid & {
        for (auto &g : grids) {
            if (g.policy == c.replacement && g.line == c.lineBytes)
                return g;
        }
        grids.push_back({c.replacement, c.lineBytes, c.sets, c.sets,
                         c.assoc, {}});
        return grids.back();
    };
    for (const auto &c : cells) {
        Grid &g = gridOf(c);
        g.minSets = std::min(g.minSets, c.sets);
        g.maxSets = std::max(g.maxSets, c.sets);
        g.maxAssoc = std::max(g.maxAssoc, c.assoc);
    }
    for (auto &g : grids) {
        const size_t levels =
            log2Floor(g.maxSets) - log2Floor(g.minSets) + 1;
        g.slots.assign(levels * g.maxAssoc, -1);
    }
    for (size_t i = 0; i < cells.size(); ++i) {
        const auto &c = cells[i];
        Grid &g = gridOf(c);
        g.slots[(log2Floor(c.sets) - log2Floor(g.minSets)) * g.maxAssoc +
                c.assoc - 1] = static_cast<int32_t>(i);
    }
    return grids;
}

int32_t
FrozenBank::find(const std::vector<Grid> &grids,
                 const cache::CacheConfig &config)
{
    for (const auto &g : grids) {
        if (g.policy != config.replacement || g.line != config.lineBytes)
            continue;
        if (config.assoc < 1 || config.assoc > g.maxAssoc ||
            !isPowerOfTwo(config.sets) || config.sets < g.minSets ||
            config.sets > g.maxSets)
            return -1;
        return g.slots[(log2Floor(config.sets) - log2Floor(g.minSets)) *
                           g.maxAssoc +
                       config.assoc - 1];
    }
    return -1;
}

bool
FrozenBank::covers(const cache::CacheConfig &config) const
{
    return find(missGrids_, config) >= 0;
}

double
FrozenBank::misses(const cache::CacheConfig &config) const
{
    // LRU reads the Cheetah stacks' cells, FIFO/random the
    // set-resident shapes'. Both write policies are write-allocate,
    // so misses never depend on config.write.
    int32_t i = find(missGrids_, config);
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
    fatalIf(!extended_, "store counts need the set-resident bank "
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
    if (!extended_)
        return 0.0;
    int32_t i = find(writebackGrids_, config);
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

    bool
    params(core::ComponentParams &p)
    {
        for (double *v : {&p.u1, &p.p1, &p.lav}) {
            if (!next(*v))
                return false;
            if (!std::isfinite(*v))
                return fail("non-finite trace parameter");
        }
        return true;
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
    bank(const BankLayout &layout, FrozenBank &out)
    {
        uint64_t accesses = 0, stores = 0;
        if (!count(accesses))
            return false;
        const auto limit = static_cast<double>(accesses);
        std::vector<double> misses, writebacks;
        if (!count(stores, limit) ||
            !table(misses, layout.missCells().size(), limit) ||
            !table(writebacks, layout.writebackCells().size(), limit))
            return false;
        out = FrozenBank(layout, accesses, stores, std::move(misses),
                         std::move(writebacks));
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
                     const MemorySpaces &spaces, std::string *reason)
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
    if (!r.params(set.iParams) || !r.params(set.uiParams) ||
        !r.params(set.udParams) ||
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
