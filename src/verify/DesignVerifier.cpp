#include "verify/DesignVerifier.hpp"

namespace pico::verify
{

namespace
{

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Generous physical sanity bounds; real spaces sit far inside. */
constexpr uint32_t maxLineBytes = 4096;
constexpr uint32_t maxAssoc = 4096;
constexpr uint32_t maxPorts = 8;
/** Smallest line the single-pass simulators cover (one word). */
constexpr uint32_t minLineBytes = 4;

/**
 * Feasibility of one cross-product combination, computed here
 * independently of CacheSpace::enumerate() so the verifier
 * cross-checks the enumeration logic instead of restating it.
 */
bool
combinationFeasible(uint64_t size_bytes, uint32_t assoc,
                    uint32_t line_bytes, uint32_t ports)
{
    if (assoc == 0 || line_bytes == 0 || ports == 0)
        return false;
    uint64_t frame = static_cast<uint64_t>(assoc) * line_bytes;
    if (frame == 0 || size_bytes % frame != 0)
        return false;
    uint64_t sets = size_bytes / frame;
    return sets >= 1 && isPowerOfTwo(sets) &&
           isPowerOfTwo(line_bytes) && line_bytes >= minLineBytes;
}

} // namespace

bool
verifyCacheConfig(const cache::CacheConfig &config,
                  const std::string &what, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    if (!isPowerOfTwo(config.sets))
        diags.error("cache.geometry", what,
                    "set count " + std::to_string(config.sets) +
                        " is not a power of two");
    if (!isPowerOfTwo(config.lineBytes))
        diags.error("cache.geometry", what,
                    "line size " +
                        std::to_string(config.lineBytes) +
                        " is not a power of two");
    if (config.lineBytes < minLineBytes ||
        config.lineBytes > maxLineBytes)
        diags.error("cache.geometry", what,
                    "line size " +
                        std::to_string(config.lineBytes) +
                        " is outside [" +
                        std::to_string(minLineBytes) + ", " +
                        std::to_string(maxLineBytes) + "]");
    if (config.assoc < 1 || config.assoc > maxAssoc)
        diags.error("cache.geometry", what,
                    "associativity " +
                        std::to_string(config.assoc) +
                        " is outside [1, " +
                        std::to_string(maxAssoc) + "]");
    if (config.ports < 1 || config.ports > maxPorts)
        diags.error("cache.geometry", what,
                    "port count " + std::to_string(config.ports) +
                        " is outside [1, " +
                        std::to_string(maxPorts) + "]");
    return diags.errorCount() == before;
}

bool
verifyCacheSpace(const dse::CacheSpace &space,
                 const std::string &what, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    if (space.sizesBytes.empty())
        diags.error("space.domain", what, "no sizes specified");
    if (space.assocs.empty())
        diags.error("space.domain", what,
                    "no associativities specified");
    if (space.lineSizes.empty())
        diags.error("space.domain", what, "no line sizes specified");
    if (space.portCounts.empty())
        diags.error("space.domain", what,
                    "no port counts specified");

    for (uint64_t size : space.sizesBytes) {
        if (size == 0)
            diags.error("space.domain", what, "size of zero bytes");
    }
    for (uint32_t line : space.lineSizes) {
        if (!isPowerOfTwo(line) || line < minLineBytes ||
            line > maxLineBytes)
            diags.error("space.domain", what,
                        "line size " + std::to_string(line) +
                            " is not a power of two in [" +
                            std::to_string(minLineBytes) + ", " +
                            std::to_string(maxLineBytes) + "]");
    }
    for (uint32_t assoc : space.assocs) {
        if (assoc < 1 || assoc > maxAssoc)
            diags.error("space.domain", what,
                        "associativity " + std::to_string(assoc) +
                            " is outside [1, " +
                            std::to_string(maxAssoc) + "]");
    }
    for (uint32_t ports : space.portCounts) {
        if (ports < 1 || ports > maxPorts)
            diags.error("space.domain", what,
                        "port count " + std::to_string(ports) +
                            " is outside [1, " +
                            std::to_string(maxPorts) + "]");
    }
    if (space.replacements.empty())
        diags.error("space.domain", what,
                    "no replacement policies specified");
    if (space.writePolicies.empty())
        diags.error("space.domain", what,
                    "no write policies specified");
    // Duplicate axis entries would enumerate the same configuration
    // twice (duplicate Pareto ids downstream), so they are domain
    // errors, not redundancy.
    for (size_t i = 0; i < space.replacements.size(); ++i)
        for (size_t j = i + 1; j < space.replacements.size(); ++j)
            if (space.replacements[i] == space.replacements[j])
                diags.error("space.domain", what,
                            "duplicate replacement policy '" +
                                std::string(cache::replacementName(
                                    space.replacements[i])) +
                                "'");
    for (size_t i = 0; i < space.writePolicies.size(); ++i)
        for (size_t j = i + 1; j < space.writePolicies.size(); ++j)
            if (space.writePolicies[i] == space.writePolicies[j])
                diags.error("space.domain", what,
                            "duplicate write policy '" +
                                std::string(cache::writePolicyName(
                                    space.writePolicies[i])) +
                                "'");
    if (diags.errorCount() != before)
        return false;

    size_t feasible = 0;
    for (uint64_t size : space.sizesBytes) {
        for (uint32_t assoc : space.assocs) {
            for (uint32_t line : space.lineSizes) {
                for (uint32_t ports : space.portCounts) {
                    if (combinationFeasible(size, assoc, line,
                                            ports))
                        ++feasible;
                }
            }
        }
    }
    if (feasible == 0)
        diags.error("space.domain", what,
                    "no feasible configuration in the space");
    return diags.errorCount() == before;
}

bool
verifyHierarchy(const cache::HierarchyConfig &config,
                Diagnostics &diags)
{
    size_t before = diags.errorCount();
    verifyCacheConfig(config.icache, "I$" + config.icache.name(),
                      diags);
    verifyCacheConfig(config.dcache, "D$" + config.dcache.name(),
                      diags);
    verifyCacheConfig(config.ucache, "U$" + config.ucache.name(),
                      diags);

    std::string what = "hierarchy U$" + config.ucache.name();
    if (config.ucache.sizeBytes() < config.icache.sizeBytes() ||
        config.ucache.sizeBytes() < config.dcache.sizeBytes())
        diags.error("hierarchy.inclusion", what,
                    "the unified L2 is smaller than an L1 "
                    "(inclusion, section 3.1)");
    if (config.ucache.lineBytes < config.icache.lineBytes ||
        config.ucache.lineBytes < config.dcache.lineBytes)
        diags.error("hierarchy.inclusion", what,
                    "the unified L2's lines are shorter than an "
                    "L1's (inclusion, section 3.1)");
    if (config.l2HitLatency == 0 || config.memoryLatency == 0)
        diags.error("hierarchy.inclusion", what,
                    "stall-model latencies must be positive");
    return diags.errorCount() == before;
}

bool
verifyAhhParams(const core::ComponentParams &params,
                uint64_t granule_refs, const std::string &what,
                Diagnostics &diags)
{
    const auto errors = params.domainErrors(granule_refs);
    for (const auto &error : errors)
        diags.error("ahh.domain", what, error);
    // p2 < 0 means the measured trace violates the run model's
    // assumption lav >= 1 + p1 — well-defined data, inaccurate model.
    double p2 = params.p2();
    if (errors.empty() && p2 < 0.0)
        diags.warning("ahh.domain", what,
                      "p2 = " + std::to_string(p2) +
                          " is negative: the measured trace violates "
                          "the run-model assumption lav >= 1 + p1 "
                          "(eq. 4.4); extrapolated miss rates may be "
                          "inaccurate");
    return errors.empty();
}

} // namespace pico::verify
