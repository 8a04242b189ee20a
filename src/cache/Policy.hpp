/**
 * @file
 * Replacement and write-policy axes of the cache design space.
 *
 * LRU is a stack algorithm, so Cheetah-style single-pass simulation
 * (SinglePassSim) evaluates every associativity at once from stack
 * distances, write-backs included (a dirty-depth byte per stack
 * slot). FIFO and random replacement are *not* stack algorithms: the
 * set of resident lines for associativity A is not a subset of the
 * resident set for A+1, so their miss and write-back counts come
 * from the set-resident simulator (SetResidentSim) instead, one tag
 * array per geometry (DEW-style), which handles FIFO and random only.
 *
 * Both write policies are write-allocate, so miss counts depend only
 * on the replacement policy; the policies differ only in memory
 * write traffic: write-back pays one line writeback per dirty
 * eviction, write-through pays one word write per store.
 *
 * Random replacement must be bit-identical across `--jobs` and
 * between the oracle (CacheSim) and the fast simulator, so victims
 * are drawn from an Rng::forStream stream derived purely from the
 * cache geometry — never from wall clock, thread id, or evaluation
 * order across configs.
 */

#ifndef PICO_CACHE_POLICY_HPP
#define PICO_CACHE_POLICY_HPP

#include <cstdint>
#include <string>

#include "support/Logging.hpp"
#include "support/Random.hpp"

namespace pico::cache
{

/** Line replacement policy within a set. */
enum class ReplacementPolicy : uint8_t
{
    LRU = 0,  ///< evict least-recently-used (stack algorithm)
    FIFO = 1, ///< evict oldest-installed (not a stack algorithm)
    Random = 2, ///< evict a uniformly random way (not a stack algorithm)
};

/** Store handling policy. Both are write-allocate. */
enum class WritePolicy : uint8_t
{
    WriteBack = 0,    ///< dirty lines written back on eviction
    WriteThrough = 1, ///< every store also writes memory
};

/** Short lower-case tag, e.g. "lru", "fifo", "rand". */
inline const char *
replacementName(ReplacementPolicy p)
{
    switch (p) {
    case ReplacementPolicy::LRU: return "lru";
    case ReplacementPolicy::FIFO: return "fifo";
    case ReplacementPolicy::Random: return "rand";
    }
    fatal("unknown replacement policy ",
          static_cast<unsigned>(p));
}

/** Short lower-case tag: "wb" or "wt". */
inline const char *
writePolicyName(WritePolicy p)
{
    switch (p) {
    case WritePolicy::WriteBack: return "wb";
    case WritePolicy::WriteThrough: return "wt";
    }
    fatal("unknown write policy ", static_cast<unsigned>(p));
}

/** Parse "lru"/"fifo"/"rand" (also accepts "random"). */
inline ReplacementPolicy
parseReplacement(const std::string &s)
{
    if (s == "lru")
        return ReplacementPolicy::LRU;
    if (s == "fifo")
        return ReplacementPolicy::FIFO;
    if (s == "rand" || s == "random")
        return ReplacementPolicy::Random;
    fatal("unknown replacement policy '", s,
          "' (expected lru, fifo, or rand)");
}

/** Parse "wb"/"wt" (also accepts "writeback"/"writethrough"). */
inline WritePolicy
parseWritePolicy(const std::string &s)
{
    if (s == "wb" || s == "writeback")
        return WritePolicy::WriteBack;
    if (s == "wt" || s == "writethrough")
        return WritePolicy::WriteThrough;
    fatal("unknown write policy '", s, "' (expected wb or wt)");
}

/** Default seed for replacement-victim streams (see policyRng). */
constexpr uint64_t policyDefaultSeed = 0x5eedc0ffee5eedULL;

/**
 * Stream id for one cache geometry's victim Rng. A pure function of
 * the geometry so the per-config reference simulator and the
 * multi-geometry set-resident simulator draw identical victim
 * sequences for the same (sets, assoc, lineBytes) cell — the
 * backbone of the differential policy-matrix suite.
 */
inline uint64_t
policyStream(uint32_t sets, uint32_t assoc, uint32_t line_bytes)
{
    // Distinct odd multipliers keep neighbouring geometries'
    // streams far apart (same idea as Rng::forStream's mixing).
    return 0x9e3779b97f4a7c15ULL * sets +
           0xc2b2ae3d27d4eb4fULL * assoc +
           0x165667b19e3779f9ULL * line_bytes;
}

/** Victim generator for one geometry (deterministic; see above). */
inline Rng
policyRng(uint32_t sets, uint32_t assoc, uint32_t line_bytes,
          uint64_t seed = policyDefaultSeed)
{
    return Rng::forStream(seed, policyStream(sets, assoc, line_bytes));
}

} // namespace pico::cache

#endif // PICO_CACHE_POLICY_HPP
