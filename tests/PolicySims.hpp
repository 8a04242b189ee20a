/**
 * @file
 * Store-heavy traces and write-back-counting simulators shared by the
 * cache-kernel and policy suites. A write-back question has one
 * simulator per replacement policy: the Cheetah stacks
 * (SinglePassSim) for LRU, the set-resident simulator for FIFO and
 * random. Both take references, blocks and queries the same way, so
 * one generic check covers all three policies.
 */

#ifndef PICO_TESTS_POLICY_SIMS_HPP
#define PICO_TESTS_POLICY_SIMS_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/Policy.hpp"
#include "cache/SetResidentSim.hpp"
#include "cache/SinglePassSim.hpp"
#include "support/Random.hpp"
#include "trace/Access.hpp"

namespace pico::testutil
{

/**
 * 1k-access random trace with locality and ~30% stores, one per
 * stream id.
 */
inline std::vector<trace::Access>
randomWriteTrace(uint64_t seed, uint64_t stream)
{
    Rng rng = Rng::forStream(seed, stream);
    std::vector<trace::Access> out;
    out.reserve(1000);
    uint64_t pc = 0;
    for (int i = 0; i < 1000; ++i) {
        if (rng.coin(0.2))
            pc = rng.below(1 << 14) & ~3ULL;
        out.push_back({pc, false, rng.coin(0.3)});
        pc += 4;
    }
    return out;
}

/**
 * Same-line runs of 1..20 references over 512 lines (16 KB at
 * 32-byte lines), four run kinds in turn: a store at the start, a
 * store in the middle, a store only after a boundary of `chunk`
 * (the run starts before it), and no store. Fed in `chunk`-sized
 * blocks, runs straddle block boundaries.
 */
inline std::vector<trace::Access>
runHeavyTrace(uint64_t seed, size_t chunk, size_t length)
{
    Rng rng = Rng::forStream(seed, 0);
    std::vector<trace::Access> out;
    uint64_t prev_line = ~0ULL;
    for (size_t kind = 0; out.size() < length; kind = (kind + 1) % 4) {
        uint64_t line = rng.below(512);
        if (line == prev_line)
            line = (line + 1) % 512;
        prev_line = line;
        size_t pos = out.size();
        size_t len = 1 + rng.below(20);
        size_t store = 0;
        if (kind == 1)
            store = len / 2;
        if (kind == 2) {
            size_t to_boundary = chunk - pos % chunk;
            len = to_boundary + 1 + rng.below(8);
            store = to_boundary + rng.below(len - to_boundary);
        }
        for (size_t i = 0; i < len; ++i)
            out.push_back({line * 32 + 4 * (i % 8), false,
                           kind != 3 && i == store});
    }
    return out;
}

/** Every (sets, assoc) with sets in [min, max] and assoc <= max. */
inline std::vector<cache::SetResidentSim::Geometry>
rectangle(uint32_t min_sets, uint32_t max_sets, uint32_t max_assoc)
{
    std::vector<cache::SetResidentSim::Geometry> out;
    for (uint32_t sets = min_sets; sets <= max_sets; sets *= 2)
        for (uint32_t assoc = 1; assoc <= max_assoc; ++assoc)
            out.push_back({sets, assoc});
    return out;
}

/**
 * Call f(sim) with a fresh simulator of `policy` that counts misses
 * and write-backs of every (sets, assoc) of the rectangle at `line`:
 * a SinglePassSim counting write-backs for LRU, a SetResidentSim for
 * FIFO and random.
 */
template <typename F>
void
withWritebackSim(cache::ReplacementPolicy policy, uint32_t line,
                 uint32_t min_sets, uint32_t max_sets, uint32_t max_assoc,
                 F &&f)
{
    if (policy == cache::ReplacementPolicy::LRU) {
        cache::SinglePassSim sim(line, min_sets, max_sets, max_assoc,
                                 /*count_writebacks=*/true);
        f(sim);
    } else {
        cache::SetResidentSim sim(
            line, rectangle(min_sets, max_sets, max_assoc), policy);
        f(sim);
    }
}

/**
 * Feed references through accessBlock(): one block per entry of
 * `chunks`, then the rest in one block.
 */
template <typename Sim>
void
feedBlocks(Sim &sim, const std::vector<trace::Access> &refs,
           const std::vector<size_t> &chunks)
{
    std::vector<uint64_t> addrs;
    std::vector<uint8_t> kinds;
    for (const auto &a : refs) {
        addrs.push_back(a.addr);
        kinds.push_back(trace::recordKind(a));
    }
    size_t i = 0;
    for (size_t chunk : chunks) {
        size_t n = std::min(chunk, addrs.size() - i);
        sim.accessBlock(addrs.data() + i, kinds.data() + i, n);
        i += n;
    }
    sim.accessBlock(addrs.data() + i, kinds.data() + i, addrs.size() - i);
}

} // namespace pico::testutil

#endif // PICO_TESTS_POLICY_SIMS_HPP
