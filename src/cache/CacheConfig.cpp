#include "cache/CacheConfig.hpp"

#include <string>

#include "support/BitUtils.hpp"
#include "support/Logging.hpp"

namespace pico::cache
{

bool
CacheConfig::feasible() const
{
    return isPowerOfTwo(sets) && isPowerOfTwo(lineBytes) &&
           lineBytes >= 4 && assoc >= 1 && ports >= 1;
}

void
CacheConfig::validate() const
{
    fatalIf(!feasible(), "infeasible cache configuration: sets=", sets,
            " assoc=", assoc, " line=", lineBytes);
}

std::string
CacheConfig::name() const
{
    uint64_t size = sizeBytes();
    const bool kb = size >= 1024 && size % 1024 == 0;
    std::string out = std::to_string(kb ? size / 1024 : size);
    out += kb ? "KB/" : "B/";
    out += std::to_string(assoc);
    out += "way/";
    out += std::to_string(lineBytes);
    out += 'B';
    if (ports > 1) {
        out += '/';
        out += std::to_string(ports);
        out += 'p';
    }
    if (replacement != ReplacementPolicy::LRU) {
        out += '/';
        out += replacementName(replacement);
    }
    if (write != WritePolicy::WriteBack) {
        out += '/';
        out += writePolicyName(write);
    }
    return out;
}

CacheConfig
CacheConfig::fromSize(uint64_t size_bytes, uint32_t assoc,
                      uint32_t line_bytes, uint32_t ports)
{
    fatalIf(assoc == 0 || line_bytes == 0, "bad cache parameters");
    uint64_t line_capacity = size_bytes / line_bytes;
    fatalIf(line_capacity % assoc != 0,
            "cache size ", size_bytes, " not divisible into ", assoc,
            "-way sets of ", line_bytes, "B lines");
    CacheConfig cfg;
    cfg.sets = static_cast<uint32_t>(line_capacity / assoc);
    cfg.assoc = assoc;
    cfg.lineBytes = line_bytes;
    cfg.ports = ports;
    cfg.validate();
    return cfg;
}

double
CacheConfig::areaCost() const
{
    // Data array: one unit per byte. Tag array: tag + state bits per
    // line, assuming 32-bit addresses.
    double data_bits = 8.0 * static_cast<double>(sizeBytes());
    unsigned index_bits = log2Floor(sets);
    unsigned offset_bits = log2Floor(lineBytes);
    // State bits per line: valid + dirty for write-back; a
    // write-through line is never dirty, so it drops one state bit.
    double state_bits = write == WritePolicy::WriteBack ? 2.0 : 1.0;
    double tag_bits_per_line =
        32.0 - index_bits - offset_bits + state_bits;
    double tag_bits =
        tag_bits_per_line * static_cast<double>(sets) * assoc;
    // Associative lookup adds comparator cost per way; extra ports
    // grow area quadratically (wire pitch in both dimensions).
    double assoc_factor = 1.0 + 0.05 * (assoc - 1);
    double port_factor = static_cast<double>(ports) * ports;
    return (data_bits + tag_bits) / 8192.0 * assoc_factor *
           port_factor;
}

} // namespace pico::cache
