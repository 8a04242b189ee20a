#include "support/FaultInjection.hpp"

#include <filesystem>
#include <fstream>
#include <set>

#include "support/Logging.hpp"
#include "support/Metrics.hpp"
#include "support/Random.hpp"

namespace pico::support
{

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(const std::string &site, uint64_t skip,
                   uint64_t fires)
{
    MutexLock lock(faultMutex_);
    auto &s = sites_[site];
    if (!s.armed)
        armedCount_.fetch_add(1, std::memory_order_release);
    s.armed = true;
    s.skip = s.hits + skip;
    s.fires = fires;
}

void
FaultInjector::disarm(const std::string &site)
{
    MutexLock lock(faultMutex_);
    auto it = sites_.find(site);
    if (it == sites_.end() || !it->second.armed)
        return;
    it->second.armed = false;
    armedCount_.fetch_sub(1, std::memory_order_release);
}

void
FaultInjector::reset()
{
    MutexLock lock(faultMutex_);
    sites_.clear();
    armedCount_.store(0, std::memory_order_release);
}

bool
FaultInjector::shouldFail(const std::string &site)
{
    MutexLock lock(faultMutex_);
    auto &s = sites_[site];
    uint64_t hit = s.hits++;
    if (!s.armed || hit < s.skip)
        return false;
    if (s.fires != 0 && hit >= s.skip + s.fires) {
        s.armed = false;
        armedCount_.fetch_sub(1, std::memory_order_release);
        return false;
    }
    PICO_METRIC_COUNT("fault.trips", 1);
    return true;
}

uint64_t
FaultInjector::hits(const std::string &site) const
{
    MutexLock lock(faultMutex_);
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.hits;
}

void
truncateFile(const std::string &path, uint64_t keepBytes)
{
    std::error_code ec;
    auto size = std::filesystem::file_size(path, ec);
    fatalIf(static_cast<bool>(ec), "cannot stat '", path, "' for truncation");
    fatalIf(size < keepBytes, "'", path, "' is only ", size,
            " bytes; cannot keep ", keepBytes);
    std::filesystem::resize_file(path, keepBytes, ec);
    fatalIf(static_cast<bool>(ec), "cannot truncate '", path, "'");
}

void
flipBit(const std::string &path, uint64_t byteOffset,
        unsigned bitIndex)
{
    fatalIf(bitIndex > 7, "bit index must be 0-7");
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    fatalIf(!f, "cannot open '", path, "' for corruption");
    f.seekg(static_cast<std::streamoff>(byteOffset));
    char byte = 0;
    fatalIf(!f.get(byte), "offset ", byteOffset, " is past the end of '",
            path, "'");
    byte = static_cast<char>(byte ^ (1u << bitIndex));
    f.seekp(static_cast<std::streamoff>(byteOffset));
    f.put(byte);
    f.flush();
    fatalIf(!f, "corrupting '", path, "' failed");
}

std::vector<uint64_t>
corruptionOffsets(const std::string &path, uint64_t seed, size_t n,
                  uint64_t lo)
{
    std::error_code ec;
    auto size = std::filesystem::file_size(path, ec);
    fatalIf(static_cast<bool>(ec), "cannot stat '", path, "'");
    fatalIf(lo >= size, "offset floor ", lo, " is past the end of '",
            path, "' (", size, " bytes)");
    uint64_t span = size - lo;
    fatalIf(n > span, "cannot pick ", n, " distinct offsets from ",
            span, " bytes");
    Rng rng(seed);
    std::set<uint64_t> picked;
    while (picked.size() < n)
        picked.insert(lo + rng.below(span));
    return {picked.begin(), picked.end()};
}

} // namespace pico::support
