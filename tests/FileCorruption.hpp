/**
 * @file
 * Seed-driven file corruption for the recovery tests: truncate a file
 * or flip bits at deterministic offsets, so every corruption test is
 * exactly reproducible from its seed.
 */

#ifndef PICO_TESTS_FILE_CORRUPTION_HPP
#define PICO_TESTS_FILE_CORRUPTION_HPP

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "support/Logging.hpp"
#include "support/Random.hpp"

namespace pico::testutil
{

/**
 * Truncate a file to keepBytes; fatal() when the file is missing or
 * already shorter.
 */
inline void
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

/** Flip one bit: byte byteOffset, bit bitIndex (0-7). */
inline void
flipBit(const std::string &path, uint64_t byteOffset, unsigned bitIndex)
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

/**
 * Deterministic corruption offsets: n distinct byte offsets in
 * [lo, fileSize) drawn from the given seed. lo lets callers protect
 * a header from corruption.
 */
inline std::vector<uint64_t>
corruptionOffsets(const std::string &path, uint64_t seed, size_t n,
                  uint64_t lo = 0)
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

} // namespace pico::testutil

#endif // PICO_TESTS_FILE_CORRUPTION_HPP
