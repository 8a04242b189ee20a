#include "Digest.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

namespace perfbench
{

namespace
{

/** Incremental 64-bit FNV-1a. */
class Fnv
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    str(const std::string &s)
    {
        bytes(s.data(), s.size());
        bytes("\0", 1);
    }

    void
    num(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        bytes(&bits, sizeof(bits));
    }

    void num(uint64_t v) { bytes(&v, sizeof(v)); }

    std::string
    hex() const
    {
        char out[17];
        std::snprintf(out, sizeof(out), "%016llx",
                      static_cast<unsigned long long>(h_));
        return out;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace

std::string
walkDigest(const pico::dse::ExplorationResult &result)
{
    Fnv h;
    std::vector<pico::dse::DesignPoint> points =
        result.systems.points();
    std::sort(points.begin(), points.end(),
              [](const auto &a, const auto &b) { return a.id < b.id; });
    h.num(static_cast<uint64_t>(points.size()));
    for (const auto &p : points) {
        h.str(p.id);
        h.num(p.cost);
        h.num(p.time);
    }
    for (const auto &[name, d] : result.dilations) {
        h.str(name);
        h.num(d);
    }
    for (const auto &[name, cycles] : result.processorCycles) {
        h.str(name);
        h.num(cycles);
    }
    return h.hex();
}

std::string
answerDigest(const pico::server::Response &resp)
{
    Fnv h;
    auto it = resp.values.find("pareto.systems");
    h.num(it != resp.values.end() ? it->second : -1.0);
    // values is a sorted map, so the machine entries come in name
    // order; request.id differs per request and is left out.
    for (const auto &[key, v] : resp.values) {
        if (key.rfind("machine.", 0) != 0)
            continue;
        h.str(key);
        h.num(v);
    }
    return h.hex();
}

GoldenStore::GoldenStore(std::string path, bool record)
    : path_(std::move(path)), record_(record)
{
    std::ifstream in(path_);
    std::string key, digest;
    while (in >> key >> digest)
        golden_[key] = digest;
}

bool
GoldenStore::check(const std::string &key, const std::string &digest)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (record_) {
        auto [it, inserted] = golden_.emplace(key, digest);
        if (!inserted && it->second != digest) {
            std::cerr << "golden: " << key
                      << " is not deterministic (" << it->second
                      << " vs " << digest << ")\n";
            return false;
        }
        return true;
    }
    auto it = golden_.find(key);
    if (it == golden_.end()) {
        std::cerr << "golden: no digest recorded for " << key << "\n";
        return false;
    }
    if (it->second != digest) {
        std::cerr << "golden: digest mismatch for " << key << ": got "
                  << digest << ", expected " << it->second << "\n";
        return false;
    }
    return true;
}

bool
GoldenStore::save() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path_, std::ios::trunc);
    for (const auto &[key, digest] : golden_)
        out << key << " " << digest << "\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
