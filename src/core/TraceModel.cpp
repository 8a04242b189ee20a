#include "core/TraceModel.hpp"

#include <algorithm>
#include <cmath>

namespace pico::core
{

double
ComponentParams::p2() const
{
    if (lav <= 1.0)
        return 0.0;
    return (lav - (1.0 + p1)) / (lav - 1.0);
}

double
ComponentParams::uLines(double lineWords) const
{
    fatalIf(lineWords <= 0.0, "line size must be positive");
    // Closed form of equation 4.5 under equation 4.4; see header.
    return u1 * (lineWords + lav - 1.0) / (lineWords * lav);
}

std::vector<std::string>
ComponentParams::domainErrors(uint64_t granuleRefs) const
{
    constexpr double eps = 1e-9;
    if (!std::isfinite(u1) || !std::isfinite(p1) || !std::isfinite(lav))
        return {"non-finite trace parameter"};
    std::vector<std::string> errors;
    if (u1 <= 0.0 || u1 > static_cast<double>(granuleRefs))
        errors.push_back("u(1) = " + std::to_string(u1) +
                         " is outside (0, granule] for granule " +
                         std::to_string(granuleRefs));
    if (p1 < 0.0 || p1 > 1.0 + eps)
        errors.push_back("p1 = " + std::to_string(p1) +
                         " is outside [0, 1]");
    if (lav < 1.0 - eps)
        errors.push_back("lav = " + std::to_string(lav) + " is below 1");
    if (lav > u1 + eps)
        errors.push_back("lav = " + std::to_string(lav) +
                         " exceeds u(1) = " + std::to_string(u1));
    if (errors.empty()) {
        // p2 (eq. 4.4) <= 1 follows from p1 >= 0.
        double p = p2();
        if (!std::isfinite(p) || p > 1.0 + eps)
            errors.push_back("p2 = " + std::to_string(p) +
                             " is outside the run-model domain");
    }
    return errors;
}

void
GranuleAccumulator::grow()
{
    table_.assign(2 * table_.size(), emptySlot);
    --shift_;
    const size_t mask = table_.size() - 1;
    for (uint64_t word : buffer_) {
        size_t slot = home(word);
        while (table_[slot] != emptySlot)
            slot = (slot + 1) & mask;
        table_[slot] = word;
    }
}

void
GranuleAccumulator::closeGranule()
{
    if (buffer_.empty())
        return;

    // Empty the slots this granule filled. Each word is held in one
    // slot, so probing from its home reaches it even after slots on
    // the way were emptied.
    const size_t mask = table_.size() - 1;
    for (uint64_t word : buffer_) {
        size_t slot = home(word);
        while (table_[slot] != word)
            slot = (slot + 1) & mask;
        table_[slot] = emptySlot;
    }

    std::sort(buffer_.begin(), buffer_.end());

    // Walk the sorted unique words, splitting into runs of
    // consecutive addresses.
    uint64_t unique = buffer_.size();
    uint64_t runs = 0;
    uint64_t isolated = 0;
    size_t i = 0;
    while (i < buffer_.size()) {
        size_t j = i + 1;
        while (j < buffer_.size() && buffer_[j] == buffer_[j - 1] + 1)
            ++j;
        ++runs;
        if (j - i == 1)
            ++isolated;
        i = j;
    }

    ++granules_;
    sumUnique_ += static_cast<double>(unique);
    sumIsolatedFraction_ += static_cast<double>(isolated) /
                            static_cast<double>(unique);
    sumRunLength_ += static_cast<double>(unique) /
                     static_cast<double>(runs);
    buffer_.clear();
}

ComponentParams
GranuleAccumulator::params() const
{
    panicIf(granules_ == 0, "params() with no closed granules");
    ComponentParams p;
    auto n = static_cast<double>(granules_);
    p.u1 = sumUnique_ / n;
    p.p1 = sumIsolatedFraction_ / n;
    p.lav = sumRunLength_ / n;
    return p;
}

} // namespace pico::core
