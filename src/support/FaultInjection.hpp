/**
 * @file
 * Deterministic fault-injection harness.
 *
 * Long exploration runs must survive corrupt or half-written cache
 * databases and infeasible designs, and every recovery path
 * needs a test that actually exercises it. This header provides the
 * two halves of that story:
 *
 *  - *Scoped failures*: production code marks named sites with
 *    faultPoint("Component::method:event"); tests arm a site (via
 *    ScopedFault) to throw FaultInjectedError on its nth hit,
 *    simulating a crash or I/O failure at exactly that point. Unarmed
 *    sites cost one map lookup against an empty registry.
 *
 *  - *File corruption*: seed-driven helpers that truncate files or
 *    flip bits at deterministic offsets, so corruption tests are
 *    exactly reproducible from a seed.
 *
 * The injector is intentionally process-global (like a signal): the
 * code under test cannot be expected to thread a test-only handle
 * through every layer. Tests must disarm what they arm — ScopedFault
 * guarantees this.
 */

#ifndef PICO_SUPPORT_FAULT_INJECTION_HPP
#define PICO_SUPPORT_FAULT_INJECTION_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/ThreadAnnotations.hpp"

namespace pico
{

/** Exception thrown when an armed fault-injection site fires. */
class FaultInjectedError : public std::runtime_error
{
  public:
    explicit FaultInjectedError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace support
{

/** Process-global registry of named fault-injection sites. */
class FaultInjector
{
  public:
    /** The singleton registry. */
    static FaultInjector &instance();

    /**
     * Arm a site: the (skip+1)th subsequent hit throws.
     * @param site site name as passed to faultPoint()
     * @param skip hits to let pass before firing (0 = fire on the
     *        next hit)
     * @param fires times to fire before auto-disarming (0 = forever)
     */
    void arm(const std::string &site, uint64_t skip = 0,
             uint64_t fires = 1) PICO_REQUIRES(!faultMutex_);

    /** Disarm one site (hit counters are kept). */
    void disarm(const std::string &site)
        PICO_REQUIRES(!faultMutex_);

    /** Disarm every site and forget all hit counters. */
    void reset() PICO_REQUIRES(!faultMutex_);

    /**
     * Called by faultPoint(): count the hit and decide.
     * @return true when the armed trigger fires
     */
    bool shouldFail(const std::string &site)
        PICO_REQUIRES(!faultMutex_);

    /** Times a site has been hit since the last reset(). */
    uint64_t hits(const std::string &site) const
        PICO_REQUIRES(!faultMutex_);

    /** True when any site is currently armed. */
    bool
    anyArmed() const
    {
        return armedCount_.load(std::memory_order_acquire) > 0;
    }

  private:
    FaultInjector() = default;

    struct Site
    {
        uint64_t hits = 0;
        uint64_t skip = 0;
        uint64_t fires = 0;
        bool armed = false;
    };

    /**
     * Sites fire from parallel walks, so the registry is guarded by
     * a mutex; the armed count is a separate atomic so the unarmed
     * fast path in faultPoint() stays lock-free.
     */
    mutable Mutex faultMutex_{"faultinjector", rank::kFaultInjector};
    std::map<std::string, Site> sites_ PICO_GUARDED_BY(faultMutex_);
    std::atomic<uint64_t> armedCount_{0};
};

/**
 * Production-code hook: throws FaultInjectedError when `site` is
 * armed and due. Unarmed processes short-circuit on anyArmed().
 */
inline void
faultPoint(const char *site)
{
    auto &inj = FaultInjector::instance();
    if (!inj.anyArmed())
        return;
    if (inj.shouldFail(site))
        throw FaultInjectedError(std::string("injected fault at ") +
                                 site);
}

/** RAII arm/disarm of one site (exception-safe test scaffolding). */
class ScopedFault
{
  public:
    explicit ScopedFault(std::string site, uint64_t skip = 0,
                         uint64_t fires = 1)
        : site_(std::move(site))
    {
        FaultInjector::instance().arm(site_, skip, fires);
    }
    ~ScopedFault() { FaultInjector::instance().disarm(site_); }
    ScopedFault(const ScopedFault &) = delete;
    ScopedFault &operator=(const ScopedFault &) = delete;

  private:
    std::string site_;
};

/**
 * Truncate a file to keepBytes; fatal() when the file is missing or
 * already shorter.
 */
void truncateFile(const std::string &path, uint64_t keepBytes);

/** Flip one bit: byte byteOffset, bit bitIndex (0-7). */
void flipBit(const std::string &path, uint64_t byteOffset,
             unsigned bitIndex);

/**
 * Deterministic corruption offsets: n distinct byte offsets in
 * [lo, fileSize) drawn from the given seed. lo lets callers protect
 * a header from corruption.
 */
std::vector<uint64_t> corruptionOffsets(const std::string &path,
                                        uint64_t seed, size_t n,
                                        uint64_t lo = 0);

} // namespace support
} // namespace pico

#endif // PICO_SUPPORT_FAULT_INJECTION_HPP
