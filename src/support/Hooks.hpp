/**
 * @file
 * Named hook sites: one mechanism for injected faults, stalls, pinned
 * interleavings and seeded schedule perturbation (DESIGN.md §15.3).
 *
 * Production code calls hookPoint("component.event") *before* the
 * operation the site names. Disarmed (the default, and always outside
 * tests and `picoeval_server --chaos`) that is one relaxed atomic
 * load. Two things can be armed:
 *
 *  - per site, a *trigger* {skip, fires, action}: the (skip+1)th
 *    hit after arming runs the action, and so does each later hit
 *    until `fires` ran (0 = forever). Hits are counted under the
 *    registry lock, so with `fires` 1 exactly one hitting thread runs
 *    it; it runs after the lock is released. The default action
 *    throws FaultInjectedError; a stall is an action that sleeps.
 *  - for all sites, a *schedule seed* (ScopedPerturb, PCT-style):
 *    every site hashes (seed, site, arrival counter) through
 *    splitmix64 and sometimes yields or sleeps 1-64 us, so a seed
 *    sweep manufactures interleavings whose results must all be
 *    bit-identical.
 *
 * The registry is process-global (like a signal): the code under test
 * cannot be expected to thread a test-only handle through every
 * layer. ScopedHook and ScopedPerturb disarm what they arm.
 */

#ifndef PICO_SUPPORT_HOOKS_HPP
#define PICO_SUPPORT_HOOKS_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace pico
{

/** Exception thrown by a trigger armed with the default action. */
class FaultInjectedError : public std::runtime_error
{
  public:
    explicit FaultInjectedError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace support
{

namespace detail
{
/** Armed triggers, plus one while a schedule seed is armed: the only
 *  word a disarmed hookPoint() reads. */
extern std::atomic<unsigned> hookUsers;

/** Armed-path body of hookPoint(). */
void hookSlow(const char *site);
} // namespace detail

/** A named hook site; see the file comment. */
inline void
hookPoint(const char *site)
{
    if (detail::hookUsers.load(std::memory_order_relaxed) != 0)
        detail::hookSlow(site);
}

/**
 * Arm (or re-arm) the trigger of `site`; its hit counter keeps
 * counting.
 * @param skip hits to let pass before the first fire (0 = the next)
 * @param fires times to fire before disarming (0 = forever)
 * @param action run on the hitting thread at each fire; empty =
 *        throw FaultInjectedError("injected fault at <site>")
 */
void armHook(const std::string &site, uint64_t skip = 0,
             uint64_t fires = 1, std::function<void()> action = {});

/** Disarm one site (its hit counter is kept). */
void disarmHook(const std::string &site);

/** Disarm every site and forget every hit counter. */
void resetHooks();

/** Hits of `site` since the last resetHooks(), counted only while
 *  some trigger is armed. */
uint64_t hookHits(const std::string &site);

/** RAII arm/disarm of one site (exception-safe test scaffolding). */
class ScopedHook
{
  public:
    explicit ScopedHook(std::string site, uint64_t skip = 0,
                        uint64_t fires = 1,
                        std::function<void()> action = {})
        : site_(std::move(site))
    {
        armHook(site_, skip, fires, std::move(action));
    }
    ~ScopedHook() { disarmHook(site_); }

    ScopedHook(const ScopedHook &) = delete;
    ScopedHook &operator=(const ScopedHook &) = delete;

    /** True once the trigger has fired since this scope armed it. */
    bool fired() const;

  private:
    std::string site_;
};

/** RAII schedule perturbation with one seed (resets the arrival
 *  counter and perturbCount()). */
class ScopedPerturb
{
  public:
    explicit ScopedPerturb(uint64_t seed);
    ~ScopedPerturb();

    ScopedPerturb(const ScopedPerturb &) = delete;
    ScopedPerturb &operator=(const ScopedPerturb &) = delete;
};

/** True while a schedule seed is armed. */
bool schedulePerturbArmed();

/** Seeded decisions taken (yields + sleeps) since the seed was armed. */
uint64_t perturbCount();

} // namespace support
} // namespace pico

#endif // PICO_SUPPORT_HOOKS_HPP
