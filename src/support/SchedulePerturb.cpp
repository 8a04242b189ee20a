#include "support/SchedulePerturb.hpp"

#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace pico::support
{

namespace detail
{
std::atomic<bool> perturbOn{false};
} // namespace detail

namespace
{

std::atomic<bool> seeded{false};
std::atomic<ScopedPointAction *> pointAction{nullptr};
std::atomic<uint64_t> perturbSeed{0};
std::atomic<uint64_t> arrivals{0};
std::atomic<uint64_t> decisions{0};

/** FNV-1a over the point name: stable per-point stream offset. */
uint64_t
hashPoint(const char *point)
{
    uint64_t h = 1469598103934665603ull;
    for (const char *p = point; *p != '\0'; ++p) {
        h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
        h *= 1099511628211ull;
    }
    return h;
}

/** splitmix64 finalizer: cheap, well-mixed, seedable. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

namespace detail
{

void
perturbSlow(const char *point)
{
    ScopedPointAction *action =
        pointAction.load(std::memory_order_acquire);
    if (action != nullptr && std::strcmp(action->point_, point) == 0 &&
        !action->fired_.exchange(true, std::memory_order_acq_rel))
        action->action_();
    if (!seeded.load(std::memory_order_relaxed))
        return;
    uint64_t n = arrivals.fetch_add(1, std::memory_order_relaxed);
    uint64_t r = mix(perturbSeed.load(std::memory_order_relaxed) ^
                     hashPoint(point) ^ (n * 0x2545f4914f6cdd1dull));
    // ~1/4 of arrivals yield, ~1/16 additionally sleep 1-64 us: the
    // sleep is long enough to let a blocked peer win the race being
    // perturbed, short enough that a 64-seed sweep stays fast.
    uint64_t bucket = r & 0xf;
    if (bucket < 4) {
        decisions.fetch_add(1, std::memory_order_relaxed);
        if (bucket == 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(1 + ((r >> 8) & 63)));
        } else {
            std::this_thread::yield();
        }
    }
}

} // namespace detail

void
armSchedulePerturb(uint64_t seed)
{
    perturbSeed.store(seed, std::memory_order_relaxed);
    arrivals.store(0, std::memory_order_relaxed);
    decisions.store(0, std::memory_order_relaxed);
    seeded.store(true, std::memory_order_relaxed);
    detail::perturbOn.store(true, std::memory_order_relaxed);
}

void
disarmSchedulePerturb()
{
    seeded.store(false, std::memory_order_relaxed);
    detail::perturbOn.store(pointAction.load() != nullptr,
                            std::memory_order_relaxed);
}

bool
schedulePerturbArmed()
{
    return seeded.load(std::memory_order_relaxed);
}

uint64_t
perturbCount()
{
    return decisions.load(std::memory_order_relaxed);
}

ScopedPointAction::ScopedPointAction(const char *point,
                                     std::function<void()> action)
    : point_(point), action_(std::move(action))
{
    pointAction.store(this, std::memory_order_release);
    detail::perturbOn.store(true, std::memory_order_relaxed);
}

ScopedPointAction::~ScopedPointAction()
{
    pointAction.store(nullptr, std::memory_order_release);
    detail::perturbOn.store(seeded.load(), std::memory_order_relaxed);
}

} // namespace pico::support
