#include "support/Hooks.hpp"

#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "support/Metrics.hpp"
#include "support/ThreadAnnotations.hpp"

namespace pico::support
{

namespace detail
{
std::atomic<unsigned> hookUsers{0};
} // namespace detail

namespace
{

/** One site's hit counter and trigger. */
struct Site
{
    uint64_t hits = 0;
    bool armed = false;
    /** Hit index of the first fire: the hits at arming plus skip. */
    uint64_t from = 0;
    uint64_t fires = 0;
    uint64_t fired = 0;
    std::function<void()> action;
};

/**
 * Sites fire from parallel walks, so the registry is guarded by a
 * mutex; armedSites mirrors the armed count so a seed-only sweep
 * never takes it. The mutex is innermost (rank 800): a site may sit
 * under any product lock, and nothing is called while it is held.
 */
struct Registry
{
    Mutex hooksMutex{"hooks", rank::kHooks};
    std::map<std::string, Site, std::less<>> sites
        PICO_GUARDED_BY(hooksMutex);
};

Registry &
registry()
{
    static Registry reg;
    return reg;
}

std::atomic<unsigned> armedSites{0};
std::atomic<bool> seeded{false};
std::atomic<uint64_t> perturbSeed{0};
std::atomic<uint64_t> arrivals{0};
std::atomic<uint64_t> decisions{0};

void
disarm(Site &site)
{
    site.armed = false;
    armedSites.fetch_sub(1, std::memory_order_relaxed);
    detail::hookUsers.fetch_sub(1, std::memory_order_relaxed);
}

/** FNV-1a over the site name: stable per-site stream offset. */
uint64_t
hashSite(const char *site)
{
    uint64_t h = 1469598103934665603ull;
    for (const char *p = site; *p != '\0'; ++p) {
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

void
perturb(const char *site)
{
    uint64_t n = arrivals.fetch_add(1, std::memory_order_relaxed);
    uint64_t r = mix(perturbSeed.load(std::memory_order_relaxed) ^
                     hashSite(site) ^ (n * 0x2545f4914f6cdd1dull));
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

} // namespace

void
detail::hookSlow(const char *site)
{
    if (seeded.load(std::memory_order_relaxed))
        perturb(site);
    if (armedSites.load(std::memory_order_relaxed) == 0)
        return;
    std::function<void()> action;
    {
        Registry &reg = registry();
        MutexLock lock(reg.hooksMutex);
        auto it = reg.sites.find(site);
        if (it == reg.sites.end())
            it = reg.sites.emplace(site, Site{}).first;
        Site &s = it->second;
        uint64_t hit = s.hits++;
        if (!s.armed || hit < s.from)
            return;
        if (s.fires != 0 && hit >= s.from + s.fires) {
            disarm(s);
            return;
        }
        ++s.fired;
        action = s.action;
    }
    // Counted outside the registry lock: the counter's first use
    // registers it under the (outer) metrics registry lock.
    PICO_METRIC_COUNT("fault.trips", 1);
    if (!action)
        throw FaultInjectedError(std::string("injected fault at ") +
                                 site);
    action();
}

void
armHook(const std::string &site, uint64_t skip, uint64_t fires,
        std::function<void()> action)
{
    Registry &reg = registry();
    MutexLock lock(reg.hooksMutex);
    Site &s = reg.sites[site];
    if (!s.armed) {
        s.armed = true;
        armedSites.fetch_add(1, std::memory_order_relaxed);
        detail::hookUsers.fetch_add(1, std::memory_order_relaxed);
    }
    s.from = s.hits + skip;
    s.fires = fires;
    s.fired = 0;
    s.action = std::move(action);
}

void
disarmHook(const std::string &site)
{
    Registry &reg = registry();
    MutexLock lock(reg.hooksMutex);
    auto it = reg.sites.find(site);
    if (it != reg.sites.end() && it->second.armed)
        disarm(it->second);
}

void
resetHooks()
{
    Registry &reg = registry();
    MutexLock lock(reg.hooksMutex);
    for (auto &entry : reg.sites) {
        if (entry.second.armed)
            disarm(entry.second);
    }
    reg.sites.clear();
}

uint64_t
hookHits(const std::string &site)
{
    Registry &reg = registry();
    MutexLock lock(reg.hooksMutex);
    auto it = reg.sites.find(site);
    return it == reg.sites.end() ? 0 : it->second.hits;
}

bool
ScopedHook::fired() const
{
    Registry &reg = registry();
    MutexLock lock(reg.hooksMutex);
    auto it = reg.sites.find(site_);
    return it != reg.sites.end() && it->second.fired != 0;
}

ScopedPerturb::ScopedPerturb(uint64_t seed)
{
    perturbSeed.store(seed, std::memory_order_relaxed);
    arrivals.store(0, std::memory_order_relaxed);
    decisions.store(0, std::memory_order_relaxed);
    if (!seeded.exchange(true, std::memory_order_relaxed))
        detail::hookUsers.fetch_add(1, std::memory_order_relaxed);
}

ScopedPerturb::~ScopedPerturb()
{
    if (seeded.exchange(false, std::memory_order_relaxed))
        detail::hookUsers.fetch_sub(1, std::memory_order_relaxed);
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

} // namespace pico::support
