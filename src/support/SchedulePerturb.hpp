/**
 * @file
 * Deterministic schedule-perturbation harness (PCT-style).
 *
 * TSan only judges the interleavings a run happens to produce. This
 * harness manufactures *different* interleavings on demand: named
 * perturbation points sit at the scheduling decisions that matter
 * (ThreadPool dispatch, BoundedQueue wait/notify, EvaluationCache
 * single-flight hand-offs, EvalService drain), and when the harness
 * is armed each point consults a seeded splitmix64 stream to decide
 * whether the calling thread yields or briefly sleeps right there.
 * Sweeping seeds (tests/schedule_test.cpp runs ≥64) explores a broad
 * family of schedules; because results must be a pure function of
 * the *workload* seeds, every perturbed schedule must produce
 * bit-identical results — any divergence is an ordering bug, not
 * noise.
 *
 * Naming convention for points (DESIGN.md §15): lowercase
 * "<component>.<event>", e.g. "boundedqueue.pop",
 * "evalcache.leader". Points are cheap — one relaxed atomic load
 * when disarmed (the default) — so they stay in Release builds, like
 * chaos sites (FaultInjection.hpp) and metrics sites.
 *
 * Determinism note: the decision stream mixes the seed with the
 * point name and a global arrival counter, so two sweeps with the
 * same seed over the same workload perturb similarly (not
 * identically — arrival order feeds the counter — but identical
 * perturbation is not the contract; identical *results* are).
 */

#ifndef PICO_SUPPORT_SCHEDULE_PERTURB_HPP
#define PICO_SUPPORT_SCHEDULE_PERTURB_HPP

#include <atomic>
#include <cstdint>
#include <functional>

namespace pico::support
{

namespace detail
{
/** Master switch: one relaxed load per point when disarmed (no seed
 *  armed and no ScopedPointAction alive). */
extern std::atomic<bool> perturbOn;

/** Armed-path body of perturbPoint() (yield/sleep decision). */
void perturbSlow(const char *point);
} // namespace detail

/**
 * A named perturbation point. Disarmed (the default) this is one
 * relaxed atomic load; armed, it may yield or sleep the calling
 * thread for a few microseconds, chosen deterministically from the
 * harness seed, the point name and the arrival counter.
 */
inline void
perturbPoint(const char *point)
{
    if (detail::perturbOn.load(std::memory_order_relaxed))
        detail::perturbSlow(point);
}

/** Arm the harness with a seed (resets the arrival counter). */
void armSchedulePerturb(uint64_t seed);

/** Disarm the harness (perturbPoint() returns to its fast path). */
void disarmSchedulePerturb();

/** True while the harness is armed with a seed. */
bool schedulePerturbArmed();

/** Perturbation decisions taken (yields + sleeps) since arming. */
uint64_t perturbCount();

/** RAII arm/disarm for one test scope. */
class ScopedPerturb
{
  public:
    explicit ScopedPerturb(uint64_t seed) { armSchedulePerturb(seed); }
    ~ScopedPerturb() { disarmSchedulePerturb(); }

    ScopedPerturb(const ScopedPerturb &) = delete;
    ScopedPerturb &operator=(const ScopedPerturb &) = delete;
};

/**
 * Run an action once, on the first thread to reach a named point
 * while this scope lives, before that thread goes on. A seed sweep
 * reaches an interleaving by chance; this pins one, e.g. a stop()
 * landing between a poll() and its accept(). Seeded decisions, if
 * armed, still apply at every point. The scope must outlive every
 * thread that can reach a perturbation point meanwhile.
 */
class ScopedPointAction
{
  public:
    ScopedPointAction(const char *point, std::function<void()> action);
    ~ScopedPointAction();

    ScopedPointAction(const ScopedPointAction &) = delete;
    ScopedPointAction &operator=(const ScopedPointAction &) = delete;

    /** True once the action has run. */
    bool fired() const { return fired_.load(std::memory_order_acquire); }

  private:
    friend void detail::perturbSlow(const char *point);

    const char *point_;
    std::function<void()> action_;
    std::atomic<bool> fired_{false};
};

} // namespace pico::support

#endif // PICO_SUPPORT_SCHEDULE_PERTURB_HPP
