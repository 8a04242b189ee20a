/**
 * @file
 * Lock-rank hierarchy and the Debug-build runtime rank checker.
 *
 * Every Mutex in src/support, src/dse and src/server carries a
 * compile-time name and an integer rank from the table below
 * (DESIGN.md §15 documents the hierarchy). The discipline: a thread
 * may only acquire a mutex whose rank is strictly greater than every
 * rank it already holds. Smaller rank = outer lock. Because ranks
 * form a total order, any schedule that obeys the discipline is
 * deadlock-free by construction, and `tools/picoeval-lockcheck.py`
 * proves the source obeys it statically.
 *
 * In Debug builds (PICOEVAL_LOCK_RANK_CHECK) MutexLock additionally
 * maintains a thread-local stack of held (name, rank) pairs and
 * fatal()s — naming both locks — the moment any thread acquires out
 * of order, so a rank inversion the static pass cannot see (e.g. one
 * reachable only through a function pointer) still dies loudly in
 * tests instead of deadlocking rarely in production. The fatal()
 * routes through the normal fatal hook, so a server dumps its flight
 * recorder before the process dies.
 *
 * The checker compiles out of Release entirely (bench/
 * bench_observability_overhead.cpp measures 0% overhead); in Debug
 * it can also be muted at runtime with setLockRankCheckEnabled(false)
 * for A/B overhead measurement.
 *
 * Gaps between rank values are deliberate: a new mutex slots between
 * its outer and inner neighbours without renumbering the world. See
 * DESIGN.md §15 for the "adding a new mutex" recipe.
 */

#ifndef PICO_SUPPORT_LOCK_RANK_HPP
#define PICO_SUPPORT_LOCK_RANK_HPP

#include <cstddef>

/** 1 when the runtime rank checker is compiled in (Debug builds). */
#if !defined(NDEBUG)
#define PICOEVAL_LOCK_RANK_CHECK 1
#else
#define PICOEVAL_LOCK_RANK_CHECK 0
#endif

namespace pico::support
{

/**
 * The global lock-rank table, outermost (smallest) first. The format
 * of each line is parsed by tools/picoeval-lockcheck.py — keep the
 * `constexpr int kName = N;` shape.
 *
 * Outer tier (coordination): drain/server bookkeeping that calls
 * into everything below. Middle tier (service state, queues, cache).
 * Inner tier (leaf instrumentation): metrics/trace/hook singletons
 * that may be touched from under any other lock and must therefore
 * never acquire anything themselves.
 */
namespace rank
{
/** Default for Mutex{} — invisible to the checker; lockcheck flags
 *  unranked declarations inside the covered directories. */
constexpr int kUnranked = 0;

// --- outer: coordination ----------------------------------------------
constexpr int kEvalServiceDrain = 100;
constexpr int kServerConn = 110;
constexpr int kCacheFlush = 200;

// --- middle: service state --------------------------------------------
constexpr int kEvalServicePrograms = 300;
constexpr int kEvalServiceMemo = 310;
constexpr int kEvalServiceLive = 320;
constexpr int kEvalServiceFailures = 330;
constexpr int kEvalServiceExit = 340;

// --- middle: queues and pool ------------------------------------------
constexpr int kBoundedQueue = 400;
constexpr int kPoolQueue = 410;
constexpr int kPoolLoop = 420;

// --- middle: cache internals ------------------------------------------
constexpr int kCacheTable = 500;
constexpr int kCacheInflight = 510;

// --- middle: per-request completion -----------------------------------
constexpr int kServiceTask = 600;

// --- inner: leaf instrumentation singletons ---------------------------
constexpr int kMetricsRegistry = 700;
constexpr int kTraceRegistry = 710;
constexpr int kTraceBuf = 720;
constexpr int kHooks = 800;
} // namespace rank

namespace lockrank
{

/**
 * Debug-build runtime toggle (default on). Compiled-out builds
 * ignore it; bench_observability_overhead flips it for A/B overhead
 * measurement.
 */
void setLockRankCheckEnabled(bool on);

/** Current state of the runtime toggle. */
bool lockRankCheckEnabled();

/**
 * Record an acquisition about to happen on this thread. fatal()s
 * with both lock names when `rank` is not strictly greater than
 * every rank already held. kUnranked acquisitions are ignored.
 */
void onAcquire(const char *name, int rank);

/** Pop the matching held-lock record (searches from the top). */
void onRelease(const char *name, int rank);

/** Ranked locks the calling thread currently holds (tests). */
size_t heldLockCount();

/**
 * Clear the calling thread's held-lock stack and its suppression
 * flag. Test-only: after EXPECT_THROWing a deliberate violation the
 * thread is left in the "reporting" state (a real violation kills
 * the process, so the state never matters outside tests).
 */
void resetThreadForTest();

} // namespace lockrank

} // namespace pico::support

#endif // PICO_SUPPORT_LOCK_RANK_HPP
