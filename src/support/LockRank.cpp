#include "support/LockRank.hpp"

#include <atomic>

#include "support/Logging.hpp"

namespace pico::support::lockrank
{

namespace
{

/** Runtime mute switch for Debug overhead A/B measurement. */
std::atomic<bool> checkOn{true};

/** Deepest ranked-lock nesting any one thread may reach. The real
 *  program nests a few deep (e.g. flush → table); 16 leaves
 *  generous headroom and keeps the stack a fixed thread-local array
 *  with no allocation on the lock path. */
constexpr size_t maxHeld = 16;

struct HeldLock
{
    const char *name;
    int rank;
};

struct HeldStack
{
    HeldLock locks[maxHeld];
    size_t depth = 0;
    /** True while reporting a violation: fatal() itself may acquire
     *  ranked locks (stderr is lock-free, but the fatal hook is
     *  user code), and a checker that re-enters while dying would
     *  recurse forever. */
    bool reporting = false;
};

HeldStack &
held()
{
    static thread_local HeldStack stack;
    return stack;
}

} // namespace

void
setLockRankCheckEnabled(bool on)
{
    checkOn.store(on, std::memory_order_relaxed);
}

bool
lockRankCheckEnabled()
{
    return checkOn.load(std::memory_order_relaxed);
}

void
onAcquire(const char *name, int rank)
{
    if (rank == support::rank::kUnranked ||
        !checkOn.load(std::memory_order_relaxed))
        return;
    HeldStack &stack = held();
    if (stack.reporting)
        return;
    for (size_t i = 0; i < stack.depth; ++i) {
        if (rank <= stack.locks[i].rank) {
            stack.reporting = true;
            fatal("lock-rank violation: acquiring '", name,
                  "' (rank ", rank, ") while holding '",
                  stack.locks[i].name, "' (rank ",
                  stack.locks[i].rank,
                  ") — acquisition order must follow "
                  "src/support/LockRank.hpp (DESIGN.md §15)");
        }
    }
    if (stack.depth < maxHeld) {
        stack.locks[stack.depth].name = name;
        stack.locks[stack.depth].rank = rank;
    }
    ++stack.depth;
}

void
onRelease(const char *name, int rank)
{
    if (rank == support::rank::kUnranked)
        return;
    HeldStack &stack = held();
    if (stack.reporting || stack.depth == 0)
        return;
    if (stack.depth > maxHeld) {
        // Entries past maxHeld were counted but not recorded; this
        // release must belong to one of them.
        --stack.depth;
        return;
    }
    // Releases are almost always LIFO; search from the top so the
    // common case is one comparison.
    for (size_t i = stack.depth; i-- > 0;) {
        if (stack.locks[i].rank == rank &&
            stack.locks[i].name == name) {
            for (size_t j = i; j + 1 < stack.depth; ++j)
                stack.locks[j] = stack.locks[j + 1];
            --stack.depth;
            return;
        }
    }
    // No match: the acquire happened while the checker was muted.
}

size_t
heldLockCount()
{
    return held().depth;
}

void
resetThreadForTest()
{
    HeldStack &stack = held();
    stack.depth = 0;
    stack.reporting = false;
}

} // namespace pico::support::lockrank
