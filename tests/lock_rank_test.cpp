/**
 * @file
 * Tests for the runtime lock-rank checker (support/LockRank.hpp).
 *
 * The checker is the dynamic half of the concurrency-soundness story:
 * tools/picoeval-lockcheck.py proves the *source* obeys the rank
 * discipline lexically, and the thread-local checker here catches the
 * acquisitions the static pass cannot see (function pointers, locks
 * taken across translation units). These tests prove the checker
 * itself works — most importantly that a deliberately inverted
 * acquisition trips it and names both locks.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "support/LockRank.hpp"
#include "support/Logging.hpp"
#include "support/ThreadAnnotations.hpp"

namespace pico
{
namespace
{

using support::Mutex;
using support::MutexLock;
using support::lockrank::heldLockCount;
using support::lockrank::lockRankCheckEnabled;
using support::lockrank::resetThreadForTest;
using support::lockrank::setLockRankCheckEnabled;

/** Two ranks that are valid table values but unused by production
 *  mutexes, so these fixtures cannot collide with real state. */
constexpr int kOuterRank = support::rank::kEvalServiceDrain;
constexpr int kInnerRank = support::rank::kHooks;

TEST(LockRank, OrderedAcquisitionPasses)
{
    Mutex outer{"test.outer", kOuterRank};
    Mutex inner{"test.inner", kInnerRank};
    EXPECT_NO_THROW({
        MutexLock a(outer);
        MutexLock b(inner);
    });
    EXPECT_EQ(heldLockCount(), 0u);
}

#if PICOEVAL_LOCK_RANK_CHECK

TEST(LockRank, InvertedAcquisitionTripsAndNamesBothLocks)
{
    Mutex outer{"test.outer", kOuterRank};
    Mutex inner{"test.inner", kInnerRank};
    try {
        MutexLock a(inner);
        MutexLock b(outer); // inner held, acquiring outer: inverted
        FAIL() << "rank inversion was not detected";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("test.outer"), std::string::npos) << msg;
        EXPECT_NE(msg.find("test.inner"), std::string::npos) << msg;
        EXPECT_NE(msg.find("lock-rank"), std::string::npos) << msg;
    }
    resetThreadForTest();
}

TEST(LockRank, EqualRankAcquisitionTrips)
{
    // Equal ranks must trip too: two locks of the same rank can be
    // taken in either order by different threads — the ABBA deadlock
    // the discipline exists to prevent.
    Mutex a{"test.peer-a", kOuterRank};
    Mutex b{"test.peer-b", kOuterRank};
    EXPECT_THROW(
        {
            MutexLock la(a);
            MutexLock lb(b);
        },
        FatalError);
    resetThreadForTest();
}

TEST(LockRank, UnrankedMutexIsInvisibleToTheChecker)
{
    // Unranked (test-local) mutexes must not poison the stack: code
    // outside the covered directories still uses plain Mutex{}.
    Mutex plain;
    Mutex inner{"test.inner", kInnerRank};
    Mutex outer{"test.outer", kOuterRank};
    EXPECT_NO_THROW({
        MutexLock a(inner);
        MutexLock p(plain); // unranked under a ranked lock: ignored
    });
    EXPECT_NO_THROW({
        MutexLock p(plain);
        MutexLock a(outer); // ranked under an unranked lock: fine
    });
    EXPECT_EQ(heldLockCount(), 0u);
}

TEST(LockRank, HeldCountTracksNesting)
{
    Mutex outer{"test.outer", kOuterRank};
    Mutex inner{"test.inner", kInnerRank};
    EXPECT_EQ(heldLockCount(), 0u);
    {
        MutexLock a(outer);
        EXPECT_EQ(heldLockCount(), 1u);
        {
            MutexLock b(inner);
            EXPECT_EQ(heldLockCount(), 2u);
        }
        EXPECT_EQ(heldLockCount(), 1u);
    }
    EXPECT_EQ(heldLockCount(), 0u);
}

TEST(LockRank, RuntimeToggleMutesTheChecker)
{
    Mutex outer{"test.outer", kOuterRank};
    Mutex inner{"test.inner", kInnerRank};
    ASSERT_TRUE(lockRankCheckEnabled());
    setLockRankCheckEnabled(false);
    EXPECT_NO_THROW({
        MutexLock a(inner);
        MutexLock b(outer); // inverted, but muted
    });
    setLockRankCheckEnabled(true);
    EXPECT_TRUE(lockRankCheckEnabled());
    // The checker works again after re-enabling.
    EXPECT_THROW(
        {
            MutexLock a(inner);
            MutexLock b(outer);
        },
        FatalError);
    resetThreadForTest();
}

TEST(LockRank, StackIsPerThread)
{
    // A rank held on this thread must not constrain another thread.
    Mutex outer{"test.outer", kOuterRank};
    Mutex inner{"test.inner", kInnerRank};
    MutexLock held(inner);
    std::thread other([&] {
        EXPECT_NO_THROW(MutexLock a(outer));
        EXPECT_EQ(heldLockCount(), 0u);
    });
    other.join();
}

#else // !PICOEVAL_LOCK_RANK_CHECK

TEST(LockRank, CompiledOutCheckerNeverThrows)
{
    // Release builds: an inverted order is not detected (and, single
    // threaded, not a deadlock) — the checker must cost nothing.
    Mutex outer{"test.outer", kOuterRank};
    Mutex inner{"test.inner", kInnerRank};
    EXPECT_NO_THROW({
        MutexLock a(inner);
        MutexLock b(outer);
    });
    EXPECT_EQ(heldLockCount(), 0u);
}

#endif // PICOEVAL_LOCK_RANK_CHECK

} // namespace
} // namespace pico
