/**
 * @file
 * Unit tests for the serving-layer support primitives: the bounded
 * admission queue, full-jitter backoff, and cooperative cancellation
 * tokens.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "support/Backoff.hpp"
#include "support/BoundedQueue.hpp"
#include "support/CancelToken.hpp"
#include "support/Random.hpp"

namespace pico
{
namespace
{

using support::Backoff;
using support::BoundedQueue;
using support::CancelCheck;
using support::CancelToken;
using support::QueuePush;

// ---------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(q.tryPush(i), QueuePush::Ok);
    int out = -1;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(q.pop(out));
        EXPECT_EQ(out, i);
    }
}

TEST(BoundedQueue, ShedsAtWatermark)
{
    BoundedQueue<int> q(4, 2);
    EXPECT_EQ(q.tryPush(1), QueuePush::Ok);
    EXPECT_EQ(q.tryPush(2), QueuePush::Ok);
    // Depth == watermark: shed, even though capacity remains.
    EXPECT_EQ(q.tryPush(3), QueuePush::AtWatermark);
    EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, WatermarkDefaultsToCapacity)
{
    BoundedQueue<int> q(2);
    EXPECT_EQ(q.tryPush(1), QueuePush::Ok);
    EXPECT_EQ(q.tryPush(2), QueuePush::Ok);
    EXPECT_EQ(q.tryPush(3), QueuePush::Full);
}

TEST(BoundedQueue, RejectsAfterClose)
{
    BoundedQueue<int> q(4);
    EXPECT_EQ(q.tryPush(1), QueuePush::Ok);
    q.close();
    EXPECT_EQ(q.tryPush(2), QueuePush::Closed);
    // Admitted work still drains.
    int out = 0;
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, 1);
    EXPECT_FALSE(q.pop(out));
}

TEST(BoundedQueue, CloseAndDrainReturnsLeftovers)
{
    BoundedQueue<int> q(8);
    for (int i = 0; i < 4; ++i)
        q.tryPush(i);
    auto leftover = q.closeAndDrain();
    ASSERT_EQ(leftover.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(leftover[static_cast<size_t>(i)], i);
    int out = 0;
    EXPECT_FALSE(q.pop(out)); // nothing left for consumers
}

TEST(BoundedQueue, CloseWakesBlockedConsumer)
{
    BoundedQueue<int> q(4);
    std::atomic<bool> exited{false};
    std::thread consumer([&] {
        int out = 0;
        while (q.pop(out)) {
        }
        exited.store(true);
    });
    support::sleepForMs(10);
    EXPECT_FALSE(exited.load());
    q.close();
    consumer.join();
    EXPECT_TRUE(exited.load());
}

TEST(BoundedQueue, CloseWakesEveryBlockedWaiter)
{
    // Shutdown with a *crowd* of parked consumers: close() must wake
    // them all (notify_all, not notify_one) and each must observe
    // closed-and-empty, returning false exactly once.
    BoundedQueue<int> q(4);
    constexpr int kWaiters = 4;
    std::atomic<int> falseReturns{0};
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
        waiters.emplace_back([&] {
            int out = 0;
            if (!q.pop(out))
                falseReturns.fetch_add(1);
        });
    }
    // Give the waiters time to park in pop()'s cv wait.
    support::sleepForMs(20);
    q.close();
    for (auto &t : waiters)
        t.join();
    EXPECT_EQ(falseReturns.load(), kWaiters);
}

TEST(BoundedQueue, CloseAndDrainStarvesBlockedWaiters)
{
    // closeAndDrain() confiscates the backlog; consumers parked in
    // pop() must all come back empty-handed — the items belong to
    // the drainer now, not to whichever waiter wakes first.
    BoundedQueue<int> q(8);
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(q.tryPush(i), QueuePush::Ok);
    // Drain the backlog first so the waiters actually block.
    int out = 0;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(q.pop(out));
    constexpr int kWaiters = 3;
    std::atomic<int> falseReturns{0};
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
        waiters.emplace_back([&] {
            int v = 0;
            if (!q.pop(v))
                falseReturns.fetch_add(1);
        });
    }
    support::sleepForMs(20);
    // Race one late producer against the shutdown: whatever lands in
    // the queue must end up with the drainer or one consumer, never
    // both and never lost.
    (void)q.tryPush(99);
    auto leftover = q.closeAndDrain();
    for (auto &t : waiters)
        t.join();
    EXPECT_TRUE(q.closed());
    // Every parked waiter either got the late item or returned false,
    // and the item went to exactly one place — drainer or consumer.
    const int consumed = kWaiters - falseReturns.load();
    EXPECT_GE(falseReturns.load(), kWaiters - 1);
    EXPECT_LE(leftover.size(), 1u);
    EXPECT_EQ(static_cast<int>(leftover.size()) + consumed, 1);
}

TEST(BoundedQueue, PeakDepthNeverExceedsWatermark)
{
    BoundedQueue<int> q(64, 8);
    std::atomic<uint64_t> accepted{0}, shed{0};
    std::atomic<uint64_t> popped{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&] {
            for (int i = 0; i < 200; ++i) {
                if (q.tryPush(i) == QueuePush::Ok)
                    accepted.fetch_add(1);
                else
                    shed.fetch_add(1);
            }
        });
    }
    std::thread consumer([&] {
        int out = 0;
        while (q.pop(out))
            popped.fetch_add(1);
    });
    for (auto &t : producers)
        t.join();
    q.close();
    consumer.join();
    // Conservation: everything accepted was popped, nothing else.
    EXPECT_EQ(accepted.load(), popped.load());
    EXPECT_EQ(accepted.load() + shed.load(), 800u);
    // The watermark bound held at every instant.
    EXPECT_LE(q.peakDepth(), q.watermark());
}

// ---------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------

TEST(Backoff, DelaysStayWithinEnvelope)
{
    Backoff b(Rng::forStream(7, 0), 2, 64);
    uint64_t ceiling = 2;
    for (int k = 0; k < 10; ++k) {
        uint64_t d = b.nextDelayMs();
        EXPECT_LE(d, std::min<uint64_t>(ceiling, 64));
        if (ceiling < 64)
            ceiling *= 2;
    }
    EXPECT_EQ(b.attempts(), 10u);
}

TEST(Backoff, RespectsRetryAfterFloor)
{
    Backoff b(Rng::forStream(7, 1), 2, 64);
    for (int k = 0; k < 8; ++k)
        EXPECT_GE(b.nextDelayMs(50), 50u);
}

TEST(Backoff, DeterministicPerStream)
{
    Backoff a(Rng::forStream(42, 3), 2, 250);
    Backoff b(Rng::forStream(42, 3), 2, 250);
    for (int k = 0; k < 12; ++k)
        EXPECT_EQ(a.nextDelayMs(), b.nextDelayMs());
    // Distinct streams decorrelate (not all-equal across attempts).
    Backoff c(Rng::forStream(42, 4), 2, 250);
    Backoff d(Rng::forStream(42, 3), 2, 250);
    bool any_diff = false;
    for (int k = 0; k < 12; ++k)
        any_diff |= c.nextDelayMs() != d.nextDelayMs();
    EXPECT_TRUE(any_diff);
}

TEST(Backoff, ResetRestartsTheSequence)
{
    Backoff b(Rng::forStream(1, 0), 4, 1024);
    for (int k = 0; k < 6; ++k)
        b.nextDelayMs();
    b.reset();
    EXPECT_EQ(b.attempts(), 0u);
    // Post-reset first delay is bounded by the base again.
    EXPECT_LE(b.nextDelayMs(), 4u);
}

TEST(Backoff, RejectsBadConfiguration)
{
    EXPECT_THROW(Backoff(Rng::forStream(1, 0), 0, 10), PanicError);
    EXPECT_THROW(Backoff(Rng::forStream(1, 0), 10, 5), PanicError);
}

// ---------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------

TEST(CancelToken, DefaultTokenNeverCancels)
{
    CancelToken t;
    EXPECT_FALSE(t.cancelled());
    EXPECT_FALSE(t.hasDeadline());
    EXPECT_NO_THROW(t.checkpoint("test"));
    EXPECT_EQ(t.remainingNs(), CancelToken::noDeadline);
}

TEST(CancelToken, CancelLatchesAndCheckpointThrows)
{
    CancelToken t;
    t.cancel();
    EXPECT_TRUE(t.cancelled());
    EXPECT_THROW(t.checkpoint("stage"), CancelledError);
    // Monotonic: still cancelled.
    EXPECT_TRUE(t.cancelled());
}

TEST(CancelToken, DeadlineExpires)
{
    CancelToken t = CancelToken::afterMs(5);
    EXPECT_TRUE(t.hasDeadline());
    support::sleepForMs(20);
    EXPECT_TRUE(t.cancelled());
    EXPECT_EQ(t.remainingNs(), 0u);
    EXPECT_THROW(t.checkpoint("late"), CancelledError);
}

TEST(CancelToken, FutureDeadlineNotYetCancelled)
{
    CancelToken t = CancelToken::afterMs(60000);
    EXPECT_FALSE(t.cancelled());
    EXPECT_GT(t.remainingNs(), 0u);
    EXPECT_NO_THROW(t.checkpoint("early"));
}

TEST(CancelToken, OverflowingDeadlineSaturatesToNone)
{
    // A deadline past the end of 64-bit nanoseconds is no deadline,
    // not one that wrapped into the past.
    CancelToken t = CancelToken::afterMs(~0ULL);
    EXPECT_FALSE(t.hasDeadline());
    EXPECT_FALSE(t.cancelled());
    EXPECT_EQ(CancelToken::deadlineAfterMs(~0ULL / 1000),
              CancelToken::noDeadline);
}

TEST(CancelToken, CancelVisibleAcrossThreads)
{
    CancelToken t;
    std::atomic<bool> saw{false};
    std::thread watcher([&] {
        while (!t.cancelled())
            support::sleepForMs(1);
        saw.store(true);
    });
    support::sleepForMs(5);
    t.cancel();
    watcher.join();
    EXPECT_TRUE(saw.load());
}

TEST(CancelCheck, ChecksOnStrideBoundary)
{
    CancelToken t;
    t.cancel();
    CancelCheck check(&t, 4);
    // Ticks 1..3 are below the stride: no check yet.
    EXPECT_NO_THROW(check.tick("hot"));
    EXPECT_NO_THROW(check.tick("hot"));
    EXPECT_NO_THROW(check.tick("hot"));
    EXPECT_THROW(check.tick("hot"), CancelledError);
}

TEST(CancelCheck, NullTokenIsFree)
{
    CancelCheck check(nullptr, 1);
    for (int i = 0; i < 100; ++i)
        EXPECT_NO_THROW(check.tick("hot"));
}

} // namespace
} // namespace pico
