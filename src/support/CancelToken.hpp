/**
 * @file
 * Cooperative cancellation with deadlines.
 *
 * Long-running evaluations (a design-space walk, a server request)
 * must be abortable without killing the process or corrupting shared
 * state. A CancelToken is the contract between the party that wants
 * the work stopped (a signal handler, a per-request deadline, a
 * draining server) and the inner loops that do the work:
 *
 *  - the *owner* calls cancel(), or constructs the token with a
 *    deadline in monotonic time, after which the token reports
 *    cancelled on its own;
 *
 *  - the *workers* sprinkle checkpoint() at loop boundaries (per
 *    trace block, per design, per request stage). A checkpoint on a
 *    cancelled token throws CancelledError, which unwinds through
 *    the normal exception-safety machinery — partially built state
 *    is discarded by destructors, results committed before the
 *    checkpoint stay committed (and cached).
 *
 * Cancellation is *cooperative and monotonic*: nothing is ever
 * forcibly interrupted, and once a token reports cancelled it stays
 * cancelled. Checks are cheap (one relaxed atomic load on the
 * not-cancelled path plus, when a deadline is set, one steady-clock
 * read), so a per-block checkpoint is in the noise of the work it
 * guards.
 */

#ifndef PICO_SUPPORT_CANCEL_TOKEN_HPP
#define PICO_SUPPORT_CANCEL_TOKEN_HPP

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "support/Metrics.hpp"

namespace pico
{

/** Exception thrown by CancelToken::checkpoint() after cancel. */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace support
{

/** Shared cancel/deadline flag for one unit of cancellable work. */
class CancelToken
{
  public:
    /** Sentinel meaning "no deadline". */
    static constexpr uint64_t noDeadline = ~0ULL;

    /** Token without a deadline (cancel() only). */
    CancelToken() = default;

    /**
     * Token that self-cancels at an absolute monotonic time (ns on
     * the monotonicNowNs() clock). Use afterMs() for the common
     * relative case.
     */
    explicit CancelToken(uint64_t deadline_ns)
        : deadlineNs_(deadline_ns)
    {}

    /**
     * The absolute deadline `ms` milliseconds from now, saturated to
     * noDeadline when it does not fit in 64-bit nanoseconds (an
     * overflowing sum would wrap into the past and fire at once).
     */
    static uint64_t
    deadlineAfterMs(uint64_t ms)
    {
        const uint64_t now = monotonicNowNs();
        return ms < (noDeadline - now) / 1000000ULL
                   ? now + ms * 1000000ULL
                   : noDeadline;
    }

    /** Token whose deadline is `ms` milliseconds from now. */
    static CancelToken
    afterMs(uint64_t ms)
    {
        return CancelToken(deadlineAfterMs(ms));
    }

    /** Request cancellation (idempotent, thread-safe). */
    void
    cancel()
    {
        cancelled_.store(true, std::memory_order_release);
    }

    /** True once cancelled or past the deadline. */
    bool
    cancelled() const
    {
        if (cancelled_.load(std::memory_order_acquire))
            return true;
        if (deadlineNs_ != noDeadline &&
            monotonicNowNs() >= deadlineNs_) {
            // Latch the flag so later checks skip the clock read and
            // the token stays monotonic even if the clock could move.
            cancelled_.store(true, std::memory_order_release);
            return true;
        }
        return false;
    }

    /** True when this token carries a deadline. */
    bool hasDeadline() const { return deadlineNs_ != noDeadline; }

    /** The absolute deadline (noDeadline when none). */
    uint64_t deadlineNs() const { return deadlineNs_; }

    /**
     * Nanoseconds until the deadline (0 when past, noDeadline when
     * the token has none). For sizing waits.
     */
    uint64_t
    remainingNs() const
    {
        if (deadlineNs_ == noDeadline)
            return noDeadline;
        uint64_t now = monotonicNowNs();
        return now >= deadlineNs_ ? 0 : deadlineNs_ - now;
    }

    /** Throw CancelledError when cancelled; cheap otherwise. */
    void
    checkpoint(const char *where = "work") const
    {
        if (cancelled())
            throw CancelledError(std::string("cancelled: ") + where);
    }

  private:
    mutable std::atomic<bool> cancelled_{false};
    uint64_t deadlineNs_ = noDeadline;
};

/**
 * Stride-gated checkpoint for hot loops: calls token->checkpoint()
 * every `stride` ticks, so the steady-clock read of a deadline token
 * is amortized over many iterations. A null token costs one pointer
 * compare per tick.
 */
class CancelCheck
{
  public:
    explicit CancelCheck(const CancelToken *token,
                         uint32_t stride = 4096)
        : token_(token), stride_(stride)
    {}

    void
    tick(const char *where = "work")
    {
        if (token_ == nullptr)
            return;
        if (++count_ >= stride_) {
            count_ = 0;
            token_->checkpoint(where);
        }
    }

  private:
    const CancelToken *token_;
    uint32_t stride_;
    uint32_t count_ = 0;
};

} // namespace support
} // namespace pico

#endif // PICO_SUPPORT_CANCEL_TOKEN_HPP
