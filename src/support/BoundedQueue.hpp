/**
 * @file
 * Bounded MPMC queue with one admission bound, the watermark — the
 * only queue the serving layer is allowed to use.
 *
 * An unbounded queue turns overload into unbounded memory growth and
 * unbounded latency: every queued request is admitted work the server
 * has promised to do, so under sustained overload the promise grows
 * without limit and p99 follows it. This queue makes the overload
 * policy explicit instead:
 *
 *  - the *watermark* is the load-shedding threshold and the hard
 *    bound at once: tryPush() compares the depth with it and pushes
 *    under one lock, so it never blocks, the depth never passes the
 *    watermark, and a push at the watermark reports AtWatermark so
 *    the caller sheds (reject with retry-after) rather than queueing;
 *  - close() stops admission permanently; pop() drains what was
 *    admitted and then returns false, so consumers terminate.
 *    closeAndDrain() additionally hands back the unconsumed items so
 *    the caller can answer each one (a drain deadline must not
 *    silently drop admitted requests).
 *
 * Lint rule `unbounded-queue` (tools/picoeval-lint.py) forbids raw
 * std::queue/std::deque in src/server — admission control is not
 * optional there.
 */

#ifndef PICO_SUPPORT_BOUNDED_QUEUE_HPP
#define PICO_SUPPORT_BOUNDED_QUEUE_HPP

#include <condition_variable>
#include <cstddef>
// picoeval-lint: allow(unbounded-queue)
#include <deque>
#include <utility>
#include <vector>

#include "support/Hooks.hpp"
#include "support/Logging.hpp"
#include "support/ThreadAnnotations.hpp"

namespace pico::support
{

/** Outcome of a BoundedQueue push attempt. */
enum class QueuePush
{
    /** Item accepted below the watermark. */
    Ok,
    /** Rejected: depth at the watermark (shed the request). */
    AtWatermark,
    /** Rejected: the queue is closed (draining/shutting down). */
    Closed,
};

/** Bounded FIFO with watermark admission and closed drain. */
template <typename T> class BoundedQueue
{
  public:
    /** @param watermark bound on queued items (> 0) */
    explicit BoundedQueue(size_t watermark) : watermark_(watermark)
    {
        fatalIf(watermark_ == 0, "bounded queue needs a watermark > 0");
    }

    /** Non-blocking push; see QueuePush for the rejection reasons. */
    QueuePush
    tryPush(T item) PICO_REQUIRES(!queueMutex_)
    {
        {
            MutexLock lock(queueMutex_);
            if (closed_)
                return QueuePush::Closed;
            if (items_.size() >= watermark_)
                return QueuePush::AtWatermark;
            items_.push_back(std::move(item));
            if (items_.size() > peakDepth_)
                peakDepth_ = items_.size();
        }
        // Push-committed / about-to-notify race window.
        hookPoint("boundedqueue.push");
        consumerCv_.notify_one();
        return QueuePush::Ok;
    }

    /**
     * Blocking pop. @return false when the queue is closed and
     * drained — the consumer's signal to exit.
     */
    bool
    pop(T &out) PICO_REQUIRES(!queueMutex_)
    {
        // Consumer-arrival / producer-notify race window (taken
        // before the lock so the perturbation reorders arrivals).
        hookPoint("boundedqueue.pop");
        MutexLock lock(queueMutex_);
        while (items_.empty() && !closed_)
            consumerCv_.wait(lock.native());
        if (items_.empty())
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    /** Stop admission; consumers drain the remaining items. */
    void
    close() PICO_REQUIRES(!queueMutex_)
    {
        {
            MutexLock lock(queueMutex_);
            closed_ = true;
        }
        consumerCv_.notify_all();
    }

    /**
     * Stop admission AND take the unconsumed items away from the
     * consumers, so the caller can answer each abandoned request.
     * Items a consumer already popped are not affected.
     */
    std::vector<T>
    closeAndDrain() PICO_REQUIRES(!queueMutex_)
    {
        std::vector<T> leftover;
        {
            MutexLock lock(queueMutex_);
            closed_ = true;
            leftover.reserve(items_.size());
            while (!items_.empty()) {
                leftover.push_back(std::move(items_.front()));
                items_.pop_front();
            }
        }
        consumerCv_.notify_all();
        return leftover;
    }

    /** Current depth (racy by nature; for stats and tests). */
    size_t
    size() const PICO_REQUIRES(!queueMutex_)
    {
        MutexLock lock(queueMutex_);
        return items_.size();
    }

    /** Deepest the queue has ever been (never exceeds watermark). */
    size_t
    peakDepth() const PICO_REQUIRES(!queueMutex_)
    {
        MutexLock lock(queueMutex_);
        return peakDepth_;
    }

    bool
    closed() const PICO_REQUIRES(!queueMutex_)
    {
        MutexLock lock(queueMutex_);
        return closed_;
    }

    size_t watermark() const { return watermark_; }

  private:
    const size_t watermark_;
    mutable Mutex queueMutex_{"boundedqueue", rank::kBoundedQueue};
    std::deque<T> items_ PICO_GUARDED_BY(queueMutex_);
    size_t peakDepth_ PICO_GUARDED_BY(queueMutex_) = 0;
    bool closed_ PICO_GUARDED_BY(queueMutex_) = false;
    std::condition_variable consumerCv_;
};

} // namespace pico::support

#endif // PICO_SUPPORT_BOUNDED_QUEUE_HPP
