#include "support/ThreadPool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "support/Hooks.hpp"
#include "support/Logging.hpp"
#include "support/TraceContext.hpp"
#include "support/TraceEvents.hpp"

namespace pico::support
{

ThreadPool::ThreadPool(unsigned workers)
{
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        threads_.emplace_back([this, i] {
            // Workers appear as their own named tracks in exported
            // chrome traces, so per-design spans land on the thread
            // that actually ran them.
            TraceRecorder::instance().nameThisThread(
                "pool-worker-" + std::to_string(i));
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(poolMutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    panicIf(threads_.empty(),
            "task submitted to a zero-worker thread pool");
    // Capture the submitter's TraceContext so work executed on a
    // worker stays attributed to the request that scheduled it.
    TraceContext ctx = currentTraceContext();
    std::function<void()> wrapped =
        [ctx, inner = std::move(task)] {
            TraceContextScope scope(ctx);
            inner();
        };
    {
        MutexLock lock(poolMutex_);
        panicIf(stop_, "task submitted to a stopping thread pool");
        queue_.push_back(std::move(wrapped));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(poolMutex_);
            // Manual wait loop instead of a predicate lambda: the
            // thread-safety analysis cannot see that a lambda body
            // runs under the caller's lock.
            while (!stop_ && queue_.empty())
                cv_.wait(lock.native());
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        PICO_METRIC_COUNT("threadpool.tasks", 1);
        // Dispatch decision point: a task dequeued but not yet run.
        hookPoint("threadpool.dispatch");
        task();
    }
}

unsigned
ThreadPool::resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace
{

/** Shared state of one parallelFor: claim counter, completion
 *  counter, and the smallest-index exception. */
struct LoopState
{
    LoopState(size_t n, std::function<void(size_t)> fn)
        : total(n), body(std::move(fn))
    {}

    const size_t total;
    /** Owned copy: helper tasks may outlive the caller's frame. */
    const std::function<void(size_t)> body;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};

    Mutex loopMutex{"threadpool.loopstate", rank::kPoolLoop};
    std::condition_variable cv;
    std::exception_ptr error PICO_GUARDED_BY(loopMutex);
    size_t errorIndex PICO_GUARDED_BY(loopMutex) = SIZE_MAX;

    /** Claim and run indices until the counter is exhausted. */
    void
    drain()
    {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                return;
            // Claim/run boundary: reorders which thread gets which
            // index without changing the merge result.
            hookPoint("threadpool.parallelfor");
            try {
                body(i);
            } catch (...) {
                MutexLock lock(loopMutex);
                if (i < errorIndex) {
                    errorIndex = i;
                    error = std::current_exception();
                }
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                total) {
                MutexLock lock(loopMutex);
                cv.notify_all();
            }
        }
    }
};

} // namespace

void
parallelFor(size_t n, ThreadPool *pool,
            const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    if (!pool || pool->workers() == 0 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // The state is shared so a helper task that wakes after the
    // caller has already returned still finds a live counter (it
    // sees it exhausted and exits immediately).
    auto state = std::make_shared<LoopState>(n, body);
    size_t helpers =
        std::min<size_t>(pool->workers(), n - 1);
    for (size_t h = 0; h < helpers; ++h)
        pool->submit([state] { state->drain(); });

    // Caller participation: guarantees forward progress even when
    // every worker is busy with an outer loop, which is what makes
    // nested parallelFor calls deadlock-free.
    state->drain();

    // The error leaves the shared state under the lock, so its last
    // reference drops on this thread even when a helper task still
    // holds the state and destroys it later.
    std::exception_ptr error;
    {
        MutexLock lock(state->loopMutex);
        while (state->done.load(std::memory_order_acquire) !=
               state->total)
            state->cv.wait(lock.native());
        error = std::move(state->error);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace pico::support
