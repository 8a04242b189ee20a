/**
 * @file
 * The evaluation service: bounded admission, deadline-aware workers,
 * one shared crash-safe cache — the hardened core of the server.
 *
 * The service is the in-process half of `picoeval_server`: the socket
 * layer parses frames and calls call(); everything robustness-related
 * lives here, so the chaos tests can exercise the full overload and
 * failure machinery deterministically without a socket in the loop.
 *
 * Robustness model:
 *
 *  - *Admission control*: requests enter a BoundedQueue; at the
 *    watermark the service sheds (Status::Shed + a retry-after hint)
 *    instead of queueing. Admitted work is bounded, so the p99 of
 *    admitted requests stays bounded no matter the offered load.
 *
 *  - *Deadlines*: each request carries a deadline that becomes a
 *    CancelToken threaded through the spacewalker's inner loops. A
 *    request that blows its deadline returns *partial* results
 *    tagged DeadlineExceeded — and everything it completed is in the
 *    shared cache, so a retry picks up where it stopped.
 *
 *  - *Idempotency*: a retry carrying the key of a completed request
 *    is answered from the result memo without re-walking; below
 *    that, the cache's single-flight getOrCompute collapses
 *    concurrent identical computations.
 *
 *  - *Failure isolation*: one request's evaluation error is recorded
 *    (FailureLog) and answered as Status::Failed; the workers, the
 *    queue and every other request are untouched. Only PanicError
 *    (an internal bug) propagates.
 *
 *  - *Graceful drain*: drain() stops admission, lets the workers
 *    finish the backlog under a deadline, sheds what the deadline
 *    strands (answering every abandoned waiter), cancels in-flight
 *    work past the deadline, and flushes the cache. Nothing is
 *    silently dropped and nothing blocks forever.
 *
 * Observability model (request-scoped):
 *
 *  - every eval request is assigned a process-unique request id,
 *    returned in values["request.id"] and stamped on every span and
 *    flight-recorder event the request produces — on whichever
 *    thread produced it. The admitting thread opens a request span
 *    and a flow; the worker continues the flow and parents its
 *    execute span under the admit span, so one request renders as a
 *    single connected tree across threads in the exported trace;
 *
 *  - request latency is recorded once, by the request and execute
 *    spans: with metrics on they feed the `server.request.ns` and
 *    `server.execute.ns` histograms, with tracing on the exported
 *    trace and dump-trace;
 *
 *  - introspection verbs bypass admission (an overloaded server must
 *    stay observable): "stats" reports the lifecycle, queue and cache
 *    counters, "health" reports drain state, watermark occupancy and
 *    the last recorded fault, "dump-trace" drains one request's span
 *    tree as JSON (Request::requestId names it);
 *
 *  - every lifecycle transition (admit/shed/start/deadline/fault/
 *    finish/drain) is also recorded in the always-on FlightRecorder,
 *    so a post-mortem names the affected request ids even when
 *    tracing and metrics were off.
 */

#ifndef PICO_SERVER_EVAL_SERVICE_HPP
#define PICO_SERVER_EVAL_SERVICE_HPP

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dse/EvaluationCache.hpp"
#include "dse/FailureLog.hpp"
#include "ir/Program.hpp"
#include "server/Protocol.hpp"
#include "support/BoundedQueue.hpp"
#include "support/CancelToken.hpp"
#include "support/ThreadAnnotations.hpp"
#include "support/TraceContext.hpp"

namespace pico::server
{

/** Tuning knobs of one EvalService. */
struct ServiceOptions
{
    /** Persistent evaluation-cache database ("" = memory only). */
    std::string cachePath;
    /** Worker threads executing admitted requests. */
    unsigned workers = 2;
    /** Bound on queued (admitted, not yet running) requests; a
     *  request that finds the queue this deep is shed. */
    size_t queueWatermark = 48;
    /** Deadline applied when a request carries none (0 = none). */
    uint64_t defaultDeadlineMs = 0;
    /** Drain deadline used by the destructor (ms). */
    uint64_t drainDeadlineMs = 10000;
};

/** Concurrent evaluation service over one shared cache. */
class EvalService
{
  public:
    explicit EvalService(ServiceOptions options);

    /** Drains with Options::drainDeadlineMs if not drained yet. */
    ~EvalService();

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Handle one request, blocking until its terminal response.
     * Sheds immediately (without blocking) when the queue is at the
     * watermark or the service is draining. "stats", "health",
     * "dump-trace" and "ping" requests are answered inline,
     * bypassing admission — operators must be able to observe an
     * overloaded server.
     */
    Response call(const Request &req);

    /**
     * Stop admission, finish the backlog under `deadline_ms`, shed
     * what the deadline strands, cancel in-flight work past it, join
     * the workers and flush the cache. Idempotent; later calls
     * return the first drain's verdict.
     * @return true when every admitted request finished before the
     *         deadline (no request was shed or cancelled by drain)
     */
    bool drain(uint64_t deadline_ms)
        PICO_REQUIRES(!drainMutex_);

    /** True once drain() has started (admission is closed). */
    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /** The shared evaluation cache (for stats and verification). */
    const dse::EvaluationCache &cache() const { return cache_; }

    /** Per-request failures the service survived. */
    const dse::FailureLog &failures() const;

    /** Current server counters (same values a stats request gets). */
    std::map<std::string, double> statsValues() const;

  private:
    /** One admitted request travelling through the queue. */
    struct Task
    {
        Task(Request r, uint64_t deadline_ns)
            : req(std::move(r)), token(deadline_ns)
        {}

        Request req;
        support::CancelToken token;
        /** Originating request's trace context (request id + the
         *  admit span as parent), installed by the worker so its
         *  spans join the request's tree. */
        support::TraceContext ctx;
        support::Mutex taskMutex{"evalservice.task",
                                 support::rank::kServiceTask};
        std::condition_variable cv;
        bool done PICO_GUARDED_BY(taskMutex) = false;
        Response resp PICO_GUARDED_BY(taskMutex);
    };
    using TaskPtr = std::shared_ptr<Task>;

    void workerLoop();
    /** Run one task's evaluation; fills the response. */
    Response execute(Task &task);
    /** Deliver a response and wake the task's waiter. */
    static void complete(Task &task, Response resp);
    /** The profiled program of an app (memoized per app name). */
    std::shared_ptr<const ir::Program>
    programFor(const std::string &app);
    /** The admission/wait path of one eval request. */
    Response evalCall(const Request &req);
    Response healthResponse() const;
    Response dumpTraceResponse(const Request &req) const;
    void memoize(const std::string &key, const Response &resp);
    bool memoLookup(const std::string &key, Response &resp) const;
    /** Cancel the token of every live (queued or running) task. */
    void cancelAllLive();

    ServiceOptions options_;
    dse::EvaluationCache cache_;
    support::BoundedQueue<TaskPtr> queue_;
    std::vector<std::thread> workers_;

    /** Live tasks, for drain-time cancellation. */
    mutable support::Mutex liveMutex_{
        "evalservice.live", support::rank::kEvalServiceLive};
    std::vector<std::weak_ptr<Task>> live_
        PICO_GUARDED_BY(liveMutex_);

    /** Profiled programs by app name (built once, reused). */
    mutable support::Mutex programsMutex_{
        "evalservice.programs",
        support::rank::kEvalServicePrograms};
    std::map<std::string, std::shared_ptr<const ir::Program>>
        programs_ PICO_GUARDED_BY(programsMutex_);

    /** Completed (Ok) responses by idempotency key. */
    mutable support::Mutex memoMutex_{
        "evalservice.memo", support::rank::kEvalServiceMemo};
    std::map<std::string, Response> memo_
        PICO_GUARDED_BY(memoMutex_);

    /** Per-request failures (isolation record). */
    mutable support::Mutex failuresMutex_{
        "evalservice.failures",
        support::rank::kEvalServiceFailures};
    dse::FailureLog failures_ PICO_GUARDED_BY(failuresMutex_);

    /** Worker-exit rendezvous for the drain deadline. */
    mutable support::Mutex exitMutex_{
        "evalservice.exit", support::rank::kEvalServiceExit};
    std::condition_variable exitCv_;
    unsigned workersExited_ PICO_GUARDED_BY(exitMutex_) = 0;

    /** Serializes drain() and records its verdict. */
    support::Mutex drainMutex_{"evalservice.drain",
                               support::rank::kEvalServiceDrain};
    bool drained_ PICO_GUARDED_BY(drainMutex_) = false;
    bool drainVerdict_ PICO_GUARDED_BY(drainMutex_) = true;

    std::atomic<bool> draining_{false};
    /** Eval requests received (memo hits and sheds included). */
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> deadline_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> memoHits_{0};
    std::atomic<uint64_t> inflight_{0};
};

} // namespace pico::server

#endif // PICO_SERVER_EVAL_SERVICE_HPP
