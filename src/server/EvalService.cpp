#include "server/EvalService.hpp"

#include <algorithm>
#include <chrono>

#include "core/TraceModel.hpp"
#include "dse/Spacewalker.hpp"
#include "support/FlightRecorder.hpp"
#include "support/Hooks.hpp"
#include "support/Logging.hpp"
#include "support/Metrics.hpp"
#include "support/TraceEvents.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico::server
{

namespace
{

using support::FlightRecorder;

/** Upper bound on a request's traceBlocks: the wire carries any
 *  value, and the walk's cost grows with it. */
constexpr uint64_t maxTraceBlocks = 60000;
/** Retry-after hint attached to a watermark shed (ms). */
constexpr uint64_t shedRetryAfterMs = 25;
/** Completed responses the memo keeps for idempotent retries. */
constexpr size_t memoCapacity = 1024;

/** Split a comma-separated machine list ("" items dropped). */
std::vector<std::string>
splitMachines(const std::string &list)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : list) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace

EvalService::EvalService(ServiceOptions options)
    : options_(options), cache_(options.cachePath),
      queue_(options.queueWatermark)
{
    fatalIf(options_.workers == 0, "eval service needs >= 1 worker");
    workers_.reserve(options_.workers);
    for (unsigned i = 0; i < options_.workers; ++i) {
        workers_.emplace_back([this, i] {
            support::TraceRecorder::instance().nameThisThread(
                "server-worker-" + std::to_string(i));
            workerLoop();
        });
    }
    inform("eval service: ", options_.workers, " worker(s), queue ",
           queue_.watermark(),
           options_.cachePath.empty()
               ? std::string(", memory-only cache")
               : ", cache " + options_.cachePath);
}

EvalService::~EvalService()
{
    // Never throw from unwind: drain() only warns on trouble.
    drain(options_.drainDeadlineMs);
}

const dse::FailureLog &
EvalService::failures() const
{
    // Callers only read after drain(); the lock guards the writers.
    support::MutexLock lock(failuresMutex_);
    return failures_;
}

Response
EvalService::call(const Request &req)
{
    if (req.type == "eval")
        return evalCall(req);
    if (req.type == "health")
        return healthResponse();
    if (req.type == "dump-trace")
        return dumpTraceResponse(req);
    Response resp;
    if (req.type == "ping") {
        resp.values["draining"] = draining() ? 1.0 : 0.0;
    } else if (req.type == "stats") {
        resp.values = statsValues();
    } else {
        resp.status = Status::BadRequest;
        resp.error = "unknown request type: " + req.type;
    }
    return resp;
}

Response
EvalService::evalCall(const Request &req)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    // The request identity everything downstream is stamped with:
    // spans, flow events, flight-recorder entries, and the response
    // itself (values["request.id"]), so a client can hand the id
    // back to dump-trace.
    const uint64_t rid = support::newRequestId();
    support::RequestSpan span(support::TraceContext{rid, 0},
                              "server.request");
    if (support::traceEnabled())
        support::TraceRecorder::instance().flowStart("request", rid);

    const std::string key = req.idempotencyKey();
    Response memoized;
    if (memoLookup(key, memoized)) {
        memoHits_.fetch_add(1, std::memory_order_relaxed);
        FlightRecorder::instance().record(
            FlightRecorder::EventKind::Finish, rid, "memo");
        memoized.values["request.id"] = static_cast<double>(rid);
        return memoized;
    }

    uint64_t deadline_ms = req.deadlineMs != 0
                               ? req.deadlineMs
                               : options_.defaultDeadlineMs;
    uint64_t deadline_ns =
        deadline_ms != 0
            ? support::CancelToken::deadlineAfterMs(deadline_ms)
            : support::CancelToken::noDeadline;
    auto task = std::make_shared<Task>(req, deadline_ns);
    // The worker resumes this request's tree: same request id, its
    // execute span parented under this thread's request span.
    task->ctx = span.context();
    task->req.traceBlocks = std::min(
        std::max<uint64_t>(task->req.traceBlocks, 1), maxTraceBlocks);

    // Register before pushing: once the task is in the queue a
    // worker may already be executing it, and a drain must be able
    // to cancel everything it could possibly be waiting on. A
    // rejected push leaves an expired weak_ptr behind, which the
    // lazy purge collects.
    {
        support::MutexLock lock(liveMutex_);
        if (live_.size() > 2 * (queue_.watermark() + options_.workers)) {
            live_.erase(std::remove_if(live_.begin(), live_.end(),
                                       [](const std::weak_ptr<Task> &w) {
                                           return w.expired();
                                       }),
                        live_.end());
        }
        live_.push_back(task);
    }

    switch (queue_.tryPush(task)) {
    case support::QueuePush::Ok:
        FlightRecorder::instance().record(
            FlightRecorder::EventKind::Admit, rid);
        break;
    case support::QueuePush::AtWatermark: {
        shed_.fetch_add(1, std::memory_order_relaxed);
        FlightRecorder::instance().record(
            FlightRecorder::EventKind::Shed, rid,
            "queue at watermark");
        Response resp;
        resp.status = Status::Shed;
        resp.error = "queue at watermark";
        resp.retryAfterMs = shedRetryAfterMs;
        resp.values["request.id"] = static_cast<double>(rid);
        return resp;
    }
    case support::QueuePush::Closed: {
        shed_.fetch_add(1, std::memory_order_relaxed);
        FlightRecorder::instance().record(
            FlightRecorder::EventKind::Shed, rid, "draining");
        Response resp;
        resp.status = Status::Shed;
        resp.error = "draining";
        resp.retryAfterMs = options_.drainDeadlineMs;
        resp.values["request.id"] = static_cast<double>(rid);
        return resp;
    }
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);

    Response resp;
    {
        support::MutexLock lock(task->taskMutex);
        while (!task->done)
            task->cv.wait(lock.native());
        resp = task->resp;
    }
    resp.values["request.id"] = static_cast<double>(rid);
    if (resp.status == Status::Ok)
        memoize(key, resp);
    return resp;
}

void
EvalService::complete(Task &task, Response resp)
{
    {
        support::MutexLock lock(task.taskMutex);
        task.resp = std::move(resp);
        task.done = true;
    }
    task.cv.notify_all();
}

void
EvalService::workerLoop()
{
    TaskPtr task;
    while (queue_.pop(task)) {
        // Popped / not yet started: the window drain() races with.
        support::hookPoint("evalservice.worker");
        inflight_.fetch_add(1, std::memory_order_relaxed);
        const uint64_t rid = task->ctx.requestId;
        FlightRecorder::instance().record(
            FlightRecorder::EventKind::Start, rid);
        Response resp;
        {
            // Continue the request's tree on this thread: the
            // execute span parents under the admit-side request
            // span, and the flow step ties the two tracks together.
            support::RequestSpan span(task->ctx, "server.execute");
            if (support::traceEnabled())
                support::TraceRecorder::instance().flowStep(
                    "request", rid);
            resp = execute(*task);
        }
        switch (resp.status) {
        case Status::Ok:
            completed_.fetch_add(1, std::memory_order_relaxed);
            FlightRecorder::instance().record(
                FlightRecorder::EventKind::Finish, rid);
            break;
        case Status::DeadlineExceeded:
            deadline_.fetch_add(1, std::memory_order_relaxed);
            FlightRecorder::instance().record(
                FlightRecorder::EventKind::Deadline, rid);
            break;
        default:
            failed_.fetch_add(1, std::memory_order_relaxed);
            FlightRecorder::instance().record(
                FlightRecorder::EventKind::Fault, rid,
                resp.error.c_str());
            break;
        }
        complete(*task, std::move(resp));
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        task.reset();
    }
    {
        support::MutexLock lock(exitMutex_);
        ++workersExited_;
    }
    exitCv_.notify_all();
}

std::shared_ptr<const ir::Program>
EvalService::programFor(const std::string &app)
{
    // Built while holding the lock: the first request for a new app
    // pays the profile serially (and concurrent requests for it wait
    // instead of duplicating the work); every later request is a map
    // hit. App count is tiny (the suite), so contention is not.
    support::MutexLock lock(programsMutex_);
    auto it = programs_.find(app);
    if (it != programs_.end())
        return it->second;
    auto prog = std::make_shared<ir::Program>(
        workloads::buildAndProfile(workloads::specByName(app)));
    programs_.emplace(app, prog);
    return prog;
}

Response
EvalService::execute(Task &task)
{
    Response resp;
    const std::string key = task.req.idempotencyKey();
    try {
        // Chaos sites: `execute` is where a worker blows up,
        // `stall` where an evaluation gets stuck (its trigger
        // sleeps).
        support::hookPoint("evalservice.execute");
        support::hookPoint("evalservice.stall");
        // A request that spent its whole deadline queued must not
        // start a walk at all.
        task.token.checkpoint("EvalService::execute");

        auto prog = programFor(task.req.app);
        auto machines = splitMachines(task.req.machines);
        fatalIf(machines.empty(), "request has no machines");

        dse::MemorySpaces spaces;
        dse::Spacewalker::Options opts;
        opts.traceBlocks = task.req.traceBlocks;
        // Scale AHH granules to the request's trace budget so small
        // budgets still yield at least one granule (a block emits a
        // handful of references; the 5x/2.5x ratios match the walks
        // the test suite runs at reduced budgets).
        opts.uGranule = std::max<uint64_t>(task.req.traceBlocks * 5,
                                           1000);
        opts.iGranule = std::min<uint64_t>(
            core::defaultIGranule,
            std::max<uint64_t>(task.req.traceBlocks * 5 / 2, 500));
        opts.jobs = 1; // parallelism lives across requests
        opts.verify = 0;
        opts.sharedCache = &cache_;
        opts.cancel = &task.token;
        dse::Spacewalker walker(spaces, machines, opts);
        auto result = walker.explore(*prog);

        resp.values["designs.evaluated"] =
            static_cast<double>(result.evaluatedDesigns);
        uint64_t deadline_failures = 0;
        for (const auto &f : result.failures.entries()) {
            if (f.stage == "deadline")
                ++deadline_failures;
        }
        resp.values["designs.failed"] = static_cast<double>(
            result.failures.size() - deadline_failures);
        resp.values["designs.deadline"] =
            static_cast<double>(deadline_failures);
        resp.values["pareto.systems"] =
            static_cast<double>(result.systems.points().size());
        for (const auto &[name, d] : result.dilations) {
            resp.values["machine." + name + ".dilation"] = d;
            resp.values["machine." + name + ".cycles"] =
                static_cast<double>(result.processorCycles.at(name));
        }
        if (result.deadlineExceeded) {
            resp.status = Status::DeadlineExceeded;
            resp.error = "deadline exceeded after " +
                         std::to_string(result.evaluatedDesigns) +
                         "/" + std::to_string(machines.size()) +
                         " design(s); completed work is cached";
        }
    } catch (const PanicError &) {
        throw; // internal bugs always propagate
    } catch (const CancelledError &e) {
        resp.status = Status::DeadlineExceeded;
        resp.error = e.what();
    } catch (const std::exception &e) {
        // Failure isolation: this request failed; the service did
        // not. Record it so operators can audit what was survived.
        resp.status = Status::Failed;
        resp.error = e.what();
        support::MutexLock lock(failuresMutex_);
        failures_.record(key, "execute", e.what());
    }
    return resp;
}

Response
EvalService::healthResponse() const
{
    Response resp;
    resp.values["draining"] = draining() ? 1.0 : 0.0;
    size_t depth = queue_.size();
    size_t watermark = queue_.watermark();
    resp.values["queue.depth"] = static_cast<double>(depth);
    resp.values["queue.watermark"] = static_cast<double>(watermark);
    resp.values["queue.occupancy"] =
        watermark != 0 ? static_cast<double>(depth) /
                             static_cast<double>(watermark)
                       : 0.0;
    resp.values["inflight"] = static_cast<double>(
        inflight_.load(std::memory_order_relaxed));
    resp.values["flight.recorded"] =
        static_cast<double>(FlightRecorder::instance().recorded());
    {
        support::MutexLock lock(failuresMutex_);
        resp.values["failures"] =
            static_cast<double>(failures_.size());
        if (!failures_.empty()) {
            const auto &last = failures_.entries().back();
            resp.body = "{\"key\":\"" + support::jsonEscape(last.design) +
                        "\",\"stage\":\"" +
                        support::jsonEscape(last.stage) +
                        "\",\"error\":\"" +
                        support::jsonEscape(last.reason) + "\"}";
        }
    }
    return resp;
}

Response
EvalService::dumpTraceResponse(const Request &req) const
{
    Response resp;
    if (req.requestId == 0) {
        resp.status = Status::BadRequest;
        resp.error = "dump-trace needs request_id";
        return resp;
    }
    const auto &recorder = support::TraceRecorder::instance();
    resp.values["request.id"] = static_cast<double>(req.requestId);
    resp.values["events"] = static_cast<double>(
        recorder.requestEvents(req.requestId).size());
    resp.values["trace.dropped"] =
        static_cast<double>(recorder.droppedCount());
    resp.body = recorder.requestJson(req.requestId);
    return resp;
}

std::map<std::string, double>
EvalService::statsValues() const
{
    std::map<std::string, double> v;
    v["requests.total"] = static_cast<double>(
        requests_.load(std::memory_order_relaxed));
    v["accepted"] =
        static_cast<double>(accepted_.load(std::memory_order_relaxed));
    v["shed"] =
        static_cast<double>(shed_.load(std::memory_order_relaxed));
    v["completed"] = static_cast<double>(
        completed_.load(std::memory_order_relaxed));
    v["deadline"] =
        static_cast<double>(deadline_.load(std::memory_order_relaxed));
    v["failed"] =
        static_cast<double>(failed_.load(std::memory_order_relaxed));
    v["memo_hits"] = static_cast<double>(
        memoHits_.load(std::memory_order_relaxed));
    v["inflight"] = static_cast<double>(
        inflight_.load(std::memory_order_relaxed));
    v["draining"] = draining() ? 1.0 : 0.0;
    v["workers"] = static_cast<double>(options_.workers);
    v["queue.depth"] = static_cast<double>(queue_.size());
    v["queue.peak"] = static_cast<double>(queue_.peakDepth());
    v["queue.watermark"] = static_cast<double>(queue_.watermark());
    auto cs = cache_.stats();
    v["cache.hits"] = static_cast<double>(cs.hits);
    v["cache.misses"] = static_cast<double>(cs.misses);
    v["cache.disk_hits"] = static_cast<double>(cs.diskHits);
    v["cache.computed"] = static_cast<double>(cs.computed);
    v["cache.stores"] = static_cast<double>(cs.stores);
    v["cache.saves"] = static_cast<double>(cs.saves);
    v["cache.size"] = static_cast<double>(cache_.size());
    v["flight.recorded"] =
        static_cast<double>(FlightRecorder::instance().recorded());
    v["trace.dropped"] = static_cast<double>(
        support::TraceRecorder::instance().droppedCount());
    return v;
}

void
EvalService::memoize(const std::string &key, const Response &resp)
{
    support::MutexLock lock(memoMutex_);
    if (memo_.size() >= memoCapacity &&
        memo_.count(key) == 0)
        return; // full: plain retries still hit the eval cache
    memo_[key] = resp;
}

bool
EvalService::memoLookup(const std::string &key, Response &resp) const
{
    support::MutexLock lock(memoMutex_);
    auto it = memo_.find(key);
    if (it == memo_.end())
        return false;
    resp = it->second;
    return true;
}

void
EvalService::cancelAllLive()
{
    support::MutexLock lock(liveMutex_);
    for (const auto &weak : live_) {
        if (auto task = weak.lock())
            task->token.cancel();
    }
}

bool
EvalService::drain(uint64_t deadline_ms)
{
    {
        support::MutexLock lock(drainMutex_);
        if (drained_)
            return drainVerdict_;
        drained_ = true;
    }
    draining_.store(true, std::memory_order_release);
    FlightRecorder::instance().record(
        FlightRecorder::EventKind::Drain, 0, "begin");
    inform("eval service draining (deadline ", deadline_ms, " ms, ",
           queue_.size(), " queued, ",
           inflight_.load(std::memory_order_relaxed), " in flight)");

    // Phase 1: stop admission, let the workers finish the backlog.
    queue_.close();
    // Admission closed / workers still draining the backlog.
    support::hookPoint("evalservice.drain");
    bool graceful = true;
    {
        support::MutexLock lock(exitMutex_);
        auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(deadline_ms);
        while (workersExited_ < options_.workers) {
            if (exitCv_.wait_until(lock.native(), until) ==
                std::cv_status::timeout) {
                graceful = workersExited_ == options_.workers;
                break;
            }
        }
        graceful = graceful && workersExited_ == options_.workers;
    }

    // Phase 2 (deadline blown): answer every stranded queued request
    // as shed — admitted work is never silently dropped — and cancel
    // what is executing; the tokens bound how long joining can take.
    if (!graceful) {
        auto stranded = queue_.closeAndDrain();
        for (const auto &task : stranded) {
            shed_.fetch_add(1, std::memory_order_relaxed);
            FlightRecorder::instance().record(
                FlightRecorder::EventKind::Shed,
                task->ctx.requestId, "drain deadline");
            Response resp;
            resp.status = Status::Shed;
            resp.error = "drain deadline";
            resp.values["request.id"] =
                static_cast<double>(task->ctx.requestId);
            complete(*task, std::move(resp));
        }
        cancelAllLive();
        warn("drain deadline blown: shed ", stranded.size(),
             " queued request(s), cancelled in-flight work");
    }
    for (auto &worker : workers_)
        worker.join();
    workers_.clear();

    // Phase 3: final cache flush — the whole point of a graceful
    // drain is that completed work survives the restart. Never let
    // a flush error (e.g. an armed chaos fault) escape: drain runs
    // from the destructor, and the cache retries on its own final
    // flush anyway (a failed save keeps the dirty flag set).
    try {
        cache_.flush();
    } catch (const std::exception &e) {
        warn("drain-time cache flush failed: ", e.what());
    }
    FlightRecorder::instance().record(
        FlightRecorder::EventKind::Drain, 0,
        graceful ? "graceful" : "deadline blown");
    inform("eval service drained",
           graceful ? "" : " (deadline blown)");
    {
        support::MutexLock lock(drainMutex_);
        drainVerdict_ = graceful;
    }
    return graceful;
}

} // namespace pico::server
