/**
 * @file
 * Chrome trace-event (chrome://tracing / Perfetto) span recorder.
 *
 * Records complete ("ph":"X") spans, instant events and flow events
 * into per-thread buffers and serializes them as the Trace Event
 * Format JSON that chrome://tracing, Perfetto and speedscope all
 * load. One span = one named interval on the recording thread's
 * track, so a parallel walk renders as stacked per-design spans
 * across the ThreadPool's worker tracks — the thread-utilization
 * picture the human tables never showed.
 *
 * Events are additionally stamped with the thread's TraceContext
 * (support/TraceContext.hpp): every span carries the request id it
 * was emitted for plus its own span id and its parent's, and flow
 * events ("ph":"s"/"t", id = request id) connect a request's spans
 * across threads — one server request renders as a single connected
 * tree even though its admit span and its execution spans live on
 * different tracks. requestEvents()/requestJson() drain the recorder
 * for one request id (the server's dump-trace verb).
 *
 * Rules mirror the metrics registry (support/Metrics.hpp):
 *
 *  - appends touch only the calling thread's buffer (one uncontended
 *    mutex acquisition), so recording does not serialize the walk;
 *  - disabled (the default) costs one relaxed atomic load per site;
 *  - each thread's buffer is bounded (maxEventsPerThread); a
 *    long-lived server cannot grow without bound — overflow events
 *    are counted, not stored;
 *  - recording never feeds results back into the pipeline, so spans
 *    cannot perturb the bit-identical determinism contract.
 *
 * Timestamps come from support::monotonicNowNs(), the same epoch the
 * metrics timers and log lines use.
 */

#ifndef PICO_SUPPORT_TRACE_EVENTS_HPP
#define PICO_SUPPORT_TRACE_EVENTS_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "support/Metrics.hpp"
#include "support/ThreadAnnotations.hpp"
#include "support/TraceContext.hpp"

namespace pico::support
{

namespace detail
{
/** Runtime master switch for span recording. */
extern std::atomic<bool> traceOn;
} // namespace detail

/** True when spans are recorded (runtime switch). */
inline bool
traceEnabled()
{
    return detail::traceOn.load(std::memory_order_relaxed);
}

/** Flip the runtime switch (overrides PICOEVAL_TRACE env). */
void setTraceEnabled(bool on);

/** Process-global recorder of trace events. */
class TraceRecorder
{
  public:
    /** Per-thread buffer bound (overflow counted, not stored). */
    static constexpr size_t maxEventsPerThread = 1u << 16;

    static TraceRecorder &instance();

    /**
     * Name the calling thread's track in the exported trace (e.g.
     * "pool-worker-3"). Safe to call whether or not recording is
     * enabled; the last name set wins. The track exists from the
     * thread's first event on, so a thread that names itself and
     * records nothing costs no buffer.
     */
    void nameThisThread(const std::string &name)
        PICO_REQUIRES(!traceMutex_);

    /**
     * Like nameThisThread(), but only if the thread has never been
     * explicitly named. For code that runs on borrowed threads — a
     * walk executing on a server worker must not rename the worker's
     * track out from under it.
     */
    void nameThisThreadDefault(const std::string &name)
        PICO_REQUIRES(!traceMutex_);

    /**
     * Record one complete span on the calling thread's track,
     * attributed to the given request/span identities (0 = none).
     */
    void complete(const std::string &name, const char *category,
                  uint64_t start_ns, uint64_t duration_ns,
                  uint64_t request_id = 0, uint64_t span_id = 0,
                  uint64_t parent_span_id = 0);

    /** Record an instant event (stamped with the current context). */
    void instant(const std::string &name, const char *category);

    /**
     * Open a flow on the calling thread ("ph":"s"). Emit inside the
     * span that hands work off; flowStep() on the receiving thread
     * connects the two tracks under the same flow id (the request
     * id, by convention).
     */
    void flowStart(const std::string &name, uint64_t flow_id);

    /** Continue a flow on the calling thread ("ph":"t"). */
    void flowStep(const std::string &name, uint64_t flow_id);

    /**
     * Serialize every buffered event as Trace Event Format JSON.
     * @return false (after a warn()) when the file cannot be written
     */
    bool writeJson(const std::string &path) const
        PICO_REQUIRES(!traceMutex_);

    /** One request's events across all threads (span-id decorated). */
    struct RequestEvent
    {
        uint32_t tid = 0;
        std::string name;
        char phase = 'X';
        uint64_t tsNs = 0;
        uint64_t durNs = 0;
        uint64_t spanId = 0;
        uint64_t parentSpanId = 0;
    };

    /** Every buffered event of one request, in timestamp order. */
    std::vector<RequestEvent> requestEvents(uint64_t request_id)
        const PICO_REQUIRES(!traceMutex_);

    /**
     * One request's events as a single-line Trace Event Format JSON
     * document (the payload of the server's dump-trace verb).
     */
    std::string requestJson(uint64_t request_id) const
        PICO_REQUIRES(!traceMutex_);

    /** Drop all buffered events (thread tracks are kept). */
    void clear() PICO_REQUIRES(!traceMutex_);

    /** Buffered events across all threads. */
    size_t eventCount() const PICO_REQUIRES(!traceMutex_);

    /** Events dropped because a thread's buffer was full. */
    uint64_t droppedCount() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

  private:
    TraceRecorder() = default;

    struct Event
    {
        std::string name;
        const char *category;
        char phase; // 'X' complete, 'i' instant, 's'/'t' flow
        uint64_t tsNs;
        uint64_t durNs;
        uint64_t requestId;
        uint64_t spanId;
        uint64_t parentSpanId;
        uint64_t flowId;
    };

    /** One thread's event buffer and track identity. */
    struct ThreadBuf
    {
        uint32_t tid = 0;
        /** Guards events/name: appends come from the owning thread,
         *  reads from writeJson()/clear() on any thread. Ranked
         *  below the registry mutex: serializers hold traceMutex_ while
         *  visiting each buffer. */
        mutable Mutex bufMutex{"traceevents.buf", rank::kTraceBuf};
        std::string name PICO_GUARDED_BY(bufMutex);
        /** True once nameThisThread() set an explicit name. */
        bool named PICO_GUARDED_BY(bufMutex) = false;
        std::vector<Event> events PICO_GUARDED_BY(bufMutex);
    };

    /**
     * The calling thread's track: its buffer once it has recorded an
     * event, and until then the name it asked for (empty = none).
     */
    struct LocalTrack
    {
        ThreadBuf *buf = nullptr;
        std::string name;
        bool named = false;
    };

    static LocalTrack &localTrack();
    ThreadBuf &localBuf() PICO_REQUIRES(!traceMutex_);
    void append(ThreadBuf &buf, Event event);
    static void writeEvent(std::ostream &out, const Event &e,
                           uint32_t tid);

    /** Guards bufs_ registration. */
    mutable Mutex traceMutex_{"traceevents.registry",
                         rank::kTraceRegistry};
    mutable std::vector<std::unique_ptr<ThreadBuf>> bufs_
        PICO_GUARDED_BY(traceMutex_);
    std::atomic<uint64_t> dropped_{0};
};

/**
 * RAII scoped span + phase timer: one object at the top of a scope
 * records a chrome-trace span named `name` (when tracing is on) and
 * observes the elapsed nanoseconds into histogram `metric` — by
 * default "<name>.ns" — (when metrics are on). The two switches are
 * independent; with both off the constructor is two relaxed loads.
 *
 * When tracing is on, the span allocates a span id and installs
 * itself as the thread's current span for its lifetime, so spans
 * opened inside it record it as their parent — the in-thread half of
 * the request-tree reconstruction (TraceContext carries the
 * cross-thread half).
 */
class TimedSpan
{
  public:
    explicit TimedSpan(std::string name, const char *category = "walk",
                       std::string metric = "");
    ~TimedSpan();

    TimedSpan(const TimedSpan &) = delete;
    TimedSpan &operator=(const TimedSpan &) = delete;

    /** This span's id (0 when tracing was off at construction). */
    uint64_t spanId() const { return spanId_; }

  private:
    std::string name_;
    std::string metric_;
    const char *category_;
    uint64_t startNs_ = 0;
    uint64_t requestId_ = 0;
    uint64_t spanId_ = 0;
    uint64_t parentSpanId_ = 0;
    bool active_ = false;
    bool tracing_ = false;
};

/**
 * Request-attributed span for the serving layer: installs the
 * request's TraceContext for the scope and opens a span under it, so
 * every span and metric emitted below is attributable to the
 * request. The repo lint bans raw TimedSpan in src/server precisely
 * so that server spans cannot lose their request identity; this is
 * the sanctioned spelling.
 */
class RequestSpan
{
  public:
    RequestSpan(const TraceContext &ctx, std::string name,
                const char *category = "server")
        : requestId_(ctx.requestId), scope_(ctx),
          span_(std::move(name), category)
    {}

    /**
     * Context for another thread continuing this request: the same
     * request id, parented under this span. Valid on any thread.
     */
    TraceContext context() const
    {
        return TraceContext{requestId_, span_.spanId()};
    }

    RequestSpan(const RequestSpan &) = delete;
    RequestSpan &operator=(const RequestSpan &) = delete;

  private:
    uint64_t requestId_;
    TraceContextScope scope_;
    TimedSpan span_;
};

} // namespace pico::support

#endif // PICO_SUPPORT_TRACE_EVENTS_HPP
