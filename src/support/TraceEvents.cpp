#include "support/TraceEvents.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/Logging.hpp"

namespace pico::support
{

namespace detail
{

std::atomic<bool> traceOn{[] {
    const char *env = std::getenv("PICOEVAL_TRACE");
    return env != nullptr && *env != '\0' &&
           std::string(env) != "0";
}()};

} // namespace detail

void
setTraceEnabled(bool on)
{
    detail::traceOn.store(on, std::memory_order_relaxed);
}

namespace
{

/** Chrome expects microsecond timestamps; keep ns precision. */
void
writeMicros(std::ostream &os, uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    os << buf;
}

} // namespace

TraceRecorder &
TraceRecorder::instance()
{
    static TraceRecorder recorder;
    return recorder;
}

TraceRecorder::LocalTrack &
TraceRecorder::localTrack()
{
    static thread_local LocalTrack track;
    return track;
}

TraceRecorder::ThreadBuf &
TraceRecorder::localBuf()
{
    LocalTrack &track = localTrack();
    if (track.buf == nullptr) {
        auto buf = std::make_unique<ThreadBuf>();
        track.buf = buf.get();
        MutexLock lock(traceMutex_);
        buf->tid = static_cast<uint32_t>(bufs_.size());
        {
            // The buffer is not shared yet, but name is guarded by
            // buf->mutex; the nested acquisition is uncontended.
            MutexLock nameLock(buf->bufMutex);
            buf->name = track.name.empty()
                            ? "thread-" + std::to_string(buf->tid)
                            : std::move(track.name);
            buf->named = track.named;
        }
        bufs_.push_back(std::move(buf));
    }
    return *track.buf;
}

void
TraceRecorder::append(ThreadBuf &buf, Event event)
{
    MutexLock lock(buf.bufMutex);
    if (buf.events.size() >= maxEventsPerThread) {
        // Bounded buffers: a long-lived server must not grow without
        // limit. The drop is counted so dumps can say "incomplete".
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buf.events.push_back(std::move(event));
}

void
TraceRecorder::nameThisThread(const std::string &name)
{
    LocalTrack &track = localTrack();
    if (track.buf == nullptr) {
        track.name = name;
        track.named = true;
        return;
    }
    ThreadBuf &buf = *track.buf;
    MutexLock lock(buf.bufMutex);
    buf.name = name;
    buf.named = true;
}

void
TraceRecorder::nameThisThreadDefault(const std::string &name)
{
    LocalTrack &track = localTrack();
    if (track.buf == nullptr) {
        if (!track.named)
            track.name = name;
        return;
    }
    ThreadBuf &buf = *track.buf;
    MutexLock lock(buf.bufMutex);
    if (!buf.named)
        buf.name = name;
}

void
TraceRecorder::complete(const std::string &name, const char *category,
                        uint64_t start_ns, uint64_t duration_ns,
                        uint64_t request_id, uint64_t span_id,
                        uint64_t parent_span_id)
{
    if (!traceEnabled())
        return;
    append(localBuf(), Event{name, category, 'X', start_ns,
                             duration_ns, request_id, span_id,
                             parent_span_id, 0});
}

void
TraceRecorder::instant(const std::string &name, const char *category)
{
    if (!traceEnabled())
        return;
    const TraceContext &ctx = currentTraceContext();
    append(localBuf(), Event{name, category, 'i', monotonicNowNs(), 0,
                             ctx.requestId, 0, ctx.spanId, 0});
}

void
TraceRecorder::flowStart(const std::string &name, uint64_t flow_id)
{
    if (!traceEnabled())
        return;
    const TraceContext &ctx = currentTraceContext();
    append(localBuf(), Event{name, "flow", 's', monotonicNowNs(), 0,
                             ctx.requestId, 0, ctx.spanId, flow_id});
}

void
TraceRecorder::flowStep(const std::string &name, uint64_t flow_id)
{
    if (!traceEnabled())
        return;
    const TraceContext &ctx = currentTraceContext();
    append(localBuf(), Event{name, "flow", 't', monotonicNowNs(), 0,
                             ctx.requestId, 0, ctx.spanId, flow_id});
}

void
TraceRecorder::writeEvent(std::ostream &out, const Event &e,
                          uint32_t tid)
{
    out << "{\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"" << jsonEscape(e.name) << "\",\"cat\":\""
        << jsonEscape(e.category) << "\",\"ts\":";
    writeMicros(out, e.tsNs);
    if (e.phase == 'X') {
        out << ",\"dur\":";
        writeMicros(out, e.durNs);
    } else if (e.phase == 's' || e.phase == 't') {
        out << ",\"id\":" << e.flowId;
        if (e.phase == 't')
            out << ",\"bp\":\"e\"";
    } else {
        out << ",\"s\":\"t\"";
    }
    if (e.requestId != 0 || e.spanId != 0) {
        out << ",\"args\":{\"request\":" << e.requestId
            << ",\"span\":" << e.spanId << ",\"parent\":"
            << e.parentSpanId << "}";
    }
    out << "}";
}

bool
TraceRecorder::writeJson(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("cannot write trace-event file '", path, "'");
        return false;
    }

    MutexLock lock(traceMutex_);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&first, &out] {
        if (!first)
            out << ",";
        out << "\n";
        first = false;
    };
    for (const auto &buf : bufs_) {
        MutexLock bufLock(buf->bufMutex);
        sep();
        out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << buf->tid
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << jsonEscape(buf->name) << "\"}}";
        for (const auto &e : buf->events) {
            sep();
            writeEvent(out, e, buf->tid);
        }
    }
    out << "\n]}\n";
    out.flush();
    if (!out) {
        warn("writing trace-event file '", path, "' failed");
        return false;
    }
    return true;
}

std::vector<TraceRecorder::RequestEvent>
TraceRecorder::requestEvents(uint64_t request_id) const
{
    std::vector<RequestEvent> out;
    MutexLock lock(traceMutex_);
    for (const auto &buf : bufs_) {
        MutexLock bufLock(buf->bufMutex);
        for (const auto &e : buf->events) {
            if (e.requestId != request_id)
                continue;
            RequestEvent re;
            re.tid = buf->tid;
            re.name = e.name;
            re.phase = e.phase;
            re.tsNs = e.tsNs;
            re.durNs = e.durNs;
            re.spanId = e.spanId;
            re.parentSpanId = e.parentSpanId;
            out.push_back(std::move(re));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const RequestEvent &a, const RequestEvent &b) {
                  return a.tsNs < b.tsNs;
              });
    return out;
}

std::string
TraceRecorder::requestJson(uint64_t request_id) const
{
    std::ostringstream out;
    out << "{\"request\":" << request_id << ",\"traceEvents\":[";
    bool first = true;
    MutexLock lock(traceMutex_);
    for (const auto &buf : bufs_) {
        MutexLock bufLock(buf->bufMutex);
        for (const auto &e : buf->events) {
            if (e.requestId != request_id)
                continue;
            if (!first)
                out << ",";
            first = false;
            writeEvent(out, e, buf->tid);
        }
    }
    out << "]}";
    return out.str();
}

void
TraceRecorder::clear()
{
    MutexLock lock(traceMutex_);
    for (auto &buf : bufs_) {
        MutexLock bufLock(buf->bufMutex);
        buf->events.clear();
    }
    dropped_.store(0, std::memory_order_relaxed);
}

size_t
TraceRecorder::eventCount() const
{
    MutexLock lock(traceMutex_);
    size_t total = 0;
    for (const auto &buf : bufs_) {
        MutexLock bufLock(buf->bufMutex);
        total += buf->events.size();
    }
    return total;
}

// --- TimedSpan ---------------------------------------------------------

TimedSpan::TimedSpan(std::string name, const char *category,
                     std::string metric)
    : name_(std::move(name)), metric_(std::move(metric)),
      category_(category)
{
    active_ = metricsEnabled() || traceEnabled();
    if (active_) {
        startNs_ = monotonicNowNs();
        if (traceEnabled()) {
            // Install this span as the thread's current span so
            // spans opened inside it record it as their parent.
            tracing_ = true;
            const TraceContext &ctx = currentTraceContext();
            requestId_ = ctx.requestId;
            parentSpanId_ = ctx.spanId;
            spanId_ = newSpanId();
            detail::setCurrentSpanId(spanId_);
        }
    }
}

TimedSpan::~TimedSpan()
{
    if (tracing_)
        detail::setCurrentSpanId(parentSpanId_);
    if (!active_)
        return;
    uint64_t dur = monotonicNowNs() - startNs_;
    if (metricsEnabled()) {
        metrics()
            .histogram(metric_.empty() ? name_ + ".ns" : metric_)
            .observe(dur);
    }
    if (tracing_ && traceEnabled())
        TraceRecorder::instance().complete(name_, category_,
                                           startNs_, dur, requestId_,
                                           spanId_, parentSpanId_);
}

} // namespace pico::support
