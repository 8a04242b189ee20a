/**
 * @file
 * Tests for the serving layer: wire protocol, the evaluation service
 * (admission control, deadlines, idempotency, failure isolation,
 * graceful drain), the socket transport, and a deterministic chaos
 * test over the whole stack.
 *
 * The chaos test is watchdog-bounded: test_server is registered with
 * a ctest TIMEOUT, so a deadlock fails the suite instead of hanging
 * CI forever.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "server/Client.hpp"
#include "server/EvalService.hpp"
#include "server/Protocol.hpp"
#include "server/Server.hpp"
#include "support/Backoff.hpp"
#include "support/FaultInjection.hpp"
#include "support/FlightRecorder.hpp"
#include "support/Metrics.hpp"
#include "support/Random.hpp"
#include "support/SchedulePerturb.hpp"
#include "support/TraceEvents.hpp"
#include "verify/ResultVerifier.hpp"

namespace pico
{
namespace
{

using server::EvalService;
using server::Request;
using server::Response;
using server::ServiceOptions;
using server::Status;

/** Service options small enough for fast tests. */
ServiceOptions
fastOptions()
{
    ServiceOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 8;
    opts.queueWatermark = 4;
    opts.drainDeadlineMs = 5000;
    return opts;
}

/** A cheap but real evaluation request. */
Request
smallEval(const std::string &machines = "1111")
{
    Request req;
    req.app = "rasta";
    req.machines = machines;
    req.traceBlocks = 1500;
    return req;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------

TEST(Protocol, RequestRoundTrip)
{
    Request req;
    req.type = "eval";
    req.app = "epic";
    req.machines = "1111,2211";
    req.traceBlocks = 1234;
    req.deadlineMs = 500;
    req.key = "custom-key";
    Request out;
    std::string error;
    ASSERT_TRUE(server::decodeRequest(server::encodeRequest(req), out,
                                      error))
        << error;
    EXPECT_EQ(out.type, "eval");
    EXPECT_EQ(out.app, "epic");
    EXPECT_EQ(out.machines, "1111,2211");
    EXPECT_EQ(out.traceBlocks, 1234u);
    EXPECT_EQ(out.deadlineMs, 500u);
    EXPECT_EQ(out.key, "custom-key");
}

TEST(Protocol, ResponseRoundTrip)
{
    Response resp;
    resp.status = Status::Shed;
    resp.error = "queue at watermark";
    resp.retryAfterMs = 25;
    resp.values["designs.evaluated"] = 3;
    resp.values["machine.1111.dilation"] = 1.25;
    Response out;
    std::string error;
    ASSERT_TRUE(server::decodeResponse(server::encodeResponse(resp),
                                       out, error))
        << error;
    EXPECT_EQ(out.status, Status::Shed);
    EXPECT_EQ(out.error, "queue at watermark");
    EXPECT_EQ(out.retryAfterMs, 25u);
    EXPECT_DOUBLE_EQ(out.values["designs.evaluated"], 3.0);
    EXPECT_DOUBLE_EQ(out.values["machine.1111.dilation"], 1.25);
}

TEST(Protocol, AllStatusesRoundTrip)
{
    for (Status s :
         {Status::Ok, Status::Shed, Status::DeadlineExceeded,
          Status::Failed, Status::BadRequest}) {
        Response resp;
        resp.status = s;
        Response out;
        std::string error;
        ASSERT_TRUE(server::decodeResponse(
            server::encodeResponse(resp), out, error));
        EXPECT_EQ(out.status, s) << server::statusName(s);
    }
}

TEST(Protocol, RejectsWrongVersionTag)
{
    Request req;
    std::string error;
    EXPECT_FALSE(
        server::decodeRequest("picoeval-req-v9\napp rasta\n", req,
                              error));
    EXPECT_FALSE(error.empty());
    Response resp;
    EXPECT_FALSE(server::decodeResponse("garbage", resp, error));
}

TEST(Protocol, SkipsUnknownKeysForForwardCompatibility)
{
    std::string payload = server::encodeRequest(Request{});
    payload += "some_future_field 42\n";
    Request out;
    std::string error;
    EXPECT_TRUE(server::decodeRequest(payload, out, error)) << error;
}

TEST(Protocol, IdempotencyKeyDerivedFromRequestFields)
{
    Request a = smallEval();
    Request b = smallEval();
    EXPECT_EQ(a.idempotencyKey(), b.idempotencyKey());
    b.machines = "2211";
    EXPECT_NE(a.idempotencyKey(), b.idempotencyKey());
    b.key = "pinned";
    EXPECT_EQ(b.idempotencyKey(), "pinned");
}

TEST(Protocol, RequestIdAndBodyRoundTrip)
{
    Request req = smallEval();
    req.requestId = 987654321;
    Request req_out;
    std::string error;
    ASSERT_TRUE(server::decodeRequest(server::encodeRequest(req),
                                      req_out, error))
        << error;
    EXPECT_EQ(req_out.requestId, 987654321u);
    // request_id is omitted from the wire when unset.
    EXPECT_EQ(server::encodeRequest(smallEval()).find("request_id"),
              std::string::npos);

    Response resp;
    resp.body = "{\"kind\":\"fault\"}";
    Response resp_out;
    ASSERT_TRUE(server::decodeResponse(server::encodeResponse(resp),
                                       resp_out, error))
        << error;
    EXPECT_EQ(resp_out.body, "{\"kind\":\"fault\"}");
    // A body with embedded newlines is flattened, like the error.
    resp.body = "two\nlines";
    ASSERT_TRUE(server::decodeResponse(server::encodeResponse(resp),
                                       resp_out, error));
    EXPECT_EQ(resp_out.body, "two lines");
}

TEST(Protocol, RejectsSignedIntegers)
{
    // strtoull alone wraps "-1" to 2^64-1; a sign is not part of an
    // unsigned field, and neither is leading blank space.
    for (const char *field : {"trace_blocks", "deadline_ms",
                              "request_id"}) {
        for (const char *value : {"-1", "+1", " 1", "-0"}) {
            Request req;
            std::string error;
            std::string payload = std::string(server::requestTag) +
                                  "\n" + field + " " + value + "\n";
            EXPECT_FALSE(server::decodeRequest(payload, req, error))
                << field << "=" << value;
            EXPECT_FALSE(error.empty()) << field << "=" << value;
        }
    }
    Response resp;
    std::string error;
    EXPECT_FALSE(server::decodeResponse(
        std::string(server::responseTag) +
            "\nstatus shed\nretry_after_ms -1\n",
        resp, error));
    EXPECT_FALSE(error.empty());
}

/**
 * One seeded mutation of an encoded payload: truncate, flip a bit,
 * insert or delete a byte, duplicate or drop a line, or splice in
 * random bytes with NUL, CR and LF over-represented.
 */
std::string
mutatePayload(std::string s, Rng &rng)
{
    auto byte = [&rng] {
        const char special[] = {'\0', '\r', '\n', ' '};
        return rng.coin(0.5) ? special[rng.below(4)]
                             : static_cast<char>(rng.below(256));
    };
    auto at = [&rng, &s] { return rng.below(s.size() + 1); };
    switch (rng.below(7)) {
    case 0:
        s.resize(at());
        break;
    case 1:
        if (!s.empty())
            s[rng.below(s.size())] ^=
                static_cast<char>(1u << rng.below(8));
        break;
    case 2:
        s.insert(at(), 1, byte());
        break;
    case 3:
        if (!s.empty())
            s.erase(rng.below(s.size()), 1);
        break;
    case 4:
    case 5: {
        std::vector<std::string> lines;
        size_t start = 0;
        while (start < s.size()) {
            size_t nl = s.find('\n', start);
            size_t end = nl == std::string::npos ? s.size() : nl + 1;
            lines.push_back(s.substr(start, end - start));
            start = end;
        }
        if (lines.empty())
            break;
        size_t i = rng.below(lines.size());
        if (rng.below(2) == 0)
            lines.insert(lines.begin() + i, lines[i]);
        else
            lines.erase(lines.begin() + i);
        s.clear();
        for (const auto &line : lines)
            s += line;
        break;
    }
    default: {
        size_t pos = at();
        size_t cut = std::min<size_t>(rng.below(4), s.size() - pos);
        std::string bytes;
        for (size_t n = 1 + rng.below(8); n > 0; --n)
            bytes += byte();
        s.replace(pos, cut, bytes);
        break;
    }
    }
    return s;
}

/**
 * The decoder contract on arbitrary bytes: no throw; false with a
 * reason, or true with a message whose encoding is a fixed point of
 * decode-then-encode (compared as bytes, so NaN values compare
 * equal).
 */
template <typename Msg, typename Decode, typename Encode>
void
checkDecoder(const std::string &payload, Decode decode, Encode encode)
{
    Msg msg;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = decode(payload, msg, error));
    if (!ok) {
        EXPECT_FALSE(error.empty());
        return;
    }
    const std::string once = encode(msg);
    Msg again;
    ASSERT_TRUE(decode(once, again, error)) << error;
    EXPECT_EQ(encode(again), once);
}

TEST(Protocol, DecodersSurviveSeededMutations)
{
    Request req = smallEval("1111,2211");
    req.deadlineMs = 250;
    req.key = "k-1";
    req.requestId = 77;
    Response resp;
    resp.status = Status::DeadlineExceeded;
    resp.error = "deadline exceeded after 3 designs";
    resp.retryAfterMs = 40;
    resp.body = "{\"kind\":\"fault\"}";
    resp.values["designs.evaluated"] = 3;
    resp.values["machine.1111.dilation"] = 1.0625;
    resp.values["nan"] = std::numeric_limits<double>::quiet_NaN();
    resp.values["inf"] = -std::numeric_limits<double>::infinity();
    const std::string requests[] = {server::encodeRequest(Request{}),
                                    server::encodeRequest(req)};
    const std::string responses[] = {
        server::encodeResponse(Response{}),
        server::encodeResponse(resp)};

    size_t accepted = 0, rejected = 0;
    for (uint64_t seed = 0; seed < 1500; ++seed) {
        Rng rng = Rng::forStream(20261017, seed);
        std::string request = requests[seed % 2];
        std::string response = responses[seed % 2];
        for (uint64_t n = 1 + rng.below(3); n > 0; --n) {
            request = mutatePayload(request, rng);
            response = mutatePayload(response, rng);
        }
        SCOPED_TRACE("seed " + std::to_string(seed));
        checkDecoder<Request>(request, server::decodeRequest,
                              server::encodeRequest);
        checkDecoder<Response>(response, server::decodeResponse,
                               server::encodeResponse);
        Request probe;
        std::string error;
        if (server::decodeRequest(request, probe, error))
            ++accepted;
        else
            ++rejected;
    }
    // The mutations exercise both outcomes.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

// ---------------------------------------------------------------
// EvalService
// ---------------------------------------------------------------

TEST(EvalService, PingReportsNotDraining)
{
    EvalService service(fastOptions());
    Request req;
    req.type = "ping";
    Response resp = service.call(req);
    EXPECT_EQ(resp.status, Status::Ok);
    EXPECT_DOUBLE_EQ(resp.values["draining"], 0.0);
}

TEST(EvalService, UnknownTypeIsBadRequest)
{
    EvalService service(fastOptions());
    Request req;
    req.type = "frobnicate";
    EXPECT_EQ(service.call(req).status, Status::BadRequest);
}

TEST(EvalService, EvaluatesAndMemoizesIdempotentRetries)
{
    EvalService service(fastOptions());
    Request req = smallEval();
    Response first = service.call(req);
    ASSERT_EQ(first.status, Status::Ok) << first.error;
    EXPECT_GE(first.values["designs.evaluated"], 1.0);
    EXPECT_GT(first.values["machine.1111.dilation"], 0.0);

    // The retry carries the same (derived) idempotency key: answered
    // from the memo, not re-walked.
    Response retry = service.call(req);
    EXPECT_EQ(retry.status, Status::Ok);
    EXPECT_DOUBLE_EQ(retry.values["machine.1111.dilation"],
                     first.values["machine.1111.dilation"]);
    auto stats = service.statsValues();
    EXPECT_DOUBLE_EQ(stats["memo_hits"], 1.0);
    EXPECT_DOUBLE_EQ(stats["completed"], 1.0);
}

TEST(EvalService, UnknownAppFailsWithoutKillingTheService)
{
    EvalService service(fastOptions());
    Request bad = smallEval();
    bad.app = "no-such-app";
    Response resp = service.call(bad);
    EXPECT_EQ(resp.status, Status::Failed);
    EXPECT_FALSE(resp.error.empty());
    EXPECT_EQ(service.failures().size(), 1u);
    // The failure was isolated: the next request succeeds.
    EXPECT_EQ(service.call(smallEval()).status, Status::Ok);
}

TEST(EvalService, WorkerFaultIsIsolatedToOneRequest)
{
    EvalService service(fastOptions());
    support::ScopedFault fault("EvalService::execute", 0, 1);
    Response faulted = service.call(smallEval());
    EXPECT_EQ(faulted.status, Status::Failed);
    Response ok = service.call(smallEval("2111"));
    EXPECT_EQ(ok.status, Status::Ok) << ok.error;
}

TEST(EvalService, ShedsAtWatermarkUnderBurst)
{
    ServiceOptions opts = fastOptions();
    opts.workers = 1;
    opts.queueCapacity = 2;
    opts.queueWatermark = 1;
    opts.chaosSlowMs = 400;
    EvalService service(opts);
    // Stall every execution: the burst below must pile up.
    support::ScopedFault slow("EvalService::execute:slow", 0, 0);

    const int kCallers = 5;
    std::atomic<int> shed{0}, terminal{0};
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i) {
        callers.emplace_back([&, i] {
            Request req = smallEval();
            req.key = "burst-" + std::to_string(i); // distinct keys
            Response resp = service.call(req);
            terminal.fetch_add(1);
            if (resp.status == Status::Shed) {
                shed.fetch_add(1);
                EXPECT_GT(resp.retryAfterMs, 0u);
            }
        });
    }
    for (auto &t : callers)
        t.join();
    // One running + one queued; with a 400 ms stall the rest of the
    // burst must shed. Every caller still got a terminal answer.
    EXPECT_EQ(terminal.load(), kCallers);
    EXPECT_GE(shed.load(), kCallers - 2);
    EXPECT_GE(service.statsValues()["shed"], 1.0);
}

TEST(EvalService, DeadlineExceededReturnsPartialTaggedResponse)
{
    ServiceOptions opts = fastOptions();
    opts.workers = 1;
    opts.chaosSlowMs = 200;
    EvalService service(opts);
    // The stall consumes the whole 50 ms deadline before the walk
    // starts: deterministic deadline_exceeded.
    support::ScopedFault slow("EvalService::execute:slow", 0, 0);
    Request req = smallEval();
    req.deadlineMs = 50;
    Response resp = service.call(req);
    EXPECT_EQ(resp.status, Status::DeadlineExceeded);
    EXPECT_FALSE(resp.error.empty());
    EXPECT_DOUBLE_EQ(service.statsValues()["deadline"], 1.0);
}

TEST(EvalService, HugeDeadlineIsNoDeadline)
{
    // now + deadline_ms * 10^6 overflows for a deadline near 2^64
    // ms; it must saturate to "no deadline", not wrap into the past
    // and expire before the walk starts. With 2^64-1 ms the wrapped
    // sum is now - 1 ms, which lies in the past only once the
    // process clock (zero at its first read) has passed 1 ms.
    support::monotonicNowNs();
    support::sleepForMs(5);
    EvalService service(fastOptions());
    Request req = smallEval();
    req.deadlineMs = std::numeric_limits<uint64_t>::max();
    Response resp = service.call(req);
    EXPECT_EQ(resp.status, Status::Ok) << resp.error;
    EXPECT_DOUBLE_EQ(service.statsValues()["deadline"], 0.0);
}

TEST(EvalService, DeadlineFiredWhileQueuedNeverStartsTheWalk)
{
    // The admission/pickup window: a request whose token fires while
    // it sits in the queue must be answered DeadlineExceeded at
    // pickup *without* starting a walk. One worker, pinned down by a
    // long chaos stall on another request, guarantees the victim
    // outlives its deadline in the queue.
    ServiceOptions opts = fastOptions();
    opts.workers = 1;
    opts.chaosSlowMs = 300;
    EvalService service(opts);
    support::ScopedFault slow("EvalService::execute:slow", 0, 0);

    std::thread occupant([&] {
        Request req = smallEval();
        req.key = "occupant";
        service.call(req); // pins the only worker for ~300 ms
    });
    support::sleepForMs(50); // let the occupant reach the worker

    Request victim = smallEval();
    victim.key = "queued-victim";
    victim.deadlineMs = 30; // expires long before worker pickup
    Response resp = service.call(victim);
    occupant.join();

    EXPECT_EQ(resp.status, Status::DeadlineExceeded);
    EXPECT_FALSE(resp.error.empty());
    // The walk never started: no evaluation results, only the
    // request id the admitting side stamped.
    EXPECT_EQ(resp.values.count("designs.evaluated"), 0u);
    EXPECT_EQ(resp.values.count("request.id"), 1u);
    EXPECT_GE(service.statsValues()["deadline"], 1.0);
}

TEST(EvalService, DeadlineWorkIsCachedForTheRetry)
{
    std::string cache_path = tempPath("deadline_cache.db");
    std::remove(cache_path.c_str());
    ServiceOptions opts = fastOptions();
    opts.cachePath = cache_path;
    EvalService service(opts);

    // Evaluate one design fully, then ask for a superset with an
    // already-expired deadline: the walk cancels, but the completed
    // design's metrics are already in the shared cache.
    ASSERT_EQ(service.call(smallEval("1111")).status, Status::Ok);
    uint64_t computed_before = service.cache().stats().computed;
    EXPECT_GT(computed_before, 0u);

    Request rushed = smallEval("1111,2111,2211");
    rushed.deadlineMs = 1;
    support::sleepForMs(5); // ensure the deadline has passed
    Response resp = service.call(rushed);
    EXPECT_EQ(resp.status, Status::DeadlineExceeded);

    // A later identical request without the deadline reuses the
    // cached computations (cache hits, not recomputation).
    Response full = service.call(smallEval("1111,2111,2211"));
    EXPECT_EQ(full.status, Status::Ok) << full.error;
    EXPECT_GT(service.cache().stats().hits, 0u);
    std::remove(cache_path.c_str());
}

TEST(EvalService, SecondMachineOfAnAppReusesTheReferenceSet)
{
    // A fresh request for another machine of an app the service has
    // walked: its class's reference set comes from the shared cache,
    // so the walk builds no reference binary and sweeps nothing.
    auto counter = [](const char *name) {
        auto counters = support::metrics().snapshot().counters;
        auto it = counters.find(name);
        return it == counters.end() ? uint64_t{0} : it->second;
    };
    support::setMetricsEnabled(true);
    support::metrics().resetValues();
    EvalService service(fastOptions());
    ASSERT_EQ(service.call(smallEval("1111")).status, Status::Ok);
    const uint64_t computed = counter("walk.reference.computed");
    const uint64_t runs = counter("sweep.runs");
    EXPECT_EQ(computed, 1u);
    EXPECT_GT(runs, 0u);
    Response second = service.call(smallEval("2111"));
    ASSERT_EQ(second.status, Status::Ok) << second.error;
    EXPECT_EQ(counter("walk.reference.computed"), computed);
    EXPECT_EQ(counter("sweep.runs"), runs);
    EXPECT_EQ(counter("walk.reference.hits"), 1u);
    support::setMetricsEnabled(false);

    // The answer is the one a cold service gives.
    EvalService cold(fastOptions());
    Response expected = cold.call(smallEval("2111"));
    ASSERT_EQ(expected.status, Status::Ok) << expected.error;
    for (const char *key :
         {"designs.evaluated", "pareto.systems", "machine.2111.dilation",
          "machine.2111.cycles"})
        EXPECT_EQ(second.values[key], expected.values[key]) << key;
}

TEST(EvalService, DrainAnswersEveryWaiterAndIsIdempotent)
{
    ServiceOptions opts = fastOptions();
    opts.workers = 1;
    opts.chaosSlowMs = 300;
    EvalService service(opts);
    support::ScopedFault slow("EvalService::execute:slow", 0, 0);

    std::atomic<int> answered{0};
    std::vector<std::thread> callers;
    for (int i = 0; i < 3; ++i) {
        callers.emplace_back([&, i] {
            Request req = smallEval();
            req.key = "drain-" + std::to_string(i);
            service.call(req);
            answered.fetch_add(1);
        });
    }
    support::sleepForMs(50); // let the burst get admitted
    // Tiny drain deadline: in-flight work is cancelled, queued work
    // is shed — but every caller must still get an answer.
    bool graceful = service.drain(1);
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(answered.load(), 3);
    EXPECT_TRUE(service.draining());
    // Idempotent: the second drain returns the recorded verdict.
    EXPECT_EQ(service.drain(1000), graceful);
    // Post-drain calls shed instead of hanging.
    EXPECT_EQ(service.call(smallEval()).status, Status::Shed);
}

// ---------------------------------------------------------------
// Introspection verbs: stats, health, dump-trace
// ---------------------------------------------------------------

TEST(Introspection, StatsReportsPerVerbLatencies)
{
    EvalService service(fastOptions());
    ASSERT_EQ(service.call(smallEval()).status, Status::Ok);
    Request ping;
    ping.type = "ping";
    service.call(ping);

    Request stats;
    stats.type = "stats";
    // A verb's latency is recorded after its response is built, so
    // the first stats response cannot include its own sample...
    Response first = service.call(stats);
    ASSERT_EQ(first.status, Status::Ok);
    EXPECT_DOUBLE_EQ(first.values["verb.stats.count"], 0.0);
    EXPECT_DOUBLE_EQ(first.values["verb.eval.count"], 1.0);
    EXPECT_DOUBLE_EQ(first.values["verb.ping.count"], 1.0);
    EXPECT_GT(first.values["verb.eval.p50_ns"], 0.0);
    EXPECT_GE(first.values["verb.eval.p99_ns"],
              first.values["verb.eval.p50_ns"]);
    // ...but the second one sees the first.
    Response second = service.call(stats);
    EXPECT_DOUBLE_EQ(second.values["verb.stats.count"], 1.0);
    EXPECT_GT(second.values["verb.stats.p50_ns"], 0.0);
    // The per-shard cache split sums to the aggregate counters.
    double shard_hits = 0, shard_misses = 0;
    for (int s = 0; s < 16; ++s) {
        char name[48];
        std::snprintf(name, sizeof(name), "cache.shard%02d.hits", s);
        shard_hits += second.values[name];
        std::snprintf(name, sizeof(name), "cache.shard%02d.misses",
                      s);
        shard_misses += second.values[name];
    }
    EXPECT_DOUBLE_EQ(shard_hits, second.values["cache.hits"]);
    EXPECT_DOUBLE_EQ(shard_misses, second.values["cache.misses"]);
}

TEST(Introspection, HealthReportsOccupancyAndLastFault)
{
    EvalService service(fastOptions());
    Request health;
    health.type = "health";
    Response fresh = service.call(health);
    ASSERT_EQ(fresh.status, Status::Ok);
    EXPECT_DOUBLE_EQ(fresh.values["draining"], 0.0);
    EXPECT_DOUBLE_EQ(fresh.values["queue.depth"], 0.0);
    EXPECT_DOUBLE_EQ(fresh.values["queue.occupancy"], 0.0);
    EXPECT_DOUBLE_EQ(fresh.values["failures"], 0.0);
    EXPECT_TRUE(fresh.body.empty());

    Request bad = smallEval();
    bad.app = "no-such-app";
    ASSERT_EQ(service.call(bad).status, Status::Failed);
    Response after = service.call(health);
    EXPECT_DOUBLE_EQ(after.values["failures"], 1.0);
    // The last-fault record travels as a JSON body.
    EXPECT_NE(after.body.find("\"stage\":\"execute\""),
              std::string::npos);
    EXPECT_NE(after.body.find("no-such-app"), std::string::npos);
}

TEST(Introspection, DumpTraceReconstructsOneRequestAcrossThreads)
{
    support::TraceRecorder::instance().clear();
    support::setTraceEnabled(true);
    {
        EvalService service(fastOptions());
        Response eval = service.call(smallEval());
        ASSERT_EQ(eval.status, Status::Ok) << eval.error;
        const uint64_t rid =
            static_cast<uint64_t>(eval.values["request.id"]);
        ASSERT_NE(rid, 0u);

        // The span tree: the admit-side server.request span is the
        // root, and the worker-side server.execute span parents
        // under it — on a different thread track.
        auto events =
            support::TraceRecorder::instance().requestEvents(rid);
        uint64_t admit_span = 0, admit_tid = 0;
        uint64_t exec_parent = 0, exec_tid = 0;
        bool saw_flow_start = false, saw_flow_step = false;
        for (const auto &e : events) {
            if (e.name == "server.request") {
                admit_span = e.spanId;
                admit_tid = e.tid;
                EXPECT_EQ(e.parentSpanId, 0u);
            } else if (e.name == "server.execute") {
                exec_parent = e.parentSpanId;
                exec_tid = e.tid;
            } else if (e.phase == 's') {
                saw_flow_start = true;
            } else if (e.phase == 't') {
                saw_flow_step = true;
            }
        }
        EXPECT_NE(admit_span, 0u);
        EXPECT_EQ(exec_parent, admit_span);
        EXPECT_NE(exec_tid, admit_tid);
        EXPECT_TRUE(saw_flow_start);
        EXPECT_TRUE(saw_flow_step);

        // The dump-trace verb returns the same tree as a JSON body.
        Request dump;
        dump.type = "dump-trace";
        dump.requestId = rid;
        Response resp = service.call(dump);
        ASSERT_EQ(resp.status, Status::Ok);
        EXPECT_GE(resp.values["events"], 4.0);
        EXPECT_NE(resp.body.find("server.request"),
                  std::string::npos);
        EXPECT_NE(resp.body.find("server.execute"),
                  std::string::npos);

        // Without a request id the verb is a usage error.
        Request bare;
        bare.type = "dump-trace";
        EXPECT_EQ(service.call(bare).status, Status::BadRequest);
    }
    support::setTraceEnabled(false);
    support::TraceRecorder::instance().clear();
}

// ---------------------------------------------------------------
// Flight recorder integration and drain-snapshot stability
// ---------------------------------------------------------------

TEST(FlightRecorderIntegration, DumpNamesShedAndFaultedRequestIds)
{
    support::FlightRecorder::instance().resetForTest();
    EvalService service(fastOptions());

    support::ScopedFault fault("EvalService::execute", 0, 1);
    Response faulted = service.call(smallEval());
    ASSERT_EQ(faulted.status, Status::Failed);
    const uint64_t faulted_rid =
        static_cast<uint64_t>(faulted.values["request.id"]);
    ASSERT_NE(faulted_rid, 0u);

    ASSERT_TRUE(service.drain(5000));
    Request late = smallEval("2111");
    Response shed = service.call(late);
    ASSERT_EQ(shed.status, Status::Shed);
    const uint64_t shed_rid =
        static_cast<uint64_t>(shed.values["request.id"]);
    ASSERT_NE(shed_rid, 0u);

    bool saw_fault = false, saw_shed = false;
    bool saw_drain_begin = false, saw_drain_end = false;
    for (const auto &e :
         support::FlightRecorder::instance().snapshot()) {
        using EK = support::FlightRecorder::EventKind;
        if (e.kind == EK::Fault && e.requestId == faulted_rid)
            saw_fault = true;
        if (e.kind == EK::Shed && e.requestId == shed_rid &&
            e.detail == "draining")
            saw_shed = true;
        if (e.kind == EK::Drain && e.detail == "begin")
            saw_drain_begin = true;
        if (e.kind == EK::Drain && e.detail == "graceful")
            saw_drain_end = true;
    }
    EXPECT_TRUE(saw_fault);
    EXPECT_TRUE(saw_shed);
    EXPECT_TRUE(saw_drain_begin);
    EXPECT_TRUE(saw_drain_end);
}

TEST(Drain, StatsSnapshotIsStableAfterDrain)
{
    EvalService service(fastOptions());
    ASSERT_EQ(service.call(smallEval()).status, Status::Ok);
    service.call(smallEval());                        // memo hit
    support::ScopedFault fault("EvalService::execute", 0, 1);
    service.call(smallEval("2111"));                  // failed
    ASSERT_TRUE(service.drain(5000));

    // A drain-time report must be a quiescent snapshot: every
    // counter settled (workers joined before drain returns), the
    // queue empty, and the lifecycle identity exact.
    auto snap = service.statsValues();
    EXPECT_DOUBLE_EQ(snap["queue.depth"], 0.0);
    EXPECT_DOUBLE_EQ(snap["inflight"], 0.0);
    EXPECT_DOUBLE_EQ(snap["draining"], 1.0);
    EXPECT_DOUBLE_EQ(snap["requests.total"],
                     snap["memo_hits"] + snap["shed"] +
                         snap["completed"] + snap["deadline"] +
                         snap["failed"]);
    EXPECT_DOUBLE_EQ(snap["accepted"],
                     snap["completed"] + snap["deadline"] +
                         snap["failed"]);
    // Re-reading changes nothing: the snapshot is reproducible.
    auto again = service.statsValues();
    EXPECT_EQ(snap.size(), again.size());
    for (const auto &[k, v] : snap)
        EXPECT_DOUBLE_EQ(again[k], v) << k;
}

TEST(Drain, ConcurrentIntrospectionSurvivesDrainAndChaos)
{
    ServiceOptions opts = fastOptions();
    opts.chaosSlowMs = 20;
    EvalService service(opts);
    support::ScopedFault f1("EvalService::execute", 1, 3);
    support::ScopedFault f2("EvalService::execute:slow", 2, 0);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> samples{0};
    std::atomic<int> violations{0};
    // Two threads hammer the introspection verbs for the whole run,
    // across the drain transition: no deadlock (the ctest watchdog
    // is the backstop) and monotonic counters even mid-chaos.
    std::vector<std::thread> watchers;
    for (int w = 0; w < 2; ++w) {
        watchers.emplace_back([&] {
            const char *keys[] = {"requests.total", "shed",
                                  "completed", "failed", "deadline",
                                  "memo_hits", "accepted"};
            std::map<std::string, double> prev;
            while (!stop.load()) {
                Request stats;
                stats.type = "stats";
                Response resp = service.call(stats);
                if (resp.status != Status::Ok) {
                    violations.fetch_add(1);
                    continue;
                }
                for (const char *k : keys) {
                    if (prev.count(k) && resp.values[k] < prev[k])
                        violations.fetch_add(1);
                    prev[k] = resp.values[k];
                }
                Request health;
                health.type = "health";
                if (service.call(health).status != Status::Ok)
                    violations.fetch_add(1);
                samples.fetch_add(1);
            }
        });
    }

    std::vector<std::thread> callers;
    for (int t = 0; t < 3; ++t) {
        callers.emplace_back([&, t] {
            const char *machines[] = {"1111", "2111", "2211"};
            for (int r = 0; r < 4; ++r) {
                Request req = smallEval(machines[(t + r) % 3]);
                req.key = "chaos-" + std::to_string(t) + "-" +
                          std::to_string(r);
                req.deadlineMs = 2000;
                service.call(req);
            }
        });
    }
    for (auto &t : callers)
        t.join();
    service.drain(5000);
    // The drain state is immediately visible to a watcher.
    Request health;
    health.type = "health";
    Response post = service.call(health);
    EXPECT_DOUBLE_EQ(post.values["draining"], 1.0);
    stop.store(true);
    for (auto &t : watchers)
        t.join();
    EXPECT_GT(samples.load(), 0u);
    EXPECT_EQ(violations.load(), 0);
}

// ---------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------

TEST(ServerSocket, RoundTripOverUnixSocket)
{
    std::string sock = tempPath("picoeval_rt.sock");
    EvalService service(fastOptions());
    server::Server srv(sock, &service);
    std::thread accept_thread([&] { srv.run(); });

    server::ClientOptions copts;
    copts.socketPath = sock;
    server::Client client(copts);

    Request ping;
    ping.type = "ping";
    EXPECT_EQ(client.call(ping).status, Status::Ok);

    Response eval = client.call(smallEval());
    EXPECT_EQ(eval.status, Status::Ok) << eval.error;
    EXPECT_GT(eval.values["machine.1111.dilation"], 0.0);

    srv.stop();
    accept_thread.join();
}

TEST(ServerSocket, ConnectionQueuedAtStopIsDropped)
{
    // A client waits in the backlog when run()'s poll() wakes, and
    // stop() runs to completion before run() calls accept(). The
    // shut-down listener still hands the connection out; run() must
    // drop it, not start a handler that stop() has already stopped
    // joining (~Server would destroy it joinable and terminate).
    std::string sock = tempPath("picoeval_stop.sock");
    std::unique_ptr<server::Server> srv;
    support::ScopedPointAction stop_at_accept("server.accept", [&] {
        std::thread watcher([&] { srv->stop(); });
        watcher.join();
    });
    EvalService service(fastOptions());
    srv = std::make_unique<server::Server>(sock, &service);

    int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(client, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    srv->run();
    EXPECT_TRUE(stop_at_accept.fired());
    EXPECT_EQ(srv->connections(), 0u);
    srv.reset();
    ::close(client);
}

TEST(ServerSocket, ClientGivesUpCleanlyWhenServerAbsent)
{
    server::ClientOptions copts;
    copts.socketPath = tempPath("no_such_server.sock");
    copts.maxAttempts = 3;
    copts.backoffBaseMs = 1;
    copts.backoffCapMs = 2;
    server::Client client(copts);
    Response resp = client.call(smallEval());
    EXPECT_EQ(resp.status, Status::Shed);
    EXPECT_EQ(client.retries(), 2u); // attempts - 1
    // The retry count splits by cause: with no server, every retry
    // (and every attempt) is a transport failure, not real shedding.
    EXPECT_EQ(client.retriesTransport(), 2u);
    EXPECT_EQ(client.retriesShed(), 0u);
    EXPECT_EQ(client.retriesShed() + client.retriesTransport(),
              client.retries());
    EXPECT_EQ(client.transportFailures(), 3u); // one per attempt
    EXPECT_EQ(client.shedSeen(), 0u);
}

// ---------------------------------------------------------------
// Chaos: the whole service under deterministic fault injection
// ---------------------------------------------------------------

TEST(Chaos, ServiceSurvivesFaultStormWithoutCorruptionOrDeadlock)
{
    std::string cache_path = tempPath("chaos_cache.db");
    std::remove(cache_path.c_str());
    support::FlightRecorder::instance().resetForTest();

    ServiceOptions opts = fastOptions();
    opts.cachePath = cache_path;
    opts.workers = 2;
    opts.queueCapacity = 4;
    opts.queueWatermark = 3;
    opts.chaosSlowMs = 30;
    uint64_t shed_count = 0, failed_count = 0;
    {
        EvalService service(opts);
        // Deterministic fault storm: worker exceptions, slow
        // executions, cache-write failures and per-design faults.
        support::ScopedFault f1("EvalService::execute", 2, 3);
        support::ScopedFault f2("EvalService::execute:slow", 1, 0);
        support::ScopedFault f3(
            "EvaluationCache::save:before-write", 0, 2);
        support::ScopedFault f4("Spacewalker::evaluateDesign", 4, 2);

        const int kThreads = 4, kRequests = 6;
        std::atomic<uint64_t> answered{0};
        std::mutex trouble_mutex;
        std::vector<std::pair<uint64_t, Status>> troubled;
        std::vector<std::thread> callers;
        for (int t = 0; t < kThreads; ++t) {
            callers.emplace_back([&, t] {
                const char *machines[] = {"1111", "2111", "2211"};
                for (int r = 0; r < kRequests; ++r) {
                    Request req =
                        smallEval(machines[(t + r) % 3]);
                    req.deadlineMs = 2000;
                    Response resp = service.call(req);
                    // Terminal statuses only — never a hang, never
                    // an unanswerable state.
                    EXPECT_NE(resp.status, Status::BadRequest);
                    answered.fetch_add(1);
                    if (resp.status == Status::Shed ||
                        resp.status == Status::Failed) {
                        std::lock_guard<std::mutex> lock(
                            trouble_mutex);
                        troubled.emplace_back(
                            static_cast<uint64_t>(
                                resp.values["request.id"]),
                            resp.status);
                    }
                }
            });
        }
        for (auto &t : callers)
            t.join();
        EXPECT_EQ(answered.load(),
                  static_cast<uint64_t>(kThreads * kRequests));

        // Post-mortem contract: the flight dump names the request id
        // of every shed and every faulted request of the storm.
        auto flight = support::FlightRecorder::instance().snapshot();
        for (const auto &[rid, status] : troubled) {
            using EK = support::FlightRecorder::EventKind;
            EK want = status == Status::Shed ? EK::Shed : EK::Fault;
            bool named = false;
            for (const auto &e : flight) {
                if (e.requestId == rid && e.kind == want) {
                    named = true;
                    break;
                }
            }
            EXPECT_TRUE(named)
                << "request " << rid << " ("
                << server::statusName(status)
                << ") missing from the flight dump";
        }

        // Counter conservation: every accepted request reached
        // exactly one terminal state.
        auto stats = service.statsValues();
        EXPECT_DOUBLE_EQ(stats["completed"] + stats["deadline"] +
                             stats["failed"],
                         stats["accepted"]);
        // Backpressure honored even mid-chaos.
        EXPECT_LE(stats["queue.peak"], stats["queue.watermark"]);
        shed_count = static_cast<uint64_t>(stats["shed"]);
        failed_count = static_cast<uint64_t>(stats["failed"]);
        EXPECT_GT(failed_count, 0u); // the storm really fired

        EXPECT_TRUE(service.drain(5000));
    } // destructor re-drains (idempotent) and flushes

    // The injected cache-write faults must not have corrupted the
    // database: it reloads verifier-clean.
    verify::Diagnostics diags;
    verify::verifyCacheFile(cache_path, diags);
    EXPECT_TRUE(diags.clean()) << diags.report();
    (void)shed_count;
    std::remove(cache_path.c_str());
}

} // namespace
} // namespace pico
