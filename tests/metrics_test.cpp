/**
 * @file
 * Instrumentation layer tests: the metrics registry's concurrent
 * accumulation must be exact (concurrent updates add up to the
 * serial sum), snapshots must be deterministic documents (sorted keys,
 * byte-stable JSON), the disabled paths must drop updates, and the
 * span recorder / run report must produce loadable JSON.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "support/Logging.hpp"
#include "support/Metrics.hpp"
#include "support/RunReport.hpp"
#include "support/TraceEvents.hpp"

namespace pico::support
{
namespace
{

/** Enable metrics+tracing for one test, restoring the old state. */
class InstrumentationOn
{
  public:
    InstrumentationOn()
    {
        setMetricsEnabled(true);
        setTraceEnabled(true);
    }
    ~InstrumentationOn()
    {
        setMetricsEnabled(false);
        setTraceEnabled(false);
        TraceRecorder::instance().clear();
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Metrics, ConcurrentCounterMatchesSerialSum)
{
    InstrumentationOn on;
    auto &ctr = metrics().counter("test.concurrent.counter");
    uint64_t before =
        metrics().snapshot().counters["test.concurrent.counter"];

    constexpr int threads = 8;
    constexpr uint64_t perThread = 50000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&ctr] {
            for (uint64_t i = 0; i < perThread; ++i)
                ctr.add(1);
            ctr.add(7); // mixed increments
        });
    }
    for (auto &th : pool)
        th.join();

    auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counters["test.concurrent.counter"] - before,
              threads * (perThread + 7));
}

TEST(Metrics, ConcurrentHistogramMatchesSerialSum)
{
    InstrumentationOn on;
    auto &hist = metrics().histogram("test.concurrent.hist");
    auto before =
        metrics().snapshot().histograms["test.concurrent.hist"];

    constexpr int threads = 8;
    constexpr uint64_t perThread = 1000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&hist] {
            for (uint64_t v = 0; v < perThread; ++v)
                hist.observe(v);
        });
    }
    for (auto &th : pool)
        th.join();

    auto snap = metrics().snapshot();
    const auto &v = snap.histograms["test.concurrent.hist"];
    EXPECT_EQ(v.count - before.count, threads * perThread);
    // Exact serial sum: 8 * (0 + 1 + ... + 999).
    EXPECT_EQ(v.sum - before.sum,
              threads * (perThread * (perThread - 1) / 2));
    // Every thread lands one zero in bucket 0 per pass.
    EXPECT_EQ(v.buckets[0] - before.buckets[0], threads);
    // Values 512..999 share bucket bit_width = 10.
    EXPECT_EQ(v.buckets[10] - before.buckets[10],
              threads * (perThread - 512));
}

TEST(Metrics, HistogramBucketsFollowBitWidth)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(UINT64_MAX),
              Histogram::bucketCount - 1);
}

TEST(Metrics, SnapshotJsonIsDeterministic)
{
    InstrumentationOn on;
    metrics().counter("test.det.b").add(2);
    metrics().counter("test.det.a").add(1);
    metrics().gauge("test.det.g").set(1.5);
    metrics().histogram("test.det.h").observe(3);

    auto first = metrics().snapshot().toJson();
    auto second = metrics().snapshot().toJson();
    EXPECT_EQ(first, second) << "equal state must give equal bytes";

    // std::map keys iterate sorted, so "a" precedes "b".
    EXPECT_LT(first.find("\"test.det.a\""),
              first.find("\"test.det.b\""));
}

TEST(Metrics, SnapshotJsonFormatIsStable)
{
    // The exact document a fixed snapshot serializes to: the schema
    // CI consumers parse (json.tool, diffing) is part of the API.
    MetricsSnapshot snap;
    snap.counters["b"] = 2;
    snap.counters["a"] = 1;
    snap.gauges["g"] = 1.5;
    HistogramValue h;
    h.count = 2;
    h.sum = 3;
    h.buckets[1] = 1;
    h.buckets[2] = 1;
    snap.histograms["h"] = h;
    EXPECT_EQ(snap.toJson(),
              "{\"counters\":{\"a\":1,\"b\":2},"
              "\"gauges\":{\"g\":1.5},"
              "\"histograms\":{\"h\":{\"count\":2,\"sum\":3,"
              "\"buckets\":{\"1\":1,\"2\":1}}}}");
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
}

TEST(Metrics, DisabledUpdatesAreDropped)
{
    InstrumentationOn on;
    auto &ctr = metrics().counter("test.disabled.counter");
    ctr.add(1);
    setMetricsEnabled(false);
    ctr.add(100);
    metrics().gauge("test.disabled.gauge").set(9.0);
    metrics().histogram("test.disabled.hist").observe(5);
    setMetricsEnabled(true);

    auto snap = metrics().snapshot();
    EXPECT_EQ(snap.counters["test.disabled.counter"], 1u);
    EXPECT_EQ(snap.gauges["test.disabled.gauge"], 0.0);
    EXPECT_EQ(snap.histograms["test.disabled.hist"].count, 0u);
}

TEST(Metrics, RegisteringTwiceReturnsTheSameHandle)
{
    auto &a = metrics().counter("test.same.handle");
    auto &b = metrics().counter("test.same.handle");
    EXPECT_EQ(&a, &b);
}

TEST(TraceEvents, RecordsSpansAcrossThreadsAndWritesJson)
{
    InstrumentationOn on;
    auto &rec = TraceRecorder::instance();
    rec.clear();
    rec.nameThisThread("test-main");

    {
        TimedSpan span("test.span", "test");
    }
    rec.instant("test.instant", "test");
    std::thread worker([&rec] {
        rec.nameThisThread("test-worker");
        TimedSpan span("test.worker.span", "test");
    });
    worker.join();
    EXPECT_GE(rec.eventCount(), 3u);

    auto path = (std::filesystem::temp_directory_path() /
                 "pico_metrics_test_trace.json")
                    .string();
    ASSERT_TRUE(rec.writeJson(path));
    auto doc = readFile(path);
    std::filesystem::remove(path);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"test-worker\""), std::string::npos);
    EXPECT_NE(doc.find("\"test.span\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);

    rec.clear();
    EXPECT_EQ(rec.eventCount(), 0u);
}

TEST(TraceEvents, NamedThreadGetsATrackOnlyOnceItRecords)
{
    auto &rec = TraceRecorder::instance();
    setTraceEnabled(false);
    // A thread that names itself and records nothing, like a server
    // connection with tracing off, leaves no track behind.
    std::thread idle([&rec] {
        rec.nameThisThread("test-idle-namer");
        TimedSpan span("test.untraced.span", "test");
    });
    idle.join();
    // A name set while tracing is off labels the track once tracing
    // is on and the thread records.
    std::thread late([&rec] {
        rec.nameThisThread("test-late-recorder");
        rec.nameThisThreadDefault("test-default-loses");
        setTraceEnabled(true);
        TimedSpan span("test.late.span", "test");
    });
    late.join();

    auto path = (std::filesystem::temp_directory_path() /
                 "pico_metrics_test_naming.json")
                    .string();
    const bool written = rec.writeJson(path);
    setTraceEnabled(false);
    rec.clear();
    ASSERT_TRUE(written);
    auto doc = readFile(path);
    std::filesystem::remove(path);
    EXPECT_EQ(doc.find("test-idle-namer"), std::string::npos);
    EXPECT_NE(doc.find("\"test-late-recorder\""), std::string::npos);
    EXPECT_EQ(doc.find("test-default-loses"), std::string::npos);
    EXPECT_NE(doc.find("\"test.late.span\""), std::string::npos);
}

TEST(TraceEvents, TimedSpanFeedsTheNamedHistogram)
{
    InstrumentationOn on;
    auto before =
        metrics().snapshot().histograms["test.span.metric"];
    {
        TimedSpan span("test.span.named", "test",
                       "test.span.metric");
    }
    auto after =
        metrics().snapshot().histograms["test.span.metric"];
    EXPECT_EQ(after.count - before.count, 1u);
}

TEST(RunReport, CarriesSchemaInfoAndMetrics)
{
    InstrumentationOn on;
    RunReport report;
    report.set("app", "unit");
    report.set("jobs", static_cast<uint64_t>(4));
    report.set("ratio", 0.5);

    MetricsSnapshot snap;
    snap.counters["c"] = 3;
    auto doc = report.toJson(snap);
    EXPECT_NE(doc.find("\"schema\":\"picoeval-run-report-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"app\":\"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"jobs\":\"4\""), std::string::npos);
    EXPECT_NE(doc.find("\"c\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"git\":\""), std::string::npos);

    // Equal inputs give equal bytes (the determinism contract).
    EXPECT_EQ(doc, report.toJson(snap));

    auto path = (std::filesystem::temp_directory_path() /
                 "pico_metrics_test_report.json")
                    .string();
    ASSERT_TRUE(report.write(path));
    // write() serializes the live registry; the document is still
    // one JSON object ending in a newline.
    auto onDisk = readFile(path);
    std::filesystem::remove(path);
    EXPECT_FALSE(onDisk.empty());
    EXPECT_EQ(onDisk.front(), '{');
    EXPECT_EQ(onDisk.back(), '\n');
}

TEST(Logging, LevelGatesOutput)
{
    auto old = logLevel();

    setLogLevel(LogLevel::Silent);
    ::testing::internal::CaptureStderr();
    warn("suppressed warning");
    inform("suppressed info");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    inform("visible info");
    auto out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("info: visible info"), std::string::npos);
    // Monotonic timestamp prefix: "[   12.345] ".
    EXPECT_EQ(out.front(), '[');

    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    inform("filtered info");
    warn("visible warning");
    out = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(out.find("filtered info"), std::string::npos);
    EXPECT_NE(out.find("warn: visible warning"), std::string::npos);

    setLogLevel(old);
}

} // namespace
} // namespace pico::support
