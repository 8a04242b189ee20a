/**
 * @file
 * Fault-injection tests: the harness itself, plus every recovery
 * path it exists to exercise — trace corruption detection (strict
 * and lenient), crash-safe evaluation-cache persistence, and
 * per-design failure isolation in the spacewalker.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "dse/EvaluationCache.hpp"
#include "dse/Spacewalker.hpp"
#include "support/FaultInjection.hpp"
#include "trace/ColumnarTrace.hpp"
#include "trace/TraceErrors.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico
{
namespace
{

using support::FaultInjector;
using support::ScopedFault;

class FaultInjection : public ::testing::Test
{
  protected:
    void TearDown() override { FaultInjector::instance().reset(); }

    static std::filesystem::path
    tmpFile(const std::string &name)
    {
        return std::filesystem::temp_directory_path() / name;
    }

    /** Database entries whose key starts with `prefix`. */
    static size_t
    countEntries(const std::filesystem::path &p,
                 const std::string &prefix)
    {
        std::ifstream in(p);
        size_t n = 0;
        for (std::string line; std::getline(in, line);)
            n += line.rfind(prefix, 0) == 0;
        return n;
    }

    static void
    writeFile(const std::filesystem::path &p,
              const std::string &content)
    {
        std::ofstream out(p,
                          std::ios::trunc | std::ios::binary);
        out << content;
    }

    /** Append n records mixing all three kinds. */
    static void
    fill(trace::ColumnarTraceWriter &writer, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            trace::Access a;
            a.addr = 0x1000 + 4 * i;
            a.isInstr = i % 3 == 0;
            a.isWrite = !a.isInstr && i % 3 == 1;
            writer.write(a);
        }
    }

    /** Write a sealed v3 trace: 1024 records in 4 blocks of 256. */
    static void
    writeTrace(const std::filesystem::path &p)
    {
        trace::ColumnarTraceWriter writer(p.string(), /*cap=*/256);
        fill(writer, 1024);
        writer.close();
    }

    /** Replay `p` leniently; returns the records delivered. */
    static uint64_t
    replayLenient(const std::filesystem::path &p,
                  trace::ColumnarCorruptionSummary &summary)
    {
        trace::ColumnarTraceReader reader(p.string(),
                                          trace::TraceReadMode::Lenient);
        uint64_t n = reader.replay([](const trace::Access &) {});
        summary = reader.summary();
        return n;
    }
};

// --- the injector itself ----------------------------------------------

TEST_F(FaultInjection, UnarmedSitesAreFree)
{
    EXPECT_NO_THROW(support::faultPoint("never-armed"));
    EXPECT_FALSE(FaultInjector::instance().anyArmed());
}

TEST_F(FaultInjection, ArmedSiteFiresOnceThenDisarms)
{
    FaultInjector::instance().arm("site-a");
    EXPECT_THROW(support::faultPoint("site-a"), FaultInjectedError);
    EXPECT_NO_THROW(support::faultPoint("site-a"));
    EXPECT_EQ(FaultInjector::instance().hits("site-a"), 2u);
}

TEST_F(FaultInjection, SkipCountDelaysTheFault)
{
    FaultInjector::instance().arm("site-b", /*skip=*/2);
    EXPECT_NO_THROW(support::faultPoint("site-b"));
    EXPECT_NO_THROW(support::faultPoint("site-b"));
    EXPECT_THROW(support::faultPoint("site-b"), FaultInjectedError);
}

TEST_F(FaultInjection, OtherSitesAreUnaffected)
{
    FaultInjector::instance().arm("site-c");
    EXPECT_NO_THROW(support::faultPoint("site-d"));
    EXPECT_THROW(support::faultPoint("site-c"), FaultInjectedError);
}

TEST_F(FaultInjection, ScopedFaultDisarmsOnExit)
{
    {
        ScopedFault f("site-e", /*skip=*/0, /*fires=*/0);
        EXPECT_THROW(support::faultPoint("site-e"),
                     FaultInjectedError);
    }
    EXPECT_NO_THROW(support::faultPoint("site-e"));
}

TEST_F(FaultInjection, CorruptionOffsetsAreDeterministic)
{
    auto path = tmpFile("pico_fi_offsets.bin");
    writeFile(path, std::string(256, 'x'));
    auto a = support::corruptionOffsets(path.string(), 42, 8, 16);
    auto b = support::corruptionOffsets(path.string(), 42, 8, 16);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 8u);
    for (auto off : a) {
        EXPECT_GE(off, 16u);
        EXPECT_LT(off, 256u);
    }
    auto c = support::corruptionOffsets(path.string(), 43, 8, 16);
    EXPECT_NE(a, c);
    std::filesystem::remove(path);
}

// --- trace corruption --------------------------------------------------

TEST_F(FaultInjection, TruncatedTraceRejectedStrict)
{
    // Every cut past the magic (header, block, index) is rejected
    // naming a position; none reads as a clean end of trace.
    auto pristine = tmpFile("pico_fi_trunc.trace");
    auto path = tmpFile("pico_fi_trunc_cut.trace");
    writeTrace(pristine);
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Silent); // one rejection per cut
    const auto size = std::filesystem::file_size(pristine);
    for (uint64_t cut = trace::traceMagicV3Bytes; cut < size; ++cut) {
        std::filesystem::copy_file(
            pristine, path,
            std::filesystem::copy_options::overwrite_existing);
        support::truncateFile(path.string(), cut);
        try {
            trace::ColumnarTraceReader reader(path.string());
            reader.replay([](const trace::Access &) {});
            ADD_FAILURE() << "cut at byte " << cut << " read clean";
        } catch (const trace::TraceCorruptionError &e) {
            EXPECT_NE(std::string(e.what()).find("byte"),
                      std::string::npos)
                << "error must name the position: " << e.what();
        }
    }
    setLogLevel(level);
    std::filesystem::remove(pristine);
    std::filesystem::remove(path);
}

TEST_F(FaultInjection, TruncatedTraceAccountedLenient)
{
    // Every cut past the magic salvages only whole blocks and is
    // accounted as a truncated header, never as a clean trace.
    auto pristine = tmpFile("pico_fi_trunc_lenient.trace");
    auto path = tmpFile("pico_fi_trunc_lenient_cut.trace");
    writeTrace(pristine);
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Silent); // one salvage warning per cut
    const auto size = std::filesystem::file_size(pristine);
    for (uint64_t cut = trace::traceMagicV3Bytes; cut < size; ++cut) {
        std::filesystem::copy_file(
            pristine, path,
            std::filesystem::copy_options::overwrite_existing);
        support::truncateFile(path.string(), cut);
        trace::ColumnarCorruptionSummary s;
        uint64_t n = replayLenient(path, s);
        EXPECT_EQ(n % 256, 0u) << "cut at byte " << cut;
        EXPECT_EQ(s.recordsRead, n) << "cut at byte " << cut;
        EXPECT_TRUE(s.headerTruncated) << "cut at byte " << cut;
        EXPECT_FALSE(s.clean()) << "cut at byte " << cut;
    }
    setLogLevel(level);
    std::filesystem::remove(pristine);
    std::filesystem::remove(path);
}

TEST_F(FaultInjection, CorruptRecordDroppedCountIsExact)
{
    // Corrupt a record in blocks 1 and 3 but leave the header intact:
    // its record count makes the dropped-record accounting exact.
    auto path = tmpFile("pico_fi_badblocks.trace");
    writeTrace(path);
    // The index (the last 4 x 8 bytes) holds each block's offset;
    // the block's delta bytes follow its 32-byte header.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const size_t index_at = bytes.size() - 4 * 8;
    for (size_t b : {1, 3}) {
        uint64_t off = 0;
        for (size_t i = 8; i-- > 0;)
            off = off << 8 |
                  static_cast<uint8_t>(bytes[index_at + b * 8 + i]);
        support::flipBit(path.string(), off + 32 + 5, 2);
    }

    trace::ColumnarCorruptionSummary s;
    EXPECT_EQ(replayLenient(path, s), 1024u - 2 * 256);
    EXPECT_EQ(s.corruptBlocks, 2u);
    EXPECT_EQ(s.salvagedBlocks, 2u);
    EXPECT_EQ(s.expectedRecords, 1024u);
    EXPECT_EQ(s.droppedRecords(), 2u * 256);
    EXPECT_TRUE(s.checksumMismatch);
    EXPECT_FALSE(s.clean());

    // The same file in strict mode is rejected outright.
    trace::ColumnarTraceReader strict(path.string());
    EXPECT_THROW(strict.replay([](const trace::Access &) {}),
                 trace::TraceCorruptionError);
    std::filesystem::remove(path);
}

TEST_F(FaultInjection, BitFlipNeverReadsClean)
{
    // Seeded flips anywhere past the 88-byte file header (block
    // headers, payload, index): whatever they hit, the per-block
    // checksums and the file chain notice. Every block is full, so
    // no kind byte carries unread padding bits.
    auto pristine = tmpFile("pico_fi_bitflip.trace");
    auto path = tmpFile("pico_fi_bitflip_case.trace");
    writeTrace(pristine);
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        std::filesystem::copy_file(
            pristine, path,
            std::filesystem::copy_options::overwrite_existing);
        for (auto off : support::corruptionOffsets(path.string(), seed,
                                                   3, /*lo=*/88))
            support::flipBit(path.string(), off,
                             static_cast<unsigned>(seed % 8));
        trace::ColumnarCorruptionSummary s;
        replayLenient(path, s);
        EXPECT_FALSE(s.clean()) << "seed " << seed;
    }
    std::filesystem::remove(pristine);
    std::filesystem::remove(path);
}

TEST_F(FaultInjection, WriterCrashLeavesDetectableFile)
{
    auto path = tmpFile("pico_fi_writer_crash.trace");
    {
        // Injected failure before the index is written (armed
        // permanently so the destructor's retry fails too): the tail
        // block, the index and the seal are never written, as if the
        // process died. The destructor must swallow the error (never
        // throw during unwind).
        ScopedFault f("ColumnarTraceWriter::close:before-index",
                      /*skip=*/0, /*fires=*/0);
        trace::ColumnarTraceWriter writer(path.string(), /*cap=*/256);
        fill(writer, 600);
        EXPECT_THROW(writer.close(), FaultInjectedError);
    }
    EXPECT_THROW(trace::ColumnarTraceReader(path.string()),
                 trace::TraceCorruptionError);
    // Lenient salvages the two blocks flushed before the crash.
    trace::ColumnarCorruptionSummary s;
    EXPECT_EQ(replayLenient(path, s), 512u);
    EXPECT_TRUE(s.headerTruncated);
    std::filesystem::remove(path);
}

// --- evaluation-cache crash safety ------------------------------------

TEST_F(FaultInjection, CacheCrashBeforeRenameKeepsOldGeneration)
{
    auto path = tmpFile("pico_fi_cache_rename.db");
    auto tmp = path.string() + ".tmp";
    std::filesystem::remove(path);
    std::filesystem::remove(tmp);
    {
        dse::EvaluationCache cache(path.string());
        cache.store("gen1", {1.0});
        cache.flush(); // generation 1 on disk

        cache.store("gen2", {2.0});
        {
            ScopedFault f("EvaluationCache::save:before-rename");
            EXPECT_THROW(cache.flush(), FaultInjectedError);
        }
        // The "crash" hit after the tmp write, before the rename:
        // the live database is still generation 1, loadable.
        EXPECT_TRUE(std::filesystem::exists(tmp));
        dse::EvaluationCache survivor(path.string());
        std::vector<double> v;
        EXPECT_TRUE(survivor.lookup("gen1", v));
        EXPECT_FALSE(survivor.lookup("gen2", v));

        // cache is still dirty; its destructor retries the flush.
        EXPECT_TRUE(cache.dirty());
    }
    dse::EvaluationCache reloaded(path.string());
    std::vector<double> v;
    EXPECT_TRUE(reloaded.lookup("gen1", v));
    EXPECT_TRUE(reloaded.lookup("gen2", v));
    std::filesystem::remove(path);
    std::filesystem::remove(tmp);
}

TEST_F(FaultInjection, CacheCrashBeforeWriteKeepsOldGeneration)
{
    auto path = tmpFile("pico_fi_cache_write.db");
    std::filesystem::remove(path);
    dse::EvaluationCache cache(path.string());
    cache.store("gen1", {1.0});
    cache.flush();
    cache.store("gen2", {2.0});
    {
        ScopedFault f("EvaluationCache::save:before-write");
        EXPECT_THROW(cache.flush(), FaultInjectedError);
    }
    dse::EvaluationCache survivor(path.string());
    std::vector<double> v;
    EXPECT_TRUE(survivor.lookup("gen1", v));
    EXPECT_FALSE(survivor.lookup("gen2", v));
    std::filesystem::remove(path);
}

TEST_F(FaultInjection, CacheDestructorNeverThrows)
{
    auto path = tmpFile("pico_fi_cache_dtor.db");
    std::filesystem::remove(path);
    auto cache =
        std::make_unique<dse::EvaluationCache>(path.string());
    cache->store("k", {1.0});
    ScopedFault f("EvaluationCache::save:before-rename",
                  /*skip=*/0, /*fires=*/0);
    EXPECT_NO_THROW(cache.reset());
    std::filesystem::remove(path);
    std::filesystem::remove(path.string() + ".tmp");
}

TEST_F(FaultInjection, HalfWrittenTmpIsIgnoredOnLoad)
{
    auto path = tmpFile("pico_fi_cache_tmp.db");
    std::filesystem::remove(path);
    {
        dse::EvaluationCache cache(path.string());
        cache.store("k", {4.5});
    }
    // Simulate a crash mid-tmp-write from some earlier run.
    writeFile(path.string() + ".tmp", "picoeval-evalcache-v2\nk|9");
    dse::EvaluationCache cache(path.string());
    std::vector<double> v;
    ASSERT_TRUE(cache.lookup("k", v));
    EXPECT_EQ(v, std::vector<double>{4.5});
    std::filesystem::remove(path);
    std::filesystem::remove(path.string() + ".tmp");
}

// --- spacewalker failure isolation ------------------------------------

dse::MemorySpaces
tinySpaces()
{
    dse::MemorySpaces spaces;
    dse::CacheSpace l1;
    l1.sizesBytes = {4096};
    l1.assocs = {1};
    l1.lineSizes = {32};
    spaces.icache = l1;
    spaces.dcache = l1;
    dse::CacheSpace l2;
    l2.sizesBytes = {65536};
    l2.assocs = {4};
    l2.lineSizes = {64};
    spaces.ucache = l2;
    return spaces;
}

dse::Spacewalker::Options
tinyOptions()
{
    dse::Spacewalker::Options opts;
    opts.traceBlocks = 8000;
    opts.uGranule = 40000;
    return opts;
}

TEST_F(FaultInjection, InjectedDesignFailureIsIsolated)
{
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);
    dse::Spacewalker walker(tinySpaces(), {"1111", "2111", "3221"},
                            tinyOptions());
    // Poison only the second design evaluation.
    ScopedFault f("Spacewalker::evaluateDesign", /*skip=*/1);
    auto result = walker.explore(prog);

    EXPECT_FALSE(result.complete());
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures.entries()[0].design, "2111");
    EXPECT_NE(result.failures.entries()[0].reason.find(
                  "injected fault"),
              std::string::npos);
    EXPECT_EQ(result.evaluatedDesigns, 2u);
    EXPECT_EQ(result.dilations.count("2111"), 0u);
    EXPECT_EQ(result.dilations.count("1111"), 1u);
    EXPECT_EQ(result.dilations.count("3221"), 1u);
    EXPECT_FALSE(result.systems.empty());
    EXPECT_FALSE(result.failures.report().empty());
}

TEST_F(FaultInjection, CheckpointSurvivesWalkCrash)
{
    auto path = tmpFile("pico_fi_checkpoint.db");
    std::filesystem::remove(path);
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 8000);

    auto opts = tinyOptions();
    opts.evaluationCachePath = path.string();
    opts.checkpointEvery = 1;
    opts.haltOnFailure = true;
    {
        dse::Spacewalker walker(tinySpaces(), {"1111", "3221"},
                                opts);
        ScopedFault f("Spacewalker::evaluateDesign", /*skip=*/1);
        EXPECT_THROW(walker.explore(prog), FaultInjectedError);

        // Before the walker (and its destructor-time save) goes
        // away: the first design's metrics, and the class's
        // reference set stored before them, were already
        // checkpointed to disk.
        EXPECT_EQ(countEntries(path, "proc;"), 1u);
        EXPECT_EQ(countEntries(path, "ref;"), 1u);
        dse::EvaluationCache snapshot(path.string());
        EXPECT_EQ(snapshot.quarantinedEntries(), 0u);
    }
    // A fresh walker resumes from the checkpoint: the surviving
    // design is served from the cache, only the crashed one is
    // recomputed.
    auto opts2 = tinyOptions();
    opts2.evaluationCachePath = path.string();
    dse::Spacewalker resumed(tinySpaces(), {"1111", "3221"}, opts2);
    auto result = resumed.explore(prog);
    EXPECT_TRUE(result.complete());
    EXPECT_GE(resumed.evaluationCache().hits(), 1u);
    std::filesystem::remove(path);
}

} // namespace
} // namespace pico
