/**
 * @file
 * Tests for trace format v3 and the columnar capture buffer: round
 * trips, header checking, corruption handling, and simulator
 * equivalence between live and replayed traces.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cache/CacheSim.hpp"
#include "support/FaultInjection.hpp"
#include "trace/ColumnarTrace.hpp"
#include "trace/TraceErrors.hpp"
#include "trace/TraceGenerator.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico::trace
{
namespace
{

std::filesystem::path
tempTrace(const char *name)
{
    return std::filesystem::temp_directory_path() / name;
}

TEST(TraceFile, RoundTripPreservesRecords)
{
    // Wide deltas: an address above 32 bits and a jump of ~2^36.
    auto path = tempTrace("pico_roundtrip.trace");
    std::vector<Access> accesses = {
        {0x01000000, true, false},
        {0x40000004, false, false},
        {0x40000008, false, true},
        {0xdeadbeef0, false, true},
        {0x4, true, false},
    };
    {
        ColumnarTraceWriter writer(path.string());
        for (const auto &a : accesses)
            writer.write(a);
        EXPECT_EQ(writer.count(), accesses.size());
    }
    ColumnarTraceReader reader(path.string());
    std::vector<Access> read;
    reader.replay([&read](const Access &a) { read.push_back(a); });
    ASSERT_EQ(read.size(), accesses.size());
    for (size_t i = 0; i < read.size(); ++i) {
        EXPECT_EQ(read[i].addr, accesses[i].addr);
        EXPECT_EQ(read[i].isInstr, accesses[i].isInstr);
        EXPECT_EQ(read[i].isWrite, accesses[i].isWrite);
    }
    std::filesystem::remove(path);
}

TEST(TraceFile, WritesVersionedHeaderAndFooter)
{
    // The documented v3 layout: the NUL-padded magic, a sealed header
    // whose counts match, and the block index as the last bytes.
    auto path = tempTrace("pico_v3layout.trace");
    {
        ColumnarTraceWriter writer(path.string());
        writer.write({0x1000, true, false});
        writer.write({0x2000, false, true});
        writer.close();
    }
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    auto u64At = [&bytes](size_t at) {
        uint64_t v = 0;
        for (size_t i = 8; i-- > 0;)
            v = v << 8 | static_cast<uint8_t>(bytes.at(at + i));
        return v;
    };
    std::string magic(traceMagicV3);
    magic.resize(traceMagicV3Bytes, '\0');
    EXPECT_EQ(bytes.substr(0, traceMagicV3Bytes), magic);
    EXPECT_EQ(u64At(32), 2u);                    // recordCount
    EXPECT_EQ(u64At(40), 1u);                    // blockCount
    EXPECT_EQ(u64At(48), bytes.size() - 8);      // indexOffset
    EXPECT_EQ(u64At(64), columnarHeaderSeal);    // headerSeal
    EXPECT_EQ(u64At(bytes.size() - 8), 88u);     // block 0's offset

    ColumnarTraceReader reader(path.string());
    EXPECT_EQ(reader.replay([](const Access &) {}), 2u);
    const auto &s = reader.summary();
    EXPECT_TRUE(s.clean());
    EXPECT_EQ(s.expectedRecords, 2u);
    EXPECT_EQ(s.droppedRecords(), 0u);
    std::filesystem::remove(path);
}

TEST(TraceFile, RejectsMissingFile)
{
    EXPECT_THROW(ColumnarTraceReader("/nonexistent/trace"),
                 TraceIoError);
}

TEST(TraceFile, RejectsBadHeader)
{
    auto path = tempTrace("pico_badheader.trace");
    {
        std::ofstream out(path);
        out << "not a trace\n2 1000\n";
    }
    EXPECT_THROW(ColumnarTraceReader reader(path.string()),
                 TraceCorruptionError);
    std::filesystem::remove(path);
}

TEST(TraceFile, ReplayedTraceSimulatesIdentically)
{
    auto path = tempTrace("pico_replay.trace");
    auto prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 4000);
    auto build = workloads::buildFor(
        prog, machine::MachineDesc::fromName("1111"));
    TraceGenerator gen(prog, build.sched, build.bin);

    cache::CacheConfig cfg = cache::CacheConfig::fromSize(4096, 2, 32);
    cache::CacheSim live(cfg);
    {
        ColumnarTraceWriter writer(path.string());
        gen.generate(TraceKind::Unified,
                     [&](const Access &a) {
                         live.access(a.addr, a.isWrite);
                         writer.write(a);
                     },
                     4000);
    }

    cache::CacheSim replayed(cfg);
    ColumnarTraceReader reader(path.string());
    uint64_t n = reader.replay([&replayed](const Access &a) {
        replayed.access(a.addr, a.isWrite);
    });
    EXPECT_EQ(n, live.accesses());
    EXPECT_EQ(replayed.misses(), live.misses());
    EXPECT_EQ(replayed.writebacks(), live.writebacks());
    std::filesystem::remove(path);
}

// --- trace format v3 (blocked columnar) -------------------------------

/** Mixed-kind trace with jumpy and sequential address stretches. */
std::vector<Access>
syntheticAccesses(size_t n)
{
    std::vector<Access> out;
    out.reserve(n);
    uint64_t pc = 0x400000;
    for (size_t i = 0; i < n; ++i) {
        if (i % 11 == 0)
            pc = 0x400000 + ((i * 2654435761ULL) & 0x3ffff) * 4;
        Access a;
        a.addr = pc;
        pc += 4;
        a.isInstr = (i % 3) != 0;
        a.isWrite = !a.isInstr && (i % 5 == 0);
        out.push_back(a);
    }
    return out;
}

std::filesystem::path
writeColumnar(const char *name, const std::vector<Access> &accesses,
              uint32_t block_capacity =
                  ColumnarTraceBuffer::defaultBlockCapacity)
{
    auto path = tempTrace(name);
    ColumnarTraceWriter writer(path.string(), block_capacity);
    for (const auto &a : accesses)
        writer.write(a);
    writer.close();
    return path;
}

void
expectSameAccesses(const std::vector<Access> &got,
                   const std::vector<Access> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].addr, want[i].addr) << "record " << i;
        ASSERT_EQ(got[i].isInstr, want[i].isInstr) << "record " << i;
        ASSERT_EQ(got[i].isWrite, want[i].isWrite) << "record " << i;
    }
}

TEST(ColumnarFile, RoundTripPreservesRecords)
{
    auto accesses = syntheticAccesses(10000); // 3 blocks at 4096
    auto path = writeColumnar("pico_v3roundtrip.trace", accesses);

    ColumnarTraceReader reader(path.string());
    EXPECT_EQ(reader.recordCount(), accesses.size());
    EXPECT_EQ(reader.blockCount(), 3u);
    std::vector<Access> read;
    reader.replay([&read](const Access &a) { read.push_back(a); });
    expectSameAccesses(read, accesses);
    EXPECT_TRUE(reader.summary().clean());
    std::filesystem::remove(path);
}

TEST(ColumnarFile, SmallBlocksAndEmptyTraceRoundTrip)
{
    auto accesses = syntheticAccesses(1000);
    auto path =
        writeColumnar("pico_v3small.trace", accesses, /*cap=*/64);
    std::vector<Access> read;
    ColumnarTraceReader reader(path.string());
    reader.replay([&read](const Access &a) { read.push_back(a); });
    expectSameAccesses(read, accesses);
    EXPECT_EQ(reader.blockCount(), (1000 + 63) / 64);
    std::filesystem::remove(path);

    auto empty = writeColumnar("pico_v3empty.trace", {});
    ColumnarTraceReader empty_reader(empty.string());
    EXPECT_EQ(empty_reader.replay([](const Access &) {}), 0u);
    EXPECT_TRUE(empty_reader.summary().clean());
    std::filesystem::remove(empty);
}

TEST(ColumnarFile, StrictBitFlipNamesTheBlock)
{
    auto accesses = syntheticAccesses(1024);
    auto path =
        writeColumnar("pico_v3strict.trace", accesses, /*cap=*/256);
    // Flip a payload byte inside the first block (past the 88-byte
    // file header and the 32-byte block header).
    support::flipBit(path.string(), 88 + 32 + 10, 3);

    ColumnarTraceReader reader(path.string());
    try {
        reader.replay([](const Access &) {});
        FAIL() << "corrupt block accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("block"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

TEST(ColumnarFile, LenientSalvagesWholeBlocks)
{
    auto accesses = syntheticAccesses(1024); // 4 blocks at 256
    auto path =
        writeColumnar("pico_v3lenient.trace", accesses, /*cap=*/256);
    support::flipBit(path.string(), 88 + 32 + 10, 3);

    ColumnarTraceReader reader(path.string(),
                               TraceReadMode::Lenient);
    std::vector<Access> read;
    uint64_t n = reader.replay(
        [&read](const Access &a) { read.push_back(a); });
    // Exactly the flipped block is lost; the other three whole.
    EXPECT_EQ(n, 1024u - 256u);
    const auto &s = reader.summary();
    EXPECT_EQ(s.corruptBlocks, 1u);
    EXPECT_EQ(s.salvagedBlocks, 3u);
    EXPECT_EQ(s.droppedRecords(), 256u);
    EXPECT_FALSE(s.clean());
    expectSameAccesses(
        read, {accesses.begin() + 256, accesses.end()});
    std::filesystem::remove(path);
}

TEST(ColumnarFile, SeededBitFlipsNeverCrashAndSalvageWholeBlocks)
{
    auto accesses = syntheticAccesses(2048); // 8 blocks at 256
    auto pristine =
        writeColumnar("pico_v3fuzz.trace", accesses, /*cap=*/256);

    for (uint64_t seed = 1; seed <= 16; ++seed) {
        auto copy = tempTrace("pico_v3fuzz_case.trace");
        std::filesystem::copy_file(
            pristine, copy,
            std::filesystem::copy_options::overwrite_existing);
        // Three seeded flips anywhere past the magic: header
        // fields, block headers, payload and index are all fair
        // game; only the magic stays so the file still reads as v3.
        for (uint64_t off : support::corruptionOffsets(
                 copy.string(), seed, 3, traceMagicV3Bytes))
            support::flipBit(copy.string(), off,
                             static_cast<unsigned>(seed % 8));

        ColumnarTraceReader reader(copy.string(),
                                   TraceReadMode::Lenient);
        uint64_t n = reader.replay([](const Access &) {});
        // Lenient mode must never throw and salvage is all-or-
        // nothing per block: every delivered record belongs to a
        // fully validated 256-record block.
        EXPECT_EQ(n % 256, 0u) << "seed " << seed;
        EXPECT_FALSE(reader.summary().describe().empty());
        std::filesystem::remove(copy);
    }
    std::filesystem::remove(pristine);
}

TEST(ColumnarFile, TruncationIsNeverACleanEof)
{
    auto accesses = syntheticAccesses(1024);
    auto path = writeColumnar("pico_v3trunc.trace", accesses,
                              /*cap=*/256);
    // Cut the tail: the offset index goes, and with it the seal
    // patched into the header... which was written *before* the
    // truncation, so kill it too by dropping enough bytes that the
    // last block is also cut mid-payload.
    auto size = std::filesystem::file_size(path);
    support::truncateFile(path.string(), size - (8 * 4 + 40));

    EXPECT_THROW(
        {
            ColumnarTraceReader reader(path.string());
            reader.replay([](const Access &) {});
        },
        FatalError);

    // Lenient: forward scan of the blocks region recovers every
    // block that survived whole.
    ColumnarTraceReader reader(path.string(),
                               TraceReadMode::Lenient);
    uint64_t n = reader.replay([](const Access &) {});
    EXPECT_EQ(n % 256, 0u);
    EXPECT_LT(n, 1024u);
    EXPECT_FALSE(reader.summary().clean());
    std::filesystem::remove(path);
}

TEST(ColumnarFile, WriterCrashBeforeSealIsDetected)
{
    auto path = tempTrace("pico_v3crash.trace");
    {
        support::ScopedFault f(
            "ColumnarTraceWriter::close:before-seal",
            /*skip=*/0, /*fires=*/0);
        ColumnarTraceWriter writer(path.string(), /*cap=*/256);
        for (const auto &a : syntheticAccesses(600))
            writer.write(a);
        EXPECT_THROW(writer.close(), FaultInjectedError);
    }
    // Strict refuses the unsealed file; lenient scans and reports.
    EXPECT_THROW(ColumnarTraceReader(path.string()), FatalError);
    ColumnarTraceReader reader(path.string(),
                               TraceReadMode::Lenient);
    reader.replay([](const Access &) {});
    EXPECT_TRUE(reader.summary().headerTruncated);
    EXPECT_FALSE(reader.summary().clean());
    std::filesystem::remove(path);
}

TEST(ColumnarFile, WrappedOffsetsAreCorruptionNotACrash)
{
    // 200 records in blocks of 64: four blocks, then the index.
    auto pristine = writeColumnar("pico_v3wrap.trace",
                                  syntheticAccesses(200), /*cap=*/64);
    const uint64_t index = std::filesystem::file_size(pristine) - 4 * 8;
    const struct
    {
        uint64_t at;         ///< byte patched
        uint64_t offset;     ///< near-2^64 offset written there
        uint64_t salvaged;   ///< records Lenient still delivers
        const char *strict;  ///< what Strict's error names
    } cases[] = {
        // Header indexOffset: indexOffset + 4 * 8 wraps to 0. Lenient
        // treats the index as lost and salvages every block by scan.
        {48, 0 - uint64_t{4 * 8}, 200, "corrupt block index"},
        // Block 1's index entry: offset + 32 wraps to 16. Lenient
        // skips that block only.
        {index + 8, 0 - uint64_t{16}, 200 - 64, "block 1 (byte"},
    };
    for (const auto &c : cases) {
        auto path = tempTrace("pico_v3wrap_case.trace");
        std::filesystem::copy_file(
            pristine, path,
            std::filesystem::copy_options::overwrite_existing);
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekp(static_cast<std::streamoff>(c.at));
            for (int i = 0; i < 8; ++i)
                f.put(static_cast<char>(c.offset >> (8 * i)));
        }
        try {
            ColumnarTraceReader reader(path.string());
            reader.replay([](const Access &) {});
            ADD_FAILURE() << "wrapped offset accepted at " << c.at;
        } catch (const TraceCorruptionError &e) {
            EXPECT_NE(std::string(e.what()).find(c.strict),
                      std::string::npos)
                << e.what();
        }
        ColumnarTraceReader lenient(path.string(),
                                    TraceReadMode::Lenient);
        EXPECT_EQ(lenient.replay([](const Access &) {}), c.salvaged);
        EXPECT_FALSE(lenient.summary().clean());
        std::filesystem::remove(path);
    }
    std::filesystem::remove(pristine);
}

TEST(ColumnarBuffer, ReplayAndBlockDecodeMatchCapture)
{
    auto accesses = syntheticAccesses(9000);
    ColumnarTraceBuffer buffer(/*block_capacity=*/1024);
    for (const auto &a : accesses)
        buffer.append(a);
    EXPECT_EQ(buffer.size(), accesses.size());
    EXPECT_EQ(buffer.blockCount(), (9000 + 1023) / 1024);

    std::vector<Access> read;
    buffer.replay([&read](const Access &a) { read.push_back(a); });
    expectSameAccesses(read, accesses);

    // Block-wise decode agrees with the record-wise replay.
    BlockScratch scratch;
    size_t i = 0;
    for (size_t b = 0; b < buffer.blockCount(); ++b) {
        BlockView view = buffer.decodeBlock(b, scratch);
        for (uint32_t r = 0; r < view.count; ++r, ++i)
            ASSERT_EQ(view.addrs[r], accesses[i].addr);
    }
    EXPECT_EQ(i, accesses.size());

    // The capture's checksum is the hand-stepped record chain.
    uint64_t chain = traceChecksumSeed;
    for (const auto &a : accesses)
        chain = traceChecksumStep(
            chain, a.isInstr ? 2 : (a.isWrite ? 1 : 0), a.addr);
    EXPECT_EQ(buffer.checksum(), chain);
}

} // namespace
} // namespace pico::trace
