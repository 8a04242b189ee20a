/**
 * @file
 * Tests for the columnar capture buffer: replay and block-wise decode
 * return exactly the captured records, across wide address deltas,
 * block capacities down to one record, the empty trace and a real
 * emulated unified trace. The capture carries no checksum, so this
 * round trip is what shows the codec loses nothing.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "machine/MachineDesc.hpp"
#include "trace/ColumnarTrace.hpp"
#include "trace/TraceGenerator.hpp"
#include "workloads/AppSpec.hpp"
#include "workloads/Toolchain.hpp"

namespace pico::trace
{
namespace
{

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

/**
 * Capture `accesses` in blocks of `capacity` and check that replay and
 * block-wise decode both return exactly them.
 */
void
expectRoundTrip(const std::vector<Access> &accesses, uint32_t capacity)
{
    SCOPED_TRACE(std::to_string(accesses.size()) +
                 " records in blocks of " + std::to_string(capacity));
    ColumnarTraceBuffer buffer(capacity);
    for (const auto &a : accesses)
        buffer.append(a);
    EXPECT_EQ(buffer.size(), accesses.size());
    EXPECT_EQ(buffer.blockCount(),
              (accesses.size() + capacity - 1) / capacity);

    std::vector<Access> read;
    buffer.replay([&read](const Access &a) { read.push_back(a); });
    expectSameAccesses(read, accesses);

    // Block-wise decode agrees with the record-wise replay.
    BlockScratch scratch;
    size_t i = 0;
    for (size_t b = 0; b < buffer.blockCount(); ++b) {
        BlockView view = buffer.decodeBlock(b, scratch);
        for (uint32_t r = 0; r < view.count; ++r, ++i) {
            ASSERT_EQ(view.addrs[r], accesses[i].addr);
            ASSERT_EQ(view.kinds[r], recordKind(accesses[i]));
        }
    }
    EXPECT_EQ(i, accesses.size());
}

TEST(ColumnarBuffer, ReplayAndBlockDecodeMatchCapture)
{
    // Wide deltas: an address above 32 bits, a jump of about 2^36,
    // and a jump back down to 4.
    const std::vector<Access> wide = {
        {0x01000000, true, false},
        {0x40000004, false, false},
        {0x40000008, false, true},
        {0xdeadbeef0, false, true},
        {0x4, true, false},
    };
    const std::vector<Access> traces[] = {
        wide, syntheticAccesses(1000), syntheticAccesses(9000), {}};
    const uint32_t capacities[] = {
        1, 2, 64, 1024, ColumnarTraceBuffer::defaultBlockCapacity};
    for (const auto &accesses : traces)
        for (uint32_t capacity : capacities)
            expectRoundTrip(accesses, capacity);

    // One real emulated unified trace, as a walk captures it: fetches,
    // loads and stores interleaved, in blocks of the default size.
    const ir::Program prog = workloads::buildAndProfile(
        workloads::specByName("unepic"), 5000);
    const workloads::MachineBuild build =
        workloads::buildFor(prog, machine::MachineDesc::fromName("1111"));
    const std::vector<Access> emulated =
        TraceGenerator(prog, build.sched, build.bin)
            .collect(TraceKind::Unified, 2000);
    ASSERT_GT(emulated.size(),
              2 * ColumnarTraceBuffer::defaultBlockCapacity);
    expectRoundTrip(emulated, ColumnarTraceBuffer::defaultBlockCapacity);
}

} // namespace
} // namespace pico::trace
