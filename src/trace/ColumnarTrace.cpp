#include "trace/ColumnarTrace.hpp"

#include <utility>

#include "support/Logging.hpp"

namespace pico::trace
{

namespace
{

/** Zigzag-encode a signed delta. */
uint64_t
zigzag(int64_t d)
{
    return (static_cast<uint64_t>(d) << 1) ^
           static_cast<uint64_t>(d >> 63);
}

/** Zigzag-decode. */
int64_t
unzigzag(uint64_t z)
{
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/** Append one LEB128 varint. */
void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/**
 * Read one LEB128 varint from [p, end).
 * @return bytes consumed, 0 on truncation/overlong input
 */
size_t
getVarint(const uint8_t *p, const uint8_t *end, uint64_t &v)
{
    v = 0;
    unsigned shift = 0;
    for (size_t i = 0; p + i < end && i < 10; ++i) {
        v |= static_cast<uint64_t>(p[i] & 0x7f) << shift;
        if (!(p[i] & 0x80))
            return i + 1;
        shift += 7;
    }
    return 0;
}

/** Packed kind-stream length for `count` records (2 bits each). */
size_t
kindBytesFor(uint32_t count)
{
    return (static_cast<size_t>(count) + 3) / 4;
}

/**
 * Decode one block's streams into `scratch`.
 * @return false when a stream is malformed (truncated varint, count
 *         overrun, stream length mismatch) — never throws
 */
bool
decodeStreams(const uint8_t *deltas, size_t delta_bytes,
              const uint8_t *kinds, size_t kind_bytes, uint32_t count,
              uint64_t first_addr, BlockScratch &scratch)
{
    if (count == 0)
        return false;
    if (kind_bytes != kindBytesFor(count))
        return false;

    scratch.addrs.resize(count);
    scratch.kinds.resize(count);

    // Kind column: 2 bits per record; the reserved value 3 is
    // corruption (no recordKind() code is above kindInstruction).
    for (uint32_t i = 0; i < count; ++i) {
        uint8_t k = static_cast<uint8_t>(
            (kinds[i >> 2] >> ((i & 3) * 2)) & 3);
        if (k > kindInstruction)
            return false;
        scratch.kinds[i] = k;
    }

    // Address column: first address verbatim, then zigzag deltas.
    uint64_t addr = first_addr;
    scratch.addrs[0] = addr;
    const uint8_t *p = deltas;
    const uint8_t *end = deltas + delta_bytes;
    for (uint32_t i = 1; i < count; ++i) {
        uint64_t z = 0;
        size_t used = getVarint(p, end, z);
        if (used == 0)
            return false;
        p += used;
        addr += static_cast<uint64_t>(unzigzag(z));
        scratch.addrs[i] = addr;
    }
    return p == end; // no trailing bytes in the delta stream
}

} // namespace

ColumnarTraceBuffer::ColumnarTraceBuffer(uint32_t block_capacity)
    : blockCapacity_(block_capacity)
{
    fatalIf(block_capacity == 0, "zero columnar block capacity");
}

void
ColumnarTraceBuffer::append(const Access &a)
{
    if (open_.count == blockCapacity_) {
        closed_.push_back(std::move(open_));
        open_ = Block{};
    }
    const unsigned kind = recordKind(a);
    if (open_.count == 0) {
        open_.firstAddr = a.addr;
    } else {
        int64_t delta = static_cast<int64_t>(a.addr - openLastAddr_);
        putVarint(open_.deltas, zigzag(delta));
    }
    if ((open_.count & 3) == 0)
        open_.kinds.push_back(0);
    open_.kinds.back() = static_cast<uint8_t>(
        open_.kinds.back() |
        (kind << ((open_.count & 3) * 2)));
    openLastAddr_ = a.addr;
    ++open_.count;
    ++size_;
}

size_t
ColumnarTraceBuffer::blockCount() const
{
    return closed_.size() + (open_.count > 0 ? 1 : 0);
}

uint64_t
ColumnarTraceBuffer::encodedBytes() const
{
    uint64_t bytes = 0;
    for (const auto &b : closed_)
        bytes += b.deltas.size() + b.kinds.size();
    return bytes + open_.deltas.size() + open_.kinds.size();
}

BlockView
ColumnarTraceBuffer::decodeBlock(size_t index,
                                 BlockScratch &scratch) const
{
    fatalIf(index >= blockCount(), "columnar block ", index,
            " out of range");
    // The open tail block decodes in place: decoding mutates nothing,
    // so concurrent decodes stay safe.
    const Block &b = index < closed_.size() ? closed_[index] : open_;
    bool ok = decodeStreams(b.deltas.data(), b.deltas.size(),
                            b.kinds.data(), b.kinds.size(), b.count,
                            b.firstAddr, scratch);
    panicIf(!ok, "in-memory columnar block failed to decode");
    BlockView view;
    view.addrs = scratch.addrs.data();
    view.kinds = scratch.kinds.data();
    view.count = b.count;
    return view;
}

} // namespace pico::trace
