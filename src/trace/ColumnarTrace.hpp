/**
 * @file
 * Columnar compressed address traces, held in memory.
 *
 * The Cheetah hot loop replays one captured reference trace once per
 * distinct line size. Stored as an array of 16-byte Access structs,
 * every sweep would stream 16 bytes per reference through the memory
 * system even though the simulators only consume the address (and
 * the address stream itself is highly local). The columnar
 * representation fixes both costs:
 *
 *  - the trace is split into *blocks* of a fixed number of records
 *    (blockCapacity, default 4096);
 *  - within a block the columns are stored as separate streams: the
 *    address column as zigzag-varint *deltas* between consecutive
 *    addresses (sequential code and striding data collapse to one or
 *    two bytes per reference), and the kind column (read/write/
 *    instruction) packed at two bits per record; record sizes are
 *    implicit — every reference is one word;
 *  - each block keeps its record count and first address; a decode
 *    checks the streams' structure (varint framing, stream lengths,
 *    kind values) and panics on a block that does not yield its
 *    record count, so a trace is never silently short. The bytes
 *    never leave the process, so no checksum guards them.
 *
 * Decoding a block materializes a plain address array in a reusable
 * scratch buffer; SinglePassSim::accessBlock() then consumes the hot
 * span branch-free. One decoded block can feed *all* line sizes in a
 * single pass (a serial SimBank sweep does exactly that).
 *
 * A trace lives only in memory, for the length of one class's sweep:
 * what a later run reuses is the class's frozen reference set, never
 * the trace.
 */

#ifndef PICO_TRACE_COLUMNAR_TRACE_HPP
#define PICO_TRACE_COLUMNAR_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/Access.hpp"

namespace pico::trace
{

/** Reusable decode scratch: one block's materialized columns. */
class BlockScratch
{
  public:
    std::vector<uint64_t> addrs;
    std::vector<uint8_t> kinds;
};

/** Zero-copy view of one decoded block (points into a scratch). */
struct BlockView
{
    const uint64_t *addrs = nullptr;
    /** Record kinds, as recordKind() codes them. */
    const uint8_t *kinds = nullptr;
    uint32_t count = 0;
};

/**
 * In-memory columnar trace, the one form a reference trace takes.
 * Sink-compatible; immutable once capture ends, so any number of
 * threads may decode blocks concurrently (each with its own
 * BlockScratch).
 */
class ColumnarTraceBuffer
{
  public:
    /** Records per block (power of two; decode scratch sizing). */
    static constexpr uint32_t defaultBlockCapacity = 4096;

    explicit ColumnarTraceBuffer(
        uint32_t block_capacity = defaultBlockCapacity);

    /** Sink interface: append one reference. */
    void operator()(const Access &a) { append(a); }

    /** Append one reference. */
    void append(const Access &a);

    /** Total records captured. */
    uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Number of blocks (including the open tail block). */
    size_t blockCount() const;

    uint32_t blockCapacity() const { return blockCapacity_; }

    /** Encoded payload bytes (delta + kind streams, all blocks). */
    uint64_t encodedBytes() const;

    /**
     * Decode one block into `scratch` and return a view of it. The
     * buffer is read-only here: concurrent decodes of any blocks are
     * safe as long as each thread owns its scratch.
     */
    BlockView decodeBlock(size_t index, BlockScratch &scratch) const;

    /** Replay every record, in order, into sink(const Access &). */
    template <typename Sink>
    void
    replay(Sink &&sink) const
    {
        BlockScratch scratch;
        const size_t blocks = blockCount();
        for (size_t b = 0; b < blocks; ++b) {
            BlockView view = decodeBlock(b, scratch);
            for (uint32_t i = 0; i < view.count; ++i) {
                Access a;
                a.addr = view.addrs[i];
                a.isInstr = view.kinds[i] == kindInstruction;
                a.isWrite = view.kinds[i] == kindWrite;
                sink(a);
            }
        }
    }

  private:
    /** Encoded form of one block: its count, first address, streams. */
    struct Block
    {
        uint32_t count = 0;
        uint64_t firstAddr = 0;
        std::vector<uint8_t> deltas;
        std::vector<uint8_t> kinds;
    };

    uint32_t blockCapacity_;
    uint64_t size_ = 0;
    std::vector<Block> closed_;
    /** The open tail block and its last address (the next delta's
     *  base). */
    Block open_;
    uint64_t openLastAddr_ = 0;
};

} // namespace pico::trace

#endif // PICO_TRACE_COLUMNAR_TRACE_HPP
