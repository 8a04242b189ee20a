#include "trace/ColumnarTrace.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "support/FaultInjection.hpp"
#include "support/Metrics.hpp"
#include "support/TraceEvents.hpp"
#include "trace/TraceErrors.hpp"

namespace pico::trace
{

uint64_t
traceChecksumStep(uint64_t sum, int kind, uint64_t addr)
{
    constexpr uint64_t prime = 0x100000001b3ULL;
    sum ^= static_cast<uint64_t>(kind) & 0xff;
    sum *= prime;
    for (int i = 0; i < 8; ++i) {
        sum ^= (addr >> (8 * i)) & 0xff;
        sum *= prime;
    }
    return sum;
}

namespace
{

/** Fixed byte counts of the on-disk layout. */
constexpr size_t fileHeaderWords = 8;
constexpr size_t fileHeaderBytes =
    traceMagicV3Bytes + fileHeaderWords * 8;
constexpr size_t blockHeaderBytes = 32;

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

/** Little-endian scalar writes into a byte vector. */
void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t
readU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
readU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * True when `need` bytes starting at byte `off` lie inside a file of
 * `size` bytes. Compares by subtraction, so a corrupt offset near
 * 2^64 cannot wrap a sum back inside the mapping.
 */
bool
spanFits(uint64_t off, uint64_t need, uint64_t size)
{
    return off <= size && size - off >= need;
}

/** Packed kind-stream length for `count` records (2 bits each). */
size_t
kindBytesFor(uint32_t count)
{
    return (static_cast<size_t>(count) + 3) / 4;
}

/** Parsed v3 block header. */
struct BlockHeader
{
    uint32_t magic = 0;
    uint32_t count = 0;
    uint64_t firstAddr = 0;
    uint32_t deltaBytes = 0;
    uint32_t kindBytes = 0;
    uint64_t checksum = 0;
};

BlockHeader
readBlockHeader(const uint8_t *p)
{
    BlockHeader h;
    h.magic = readU32(p);
    h.count = readU32(p + 4);
    h.firstAddr = readU64(p + 8);
    h.deltaBytes = readU32(p + 16);
    h.kindBytes = readU32(p + 20);
    h.checksum = readU64(p + 24);
    return h;
}

} // namespace

namespace detail
{

void
BlockEncoder::add(int kind, uint64_t addr)
{
    if (count == 0) {
        firstAddr = addr;
    } else {
        int64_t delta = static_cast<int64_t>(addr - lastAddr);
        putVarint(deltas, zigzag(delta));
    }
    if ((count & 3) == 0)
        kinds.push_back(0);
    kinds.back() = static_cast<uint8_t>(
        kinds.back() | (static_cast<unsigned>(kind) << ((count & 3) * 2)));
    lastAddr = addr;
    checksum = traceChecksumStep(checksum, kind, addr);
    ++count;
}

bool
decodeBlock(const uint8_t *deltas, size_t delta_bytes,
            const uint8_t *kinds, size_t kind_bytes,
            uint32_t count, uint64_t first_addr,
            BlockScratch &scratch, uint64_t &checksum_out)
{
    if (count == 0)
        return false;
    if (kind_bytes != kindBytesFor(count))
        return false;

    scratch.addrs.resize(count);
    scratch.kinds.resize(count);

    // Kind column: 2 bits per record; the reserved value 3 is
    // corruption (kinds are 0/1/2 only).
    for (uint32_t i = 0; i < count; ++i) {
        uint8_t k = static_cast<uint8_t>(
            (kinds[i >> 2] >> ((i & 3) * 2)) & 3);
        if (k > 2)
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
    if (p != end)
        return false; // trailing bytes in the delta stream

    uint64_t sum = traceChecksumSeed;
    for (uint32_t i = 0; i < count; ++i)
        sum = traceChecksumStep(sum, scratch.kinds[i],
                                scratch.addrs[i]);
    checksum_out = sum;
    return true;
}

} // namespace detail

// --- ColumnarTraceBuffer -----------------------------------------------

ColumnarTraceBuffer::ColumnarTraceBuffer(uint32_t block_capacity)
    : blockCapacity_(block_capacity), open_(block_capacity)
{
    fatalIf(block_capacity == 0, "zero columnar block capacity");
}

void
ColumnarTraceBuffer::append(const Access &a)
{
    if (open_.full()) {
        Block b;
        b.count = open_.count;
        b.firstAddr = open_.firstAddr;
        b.checksum = open_.checksum;
        b.deltas = std::move(open_.deltas);
        b.kinds = std::move(open_.kinds);
        closed_.push_back(std::move(b));
        open_.reset();
    }
    int kind = a.isInstr ? 2 : (a.isWrite ? 1 : 0);
    open_.add(kind, a.addr);
    checksum_ = traceChecksumStep(checksum_, kind, a.addr);
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
    const uint8_t *deltas;
    size_t delta_bytes, kind_bytes;
    const uint8_t *kinds;
    uint32_t count;
    uint64_t first, expect;
    if (index < closed_.size()) {
        const Block &b = closed_[index];
        deltas = b.deltas.data();
        delta_bytes = b.deltas.size();
        kinds = b.kinds.data();
        kind_bytes = b.kinds.size();
        count = b.count;
        first = b.firstAddr;
        expect = b.checksum;
    } else {
        // The open tail block: decode straight from the encoder's
        // streams (no mutation — concurrent decodes stay safe).
        deltas = open_.deltas.data();
        delta_bytes = open_.deltas.size();
        kinds = open_.kinds.data();
        kind_bytes = open_.kinds.size();
        count = open_.count;
        first = open_.firstAddr;
        expect = open_.checksum;
    }
    uint64_t sum = 0;
    bool ok = detail::decodeBlock(deltas, delta_bytes, kinds,
                                  kind_bytes, count, first, scratch,
                                  sum);
    panicIf(!ok || sum != expect,
            "in-memory columnar block failed to decode");
    BlockView view;
    view.addrs = scratch.addrs.data();
    view.kinds = scratch.kinds.data();
    view.count = count;
    return view;
}

void
ColumnarTraceBuffer::sealOpenBlock() const
{
    openView_.count = open_.count;
    openView_.firstAddr = open_.firstAddr;
    openView_.checksum = open_.checksum;
    openView_.deltas = open_.deltas;
    openView_.kinds = open_.kinds;
    openViewCount_ = open_.count;
}

const ColumnarTraceBuffer::Block &
ColumnarTraceBuffer::block(size_t index) const
{
    fatalIf(index >= blockCount(), "columnar block ", index,
            " out of range");
    if (index < closed_.size())
        return closed_[index];
    // Serial paths only (serialization, verification): the cached
    // seal is refreshed whenever the tail grew.
    if (openViewCount_ != open_.count)
        sealOpenBlock();
    return openView_;
}

// --- ColumnarTraceWriter -----------------------------------------------

ColumnarTraceWriter::ColumnarTraceWriter(const std::string &path,
                                         uint32_t block_capacity)
    : path_(path),
      out_(path, std::ios::trunc | std::ios::binary),
      blockCapacity_(block_capacity), open_(block_capacity)
{
    fatalIf(block_capacity == 0, "zero columnar block capacity");
    if (!out_)
        ioFatal("cannot open trace file '", path, "' for writing");
    // Magic plus a placeholder header; every field but the block
    // capacity is patched by close(). An unsealed header marks a
    // crash mid-write — truncation is never a clean end-of-trace.
    std::vector<uint8_t> head;
    head.insert(head.end(), traceMagicV3,
                traceMagicV3 + std::strlen(traceMagicV3));
    head.resize(traceMagicV3Bytes, 0);
    putU64(head, blockCapacity_);
    for (size_t i = 1; i < fileHeaderWords; ++i)
        putU64(head, 0);
    out_.write(reinterpret_cast<const char *>(head.data()),
               static_cast<std::streamsize>(head.size()));
    if (!out_)
        ioFatal("trace file '", path_, "' write failed");
}

ColumnarTraceWriter::~ColumnarTraceWriter()
{
    try {
        close();
    } catch (const std::exception &e) {
        warn("trace file '", path_,
             "' close failed during unwind: ", e.what());
    }
}

void
ColumnarTraceWriter::write(const Access &a)
{
    if (open_.full())
        flushBlock();
    int kind = a.isInstr ? 2 : (a.isWrite ? 1 : 0);
    open_.add(kind, a.addr);
    checksum_ = traceChecksumStep(checksum_, kind, a.addr);
    ++count_;
}

void
ColumnarTraceWriter::flushBlock()
{
    if (open_.count == 0)
        return;
    offsets_.push_back(static_cast<uint64_t>(out_.tellp()));
    std::vector<uint8_t> header;
    putU32(header, columnarBlockMagic);
    putU32(header, open_.count);
    putU64(header, open_.firstAddr);
    putU32(header, static_cast<uint32_t>(open_.deltas.size()));
    putU32(header, static_cast<uint32_t>(open_.kinds.size()));
    putU64(header, open_.checksum);
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    out_.write(reinterpret_cast<const char *>(open_.deltas.data()),
               static_cast<std::streamsize>(open_.deltas.size()));
    out_.write(reinterpret_cast<const char *>(open_.kinds.data()),
               static_cast<std::streamsize>(open_.kinds.size()));
    if (!out_)
        ioFatal("trace file '", path_, "' write failed");
    open_.reset();
}

void
ColumnarTraceWriter::close()
{
    if (!out_.is_open())
        return;
    // Sealing is the writer's one heavyweight step (index + header
    // patch + flush); traced so a request stalled here is visible —
    // and attributed to its request via the thread's TraceContext.
    support::TimedSpan span("trace.seal", "trace");
    support::faultPoint("ColumnarTraceWriter::close:before-index");
    flushBlock();
    uint64_t index_offset = static_cast<uint64_t>(out_.tellp());
    std::vector<uint8_t> tail;
    for (uint64_t off : offsets_)
        putU64(tail, off);
    out_.write(reinterpret_cast<const char *>(tail.data()),
               static_cast<std::streamsize>(tail.size()));
    support::faultPoint("ColumnarTraceWriter::close:before-seal");
    uint64_t file_bytes = index_offset + tail.size();
    // Patch the header: counts, index position, checksum, seal.
    std::vector<uint8_t> head;
    putU64(head, blockCapacity_);
    putU64(head, count_);
    putU64(head, static_cast<uint64_t>(offsets_.size()));
    putU64(head, index_offset);
    putU64(head, checksum_);
    putU64(head, columnarHeaderSeal);
    out_.seekp(static_cast<std::streamoff>(traceMagicV3Bytes));
    out_.write(reinterpret_cast<const char *>(head.data()),
               static_cast<std::streamsize>(head.size()));
    out_.flush();
    if (!out_)
        ioFatal("trace file '", path_, "' write failed");
    PICO_METRIC_COUNT("tracefile.write.bytes", file_bytes);
    PICO_METRIC_COUNT("tracefile.write.records", count_);
    out_.close();
}

// --- ColumnarCorruptionSummary -----------------------------------------

std::string
ColumnarCorruptionSummary::describe() const
{
    std::ostringstream oss;
    oss << recordsRead << " record(s) read in " << salvagedBlocks
        << " block(s)";
    if (corruptBlocks > 0)
        oss << ", " << corruptBlocks << " corrupt block(s) skipped";
    if (headerTruncated)
        oss << ", header unsealed (file truncated)";
    if (checksumMismatch)
        oss << ", file checksum mismatch";
    uint64_t dropped = droppedRecords();
    if (dropped > 0)
        oss << "; " << dropped << " record(s) dropped";
    if (clean())
        oss << "; clean";
    return oss.str();
}

// --- ColumnarTraceReader -----------------------------------------------

ColumnarTraceReader::ColumnarTraceReader(const std::string &path,
                                         TraceReadMode mode)
    : path_(path), mode_(mode)
{
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        ioFatal("cannot open trace file '", path, "'");
    struct stat st = {};
    if (::fstat(fd_, &st) != 0) {
        ::close(fd_);
        fd_ = -1;
        ioFatal("cannot stat trace file '", path, "'");
    }
    bytes_ = static_cast<size_t>(st.st_size);
    if (bytes_ > 0) {
        void *map = ::mmap(nullptr, bytes_, PROT_READ, MAP_PRIVATE,
                           fd_, 0);
        if (map == MAP_FAILED) {
            ::close(fd_);
            fd_ = -1;
            ioFatal("cannot map trace file '", path, "'");
        }
        data_ = static_cast<const uint8_t *>(map);
    }

    // From here on a throw must release the mapping by hand: the
    // destructor never runs for a partially constructed object.
    try {
        parseHeader();
    } catch (...) {
        if (data_ != nullptr)
            ::munmap(const_cast<uint8_t *>(data_), bytes_);
        ::close(fd_);
        fd_ = -1;
        data_ = nullptr;
        throw;
    }
}

void
ColumnarTraceReader::parseHeader()
{
    if (bytes_ < traceMagicV3Bytes ||
        std::memcmp(data_, traceMagicV3,
                    std::strlen(traceMagicV3)) != 0)
        corruptFatal("'", path_,
                     "' is not a picoeval v3 trace file");

    bool sealed = false;
    uint64_t block_count = 0, index_offset = 0;
    if (bytes_ >= fileHeaderBytes) {
        const uint8_t *h = data_ + traceMagicV3Bytes;
        blockCapacity_ =
            static_cast<uint32_t>(readU64(h));
        recordCount_ = readU64(h + 8);
        block_count = readU64(h + 16);
        index_offset = readU64(h + 24);
        fileChecksum_ = readU64(h + 32);
        sealed = readU64(h + 40) == columnarHeaderSeal;
    }
    if (blockCapacity_ == 0)
        blockCapacity_ = ColumnarTraceBuffer::defaultBlockCapacity;

    bool index_ok =
        sealed && index_offset >= fileHeaderBytes &&
        block_count <= (bytes_ / 8) &&
        spanFits(index_offset, block_count * 8, bytes_);
    if (index_ok) {
        offsets_.reserve(block_count);
        for (uint64_t b = 0; b < block_count; ++b)
            offsets_.push_back(
                readU64(data_ + index_offset + b * 8));
        summary_.expectedRecords = recordCount_;
    } else {
        summary_.headerTruncated = true;
        if (mode_ == TraceReadMode::Strict)
            corruptionError(sealed
                                ? "corrupt block index"
                                : "truncated: header unsealed "
                                  "(writer did not close)",
                            0, traceMagicV3Bytes);
        // Whole-block salvage without an index: walk the blocks
        // region forward; the walk stops at the first byte run that
        // is not a well-formed block header.
        warn("trace '", path_, "': header unsealed or index ",
             "corrupt; scanning for salvageable blocks");
        uint64_t off = fileHeaderBytes;
        while (spanFits(off, blockHeaderBytes, bytes_)) {
            BlockHeader h = readBlockHeader(data_ + off);
            if (h.magic != columnarBlockMagic ||
                h.count == 0 || h.count > blockCapacity_)
                break;
            uint64_t streams = uint64_t{h.deltaBytes} + h.kindBytes;
            if (!spanFits(off + blockHeaderBytes, streams, bytes_))
                break;
            offsets_.push_back(off);
            off += blockHeaderBytes + streams;
        }
        recordCount_ = 0;
        fileChecksum_ = 0;
    }
}

ColumnarTraceReader::~ColumnarTraceReader()
{
    if (data_ != nullptr)
        ::munmap(const_cast<uint8_t *>(data_), bytes_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
ColumnarTraceReader::corruptionError(const std::string &what,
                                     size_t block,
                                     uint64_t offset) const
{
    corruptFatal("trace '", path_, "' block ", block, " (byte ",
                 offset, "): ", what);
}

bool
ColumnarTraceReader::decodeBlock(size_t index, BlockScratch &scratch,
                                 BlockView &view)
{
    fatalIf(index >= offsets_.size(), "columnar block ", index,
            " out of range");
    uint64_t off = offsets_[index];
    auto corrupt = [&](const char *what) {
        ++summary_.corruptBlocks;
        if (mode_ == TraceReadMode::Strict)
            corruptionError(what, index, off);
        if (warned_++ < 3)
            warn("trace '", path_, "' block ", index, " (byte ",
                 off, "): skipping corrupt block: ", what);
        return false;
    };

    if (!spanFits(off, blockHeaderBytes, bytes_))
        return corrupt("block offset out of bounds");
    BlockHeader h = readBlockHeader(data_ + off);
    if (h.magic != columnarBlockMagic)
        return corrupt("bad block magic");
    if (h.count == 0 || h.count > blockCapacity_)
        return corrupt("block record count out of range");
    if (!spanFits(off + blockHeaderBytes,
                  uint64_t{h.deltaBytes} + h.kindBytes, bytes_))
        return corrupt("block streams out of bounds");

    const uint8_t *deltas = data_ + off + blockHeaderBytes;
    const uint8_t *kinds = deltas + h.deltaBytes;
    uint64_t sum = 0;
    if (!detail::decodeBlock(deltas, h.deltaBytes, kinds,
                             h.kindBytes, h.count, h.firstAddr,
                             scratch, sum))
        return corrupt("malformed block streams");
    if (sum != h.checksum)
        return corrupt("block checksum mismatch");

    for (uint32_t i = 0; i < h.count; ++i)
        runningChecksum_ = traceChecksumStep(
            runningChecksum_, scratch.kinds[i], scratch.addrs[i]);
    ++summary_.salvagedBlocks;
    view.addrs = scratch.addrs.data();
    view.kinds = scratch.kinds.data();
    view.count = h.count;
    return true;
}

void
ColumnarTraceReader::finish(uint64_t delivered)
{
    summary_.recordsRead = delivered;
    if (!summary_.headerTruncated) {
        if (runningChecksum_ != fileChecksum_)
            summary_.checksumMismatch = true;
        if (mode_ == TraceReadMode::Strict) {
            if (delivered != recordCount_)
                corruptFatal("trace '", path_, "': header expects ",
                             recordCount_, " record(s) but ",
                             delivered, " were read");
            if (summary_.checksumMismatch)
                corruptFatal("trace '", path_,
                             "': file checksum mismatch");
        }
    }
    PICO_METRIC_COUNT("tracefile.read.bytes", bytes_);
    PICO_METRIC_COUNT("tracefile.read.records", delivered);
    if (mode_ == TraceReadMode::Lenient && !summary_.clean())
        warn("trace '", path_, "': ", summary_.describe());
}

} // namespace pico::trace
