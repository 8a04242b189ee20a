/**
 * @file
 * Legacy trace import: convert a file of the retired text trace
 * format v2 into trace format v3, the only trace file format the
 * library reads and writes. The records and their checksum chain
 * carry over bit-for-bit, so the v3 file replays exactly the v2
 * records and its file checksum equals the v2 footer's.
 *
 * Usage: trace_convert <input.v2> <output.v3>
 *
 * A v2 file is a `picoeval-trace-v2` header line, one
 * `<kind> <hex-address>` record per line (kind 0 = data read,
 * 1 = data write, 2 = instruction fetch), then
 * `%footer <record-count> <hex-checksum>`, where the checksum is the
 * traceChecksumStep chain over the records. The import is strict: a
 * malformed line, a missing footer, a count or checksum mismatch or
 * any data after the footer rejects the file, naming the line and
 * byte. The whole input is validated before the output is created,
 * so a failed import leaves no file behind.
 *
 * Exit codes distinguish *why* an import failed, so scripts can
 * react (retry, alert, skip):
 *   0  converted cleanly
 *   1  other failure
 *   2  bad usage (the tool takes exactly two paths, no options)
 *   3  corrupt input (not a v2 file, malformed record, bad footer —
 *      retrying is pointless, the bytes are wrong)
 *   4  I/O error (cannot open/read/write — the environment failed,
 *      the file may be fine)
 */

#include <charconv>
#include <fstream>
#include <iostream>
#include <string>

#include "trace/ColumnarTrace.hpp"
#include "trace/TraceErrors.hpp"

using namespace pico;

namespace
{

constexpr const char *v2Header = "picoeval-trace-v2";
constexpr const char *footerTag = "%footer ";

/** Parse all of [first, last) as one unsigned number in `base`. */
bool
parseWhole(const char *first, const char *last, uint64_t &value,
           int base)
{
    auto [end, ec] = std::from_chars(first, last, value, base);
    return ec == std::errc() && end == last;
}

/** Strict `<kind> <hex-address>` record, kind 0, 1 or 2. */
bool
parseRecord(const std::string &line, int &kind, uint64_t &addr)
{
    if (line.size() < 3 || line[0] < '0' || line[0] > '2' ||
        line[1] != ' ')
        return false;
    kind = line[0] - '0';
    return parseWhole(line.data() + 2, line.data() + line.size(), addr,
                      16);
}

/** Strict `%footer <count> <hex-checksum>`. */
bool
parseFooter(const std::string &line, uint64_t &count, uint64_t &sum)
{
    const size_t tag = std::char_traits<char>::length(footerTag);
    size_t gap = line.find(' ', tag);
    if (line.rfind(footerTag, 0) != 0 || gap == std::string::npos)
        return false;
    const char *p = line.data();
    return parseWhole(p + tag, p + gap, count, 10) &&
           parseWhole(p + gap + 1, p + line.size(), sum, 16);
}

/**
 * Read a whole v2 file into `records`. Raises TraceIoError when the
 * file cannot be read, and TraceCorruptionError naming the line and
 * byte when it is not one complete, intact v2 trace.
 */
void
importV2(const std::string &path, trace::ColumnarTraceBuffer &records)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        trace::ioFatal("cannot open trace file '", path, "'");
    std::string line;
    uint64_t line_no = 0, line_byte = 0, next_byte = 0;
    auto next_line = [&] {
        ++line_no;
        line_byte = next_byte;
        if (!std::getline(in, line)) {
            if (in.bad())
                trace::ioFatal("trace file '", path, "' read failed");
            return false;
        }
        next_byte += line.size() + (in.eof() ? 0 : 1);
        return true;
    };
    auto corrupt = [&](const auto &...what) {
        trace::corruptFatal("trace '", path, "' line ", line_no,
                            " (byte ", line_byte, "): ", what...);
    };

    if (!next_line() || line != v2Header)
        corrupt("not a ", v2Header, " file");
    while (next_line()) {
        if (line.rfind(footerTag, 0) == 0) {
            uint64_t count = 0, sum = 0;
            if (!parseFooter(line, count, sum))
                corrupt("malformed footer");
            if (count != records.size())
                corrupt("footer expects ", count, " record(s) but ",
                        records.size(), " were read");
            if (sum != records.checksum())
                corrupt("checksum mismatch");
            if (next_line())
                corrupt("trailing data after the footer");
            return;
        }
        int kind = 0;
        uint64_t addr = 0;
        if (!parseRecord(line, kind, addr))
            corrupt("malformed record");
        records.append({addr, kind == 2, kind == 1});
    }
    corrupt("truncated: end of file without a footer");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
        std::cerr << "usage: trace_convert <input.v2> <output.v3>\n";
        return 2;
    }
    const std::string input = argv[1], output = argv[2];

    try {
        trace::ColumnarTraceBuffer records;
        importV2(input, records);
        trace::ColumnarTraceWriter writer(output);
        records.replay(writer);
        writer.close();
        std::cout << "converted " << records.size() << " records: v2 "
                  << input << " -> v3 " << output << "\n";
    } catch (const trace::TraceCorruptionError &e) {
        std::cerr << "corrupt input: " << e.what() << "\n";
        return 3;
    } catch (const trace::TraceIoError &e) {
        std::cerr << "I/O error: " << e.what() << "\n";
        return 4;
    } catch (const std::exception &e) {
        std::cerr << "conversion failed: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
