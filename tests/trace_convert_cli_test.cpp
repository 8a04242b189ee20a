/**
 * @file
 * End-to-end contract of the trace_convert tool, the one-way import
 * of text trace format v2 into trace format v3: a strict v2 parse, a
 * v3 output that replays the same records under the same checksum
 * chain, and exit codes that let scripts distinguish bad usage (2)
 * from corrupt input (3) from I/O failure (4) from success (0). The
 * v2 inputs are written here by hand. The tool binary's path arrives
 * via the TRACE_CONVERT_BIN compile definition.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "trace/ColumnarTrace.hpp"

namespace pico
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/**
 * Run the tool, returning its exit code (-1 on abnormal exit). Its
 * stdout and stderr go to `log`.
 */
int
runTool(const std::string &args, const std::string &log = "/dev/null")
{
    std::string cmd = std::string(TRACE_CONVERT_BIN) + " " + args +
                      " >" + log + " 2>&1";
    int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

std::string
writeFile(const std::string &name, const std::string &text)
{
    std::string path = tempPath(name);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    return path;
}

std::string
hex(uint64_t v)
{
    std::ostringstream oss;
    oss << std::hex << v;
    return oss.str();
}

int
kindOf(const trace::Access &a)
{
    return a.isInstr ? 2 : (a.isWrite ? 1 : 0);
}

/** Sixteen records mixing all three kinds. */
std::vector<trace::Access>
sampleRecords()
{
    std::vector<trace::Access> records;
    for (uint64_t i = 0; i < 16; ++i) {
        bool instr = i % 2 == 0;
        records.push_back({0x1000 + i * 4, instr, !instr && i % 3 == 1});
    }
    return records;
}

/**
 * The v2 text of `records`: the header, one `<kind> <hex>` line per
 * record, and the footer with the count and the record chain, which
 * is also returned in `checksum`.
 */
std::string
v2Text(const std::vector<trace::Access> &records, uint64_t &checksum)
{
    std::string text = "picoeval-trace-v2\n";
    checksum = trace::traceChecksumSeed;
    for (const auto &a : records) {
        text += std::to_string(kindOf(a)) + " " + hex(a.addr) + "\n";
        checksum = trace::traceChecksumStep(checksum, kindOf(a), a.addr);
    }
    return text + "%footer " + std::to_string(records.size()) + " " +
           hex(checksum) + "\n";
}

TEST(TraceConvertCli, SucceedsOnValidInput)
{
    for (size_t n : {size_t{16}, size_t{0}}) {
        auto records = sampleRecords();
        records.resize(n);
        uint64_t footer = 0;
        std::string in = writeFile("tc_ok.v2", v2Text(records, footer));
        std::string out = tempPath("tc_ok.v3");
        ASSERT_EQ(runTool(in + " " + out), 0) << n << " records";

        // The v3 file replays the same records, and their chain is
        // the v2 footer's checksum.
        trace::ColumnarTraceReader reader(out);
        std::vector<trace::Access> read;
        uint64_t chain = trace::traceChecksumSeed;
        reader.replay([&](const trace::Access &a) {
            read.push_back(a);
            chain = trace::traceChecksumStep(chain, kindOf(a), a.addr);
        });
        ASSERT_EQ(read.size(), records.size());
        for (size_t i = 0; i < read.size(); ++i) {
            EXPECT_EQ(read[i].addr, records[i].addr) << "record " << i;
            EXPECT_EQ(kindOf(read[i]), kindOf(records[i]))
                << "record " << i;
        }
        EXPECT_EQ(chain, footer);
        EXPECT_TRUE(reader.summary().clean());
    }
}

// In the ColumnarFile suite because what it checks is the v3 file the
// import writes: the record chain runs on across block boundaries, so
// a multi-block output still carries the v2 footer's checksum, as does
// the in-memory capture the tool converts through.
TEST(ColumnarFile, V2ToV3ConversionPreservesChecksumChain)
{
    // Mixed kinds with jumpy and sequential stretches; two v3 blocks.
    std::vector<trace::Access> records;
    uint64_t pc = 0x400000;
    for (uint64_t i = 0; i < 5000; ++i) {
        if (i % 11 == 0)
            pc = 0x400000 + ((i * 2654435761ULL) & 0x3ffff) * 4;
        bool instr = i % 3 != 0;
        records.push_back({pc, instr, !instr && i % 5 == 0});
        pc += 4;
    }
    uint64_t footer = 0;
    std::string in = writeFile("tc_chain.v2", v2Text(records, footer));
    std::string out = tempPath("tc_chain.v3");
    ASSERT_EQ(runTool(in + " " + out), 0);

    trace::ColumnarTraceReader reader(out);
    EXPECT_EQ(reader.blockCount(), 2u);
    std::vector<trace::Access> read;
    uint64_t chain = trace::traceChecksumSeed;
    reader.replay([&](const trace::Access &a) {
        read.push_back(a);
        chain = trace::traceChecksumStep(chain, kindOf(a), a.addr);
    });
    ASSERT_EQ(read.size(), records.size());
    for (size_t i = 0; i < read.size(); ++i) {
        ASSERT_EQ(read[i].addr, records[i].addr) << "record " << i;
        ASSERT_EQ(kindOf(read[i]), kindOf(records[i])) << "record " << i;
    }
    EXPECT_EQ(chain, footer);
    EXPECT_TRUE(reader.summary().clean());

    trace::ColumnarTraceBuffer buffer;
    for (const auto &a : records)
        buffer.append(a);
    EXPECT_EQ(buffer.checksum(), footer);
}

TEST(TraceConvertCli, BadUsageExits2)
{
    EXPECT_EQ(runTool(""), 2);              // no arguments
    EXPECT_EQ(runTool("only_input.v2"), 2); // missing output
    uint64_t footer = 0;
    std::string in =
        writeFile("tc_usage.v2", v2Text(sampleRecords(), footer));
    std::string out = tempPath("tc_usage.v3");
    EXPECT_EQ(runTool(in + " " + out + " extra"), 2);
    // The tool has no options left: the old --format is bad usage.
    EXPECT_EQ(runTool(in + " " + out + " --format v3"), 2);
    EXPECT_EQ(runTool("--format=v3 " + in), 2);
}

TEST(TraceConvertCli, CorruptInputExits3)
{
    uint64_t footer = 0;
    const std::string valid = v2Text(sampleRecords(), footer);
    const std::string body = valid.substr(0, valid.find("%footer"));
    std::string flipped = valid;
    flipped.replace(flipped.find("1000"), 4, "2000");
    // A v1 file is the v2 layout under a v1 header, without a footer.
    std::string v1 = body;
    v1[v1.find('\n') - 1] = '1';

    // A v3 file is not a v2 input: the import runs one way only.
    std::string v3 = tempPath("tc_v3_input.v3");
    {
        trace::ColumnarTraceWriter writer(v3);
        for (const auto &a : sampleRecords())
            writer.write(a);
    }

    const std::pair<std::string, std::string> cases[] = {
        {"garbage", "this is not a trace\n"},
        {"v1", v1},
        {"missing-footer", body},
        {"malformed-record", body + "2 zz@@\n%footer 17 0\n"},
        {"count-mismatch",
         body + "%footer 15 " + hex(footer) + "\n"},
        {"checksum-mismatch",
         body + "%footer 16 " + hex(footer ^ 1) + "\n"},
        {"flipped-record", flipped},
        {"trailing-data", valid + "0 1000\n"},
    };
    std::vector<std::string> inputs = {v3};
    for (const auto &[name, text] : cases)
        inputs.push_back(writeFile("tc_" + name + ".v2", text));
    for (const auto &in : inputs) {
        std::string out = in + ".out";
        std::filesystem::remove(out);
        EXPECT_EQ(runTool(in + " " + out), 3) << in;
        EXPECT_FALSE(std::filesystem::exists(out)) << in;
    }

    // The message names the line and byte: the header is line 1,
    // sixteen records and the footer follow, so the trailing record
    // is line 19 and starts where the valid file ends.
    std::string log = tempPath("tc_trailing.log");
    ASSERT_EQ(runTool(inputs.back() + " " + tempPath("tc_t.out"), log),
              3);
    std::ifstream in(log);
    std::string message((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(message.find("line 19 (byte " +
                           std::to_string(valid.size()) + ")"),
              std::string::npos)
        << message;
}

TEST(TraceConvertCli, IoErrorExits4)
{
    // An input that does not exist leaves no output behind.
    std::string out = tempPath("tc_io.v3");
    std::filesystem::remove(out);
    EXPECT_EQ(runTool(tempPath("does_not_exist.v2") + " " + out), 4);
    EXPECT_FALSE(std::filesystem::exists(out));
    // Output in a directory that does not exist.
    uint64_t footer = 0;
    std::string in =
        writeFile("tc_io_in.v2", v2Text(sampleRecords(), footer));
    EXPECT_EQ(runTool(in + " /no/such/dir/tc_io.v3"), 4);
}

} // namespace
} // namespace pico
