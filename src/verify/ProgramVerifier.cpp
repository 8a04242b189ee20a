#include "verify/ProgramVerifier.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pico::verify
{

namespace
{

std::string
blockName(const ir::Function &func, uint32_t block)
{
    std::ostringstream os;
    os << "func " << func.name << " block " << block;
    return os.str();
}

void
checkStructure(const ir::Program &prog, Diagnostics &diags)
{
    if (!prog.finalized())
        diags.error("ir.structure", "program " + prog.name,
                    "program has not been finalized");
    if (prog.functions.empty()) {
        diags.error("ir.structure", "program " + prog.name,
                    "program has no functions");
        return;
    }
    if (prog.entryFunction >= prog.functions.size())
        diags.error("ir.structure", "program " + prog.name,
                    "entry function " +
                        std::to_string(prog.entryFunction) +
                        " does not exist (" +
                        std::to_string(prog.functions.size()) +
                        " function(s))");
    for (size_t f = 0; f < prog.functions.size(); ++f) {
        const auto &func = prog.functions[f];
        if (func.blocks.empty())
            diags.error("ir.structure", "func " + func.name,
                        "function has no blocks");
        if (func.id != f)
            diags.error("ir.structure", "func " + func.name,
                        "function id " + std::to_string(func.id) +
                            " does not match its index " +
                            std::to_string(f));
        for (size_t b = 0; b < func.blocks.size(); ++b) {
            if (func.blocks[b].id != b)
                diags.error(
                    "ir.structure", blockName(func, b),
                    "block id " +
                        std::to_string(func.blocks[b].id) +
                        " does not match its index " +
                        std::to_string(b));
        }
    }
}

void
checkEdges(const ir::Program &prog, Diagnostics &diags)
{
    constexpr double probTolerance = 1e-6; // finalize()'s tolerance
    for (const auto &func : prog.functions) {
        for (size_t b = 0; b < func.blocks.size(); ++b) {
            const auto &block = func.blocks[b];
            double sum = 0.0;
            for (const auto &edge : block.succs) {
                if (edge.target >= func.blocks.size())
                    diags.error(
                        "ir.edge-target", blockName(func, b),
                        "edge targets block " +
                            std::to_string(edge.target) +
                            " but the function has only " +
                            std::to_string(func.blocks.size()) +
                            " block(s)");
                if (!std::isfinite(edge.prob) ||
                    edge.prob < 0.0 || edge.prob > 1.0)
                    diags.error(
                        "ir.edge-prob", blockName(func, b),
                        "edge probability " +
                            std::to_string(edge.prob) +
                            " is outside [0, 1]");
                sum += edge.prob;
            }
            if (!block.succs.empty() &&
                std::fabs(sum - 1.0) > probTolerance)
                diags.error("ir.edge-prob", blockName(func, b),
                            "edge probabilities sum to " +
                                std::to_string(sum) +
                                ", expected 1");
        }
    }
}

void
checkOperands(const ir::Program &prog, Diagnostics &diags)
{
    for (const auto &func : prog.functions) {
        for (size_t b = 0; b < func.blocks.size(); ++b) {
            const auto &block = func.blocks[b];
            if (block.callee >= 0 &&
                static_cast<size_t>(block.callee) >=
                    prog.functions.size())
                diags.error("ir.operands", blockName(func, b),
                            "callee " +
                                std::to_string(block.callee) +
                                " does not exist");
            for (size_t o = 0; o < block.ops.size(); ++o) {
                const auto &op = block.ops[o];
                // Named only on error: building the name for every
                // operation was most of the program check's time.
                auto what = [&] {
                    return blockName(func, b) + " op " +
                           std::to_string(o);
                };
                if (op.latency < 1)
                    diags.error("ir.operands", what(),
                                "operation latency must be >= 1");
                if (op.isMem() &&
                    op.streamId >= prog.streams.size())
                    diags.error(
                        "ir.operands", what(),
                        "memory operation references stream " +
                            std::to_string(op.streamId) +
                            " but the program has " +
                            std::to_string(prog.streams.size()) +
                            " stream(s)");
                for (uint16_t dep : op.deps) {
                    if (dep >= o)
                        diags.error(
                            "ir.operands", what(),
                            "dependence on operation " +
                                std::to_string(dep) +
                                " which is not earlier in the "
                                "block");
                }
            }
        }
    }
}

/**
 * Flow conservation of profiling counts. The execution engine
 * increments a block's profileCount on every entry and a function's
 * callCount on every entry of block 0, so two exact invariants hold
 * for every profile — complete or truncated:
 *
 *  - profileCount(entry block) == callCount, by construction;
 *  - a non-entry block is only entered over an intra-function edge,
 *    and each entry of a predecessor exits over at most one edge, so
 *    profileCount(b) <= sum of profileCount over b's predecessors
 *    (truncation only retires fewer exits, preserving <=).
 */
void
checkFlow(const ir::Program &prog, Diagnostics &diags)
{
    for (const auto &func : prog.functions) {
        if (func.blocks.empty())
            continue;
        if (func.blocks[0].profileCount != func.callCount)
            diags.error(
                "ir.flow", blockName(func, 0),
                "entry block entered " +
                    std::to_string(func.blocks[0].profileCount) +
                    " time(s) but the function was called " +
                    std::to_string(func.callCount) + " time(s)");

        std::vector<uint64_t> inflow(func.blocks.size(), 0);
        for (const auto &block : func.blocks) {
            for (const auto &edge : block.succs) {
                if (edge.target < func.blocks.size())
                    inflow[edge.target] += block.profileCount;
            }
        }
        for (size_t b = 1; b < func.blocks.size(); ++b) {
            if (func.blocks[b].profileCount > inflow[b])
                diags.error(
                    "ir.flow", blockName(func, b),
                    "block entered " +
                        std::to_string(func.blocks[b].profileCount) +
                        " time(s) but its predecessors were "
                        "entered only " +
                        std::to_string(inflow[b]) + " time(s)");
        }
    }
}

void
checkStreams(const ir::Program &prog, Diagnostics &diags)
{
    struct Region
    {
        uint64_t lo;
        uint64_t hi;
        size_t index;
    };
    std::vector<Region> regions;
    for (size_t s = 0; s < prog.streams.size(); ++s) {
        const auto &stream = prog.streams[s];
        std::string what = "stream " + std::to_string(s);
        if (stream.sizeWords == 0) {
            diags.error("ir.stream", what,
                        "stream has zero size");
            continue;
        }
        if (prog.finalized()) {
            if (stream.baseAddr < ir::Program::dataBase) {
                diags.error(
                    "ir.stream", what,
                    "base address 0x" +
                        [&] {
                            std::ostringstream os;
                            os << std::hex << stream.baseAddr;
                            return os.str();
                        }() +
                        " is below the data base");
                continue;
            }
            regions.push_back(Region{
                stream.baseAddr,
                stream.baseAddr + stream.sizeWords * 4, s});
        }
    }
    std::sort(regions.begin(), regions.end(),
              [](const Region &a, const Region &b) {
                  return a.lo < b.lo;
              });
    for (size_t i = 1; i < regions.size(); ++i) {
        if (regions[i].lo < regions[i - 1].hi)
            diags.error(
                "ir.stream",
                "stream " + std::to_string(regions[i].index),
                "region overlaps stream " +
                    std::to_string(regions[i - 1].index));
    }
}

} // namespace

bool
verifyProgram(const ir::Program &prog, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    checkStructure(prog, diags);
    checkEdges(prog, diags);
    checkOperands(prog, diags);
    checkFlow(prog, diags);
    checkStreams(prog, diags);
    return diags.errorCount() == before;
}

bool
verifyLayout(const ir::Program &prog,
             const linker::LinkedBinary &bin, Diagnostics &diags)
{
    size_t before = diags.errorCount();
    const uint64_t textBase = linker::LinkedBinary::textBase;
    const uint64_t textEnd = textBase + bin.textSize();
    const uint32_t packet = bin.fetchPacketBytes();

    if (bin.numFunctions() != prog.functions.size()) {
        diags.error("layout.bounds", "binary " + bin.machineName(),
                    "binary places " +
                        std::to_string(bin.numFunctions()) +
                        " function(s) but the program has " +
                        std::to_string(prog.functions.size()));
        return false;
    }
    if (bin.textSize() == 0)
        diags.error("layout.bounds", "binary " + bin.machineName(),
                    "text segment is empty");
    if (packet == 0 || (packet & (packet - 1)) != 0)
        diags.error("layout.align", "binary " + bin.machineName(),
                    "fetch-packet size " + std::to_string(packet) +
                        " is not a power of two");

    // Per-function monotone contiguous placement plus global
    // non-overlap across functions (the linker lays functions out
    // hottest-first, so function order in memory is not function
    // index order).
    struct Extent
    {
        uint64_t lo;
        uint64_t hi;
        std::string what;
    };
    std::vector<Extent> extents;
    for (size_t f = 0; f < bin.numFunctions(); ++f) {
        const auto &func = prog.functions[f];
        size_t blocks = bin.numBlocks(f);
        if (blocks != func.blocks.size()) {
            diags.error("layout.bounds", "func " + func.name,
                        "binary places " + std::to_string(blocks) +
                            " block(s) but the function has " +
                            std::to_string(func.blocks.size()));
            continue;
        }
        if (blocks == 0)
            continue;
        const auto &entry =
            bin.block(static_cast<uint32_t>(f), 0);
        if (packet != 0 && entry.startAddr % packet != 0)
            diags.error("layout.align", blockName(func, 0),
                        "function entry at 0x" +
                            [&] {
                                std::ostringstream os;
                                os << std::hex << entry.startAddr;
                                return os.str();
                            }() +
                            " is not fetch-packet aligned");
        uint64_t cursor = entry.startAddr;
        uint64_t funcEnd = entry.startAddr;
        for (size_t b = 0; b < blocks; ++b) {
            const auto &placed = bin.block(
                static_cast<uint32_t>(f),
                static_cast<uint32_t>(b));
            if (placed.startAddr < cursor)
                diags.error(
                    "layout.monotone", blockName(func, b),
                    "block at 0x" +
                        [&] {
                            std::ostringstream os;
                            os << std::hex << placed.startAddr;
                            return os.str();
                        }() +
                        " overlaps or precedes the previous "
                        "block of its function");
            cursor = placed.startAddr + placed.sizeBytes;
            funcEnd = std::max(funcEnd, cursor);
            if (placed.startAddr < textBase || cursor > textEnd)
                diags.error("layout.bounds", blockName(func, b),
                            "block lies outside the text segment");
        }
        extents.push_back(
            Extent{entry.startAddr, funcEnd, "func " + func.name});
    }
    std::sort(extents.begin(), extents.end(),
              [](const Extent &a, const Extent &b) {
                  return a.lo < b.lo;
              });
    for (size_t i = 1; i < extents.size(); ++i) {
        if (extents[i].lo < extents[i - 1].hi)
            diags.error("layout.monotone", extents[i].what,
                        "function body overlaps " +
                            extents[i - 1].what);
    }
    return diags.errorCount() == before;
}

} // namespace pico::verify
