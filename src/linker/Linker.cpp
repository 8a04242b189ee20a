#include "linker/Linker.hpp"

#include <algorithm>
#include <numeric>

#include "support/BitUtils.hpp"
#include "support/Logging.hpp"

namespace pico::linker
{

double
textDilation(const LinkedBinary &target, const LinkedBinary &reference)
{
    return textDilation(target, reference.textSize());
}

double
textDilation(const LinkedBinary &target, uint64_t reference_text_bytes)
{
    fatalIf(reference_text_bytes == 0, "reference binary has no text");
    return static_cast<double>(target.textSize()) /
           static_cast<double>(reference_text_bytes);
}

LinkedBinary
Linker::link(const isa::ObjectFile &object) const
{
    fatalIf(object.functions.empty(), "linking an empty object");
    fatalIf(!isPowerOfTwo(object.fetchPacketBytes),
            "fetch packet must be a power of two");

    LinkedBinary bin(object.machineName, object.fetchPacketBytes);

    // Inter-procedural layout: hottest functions first so functions
    // that execute together sit near each other.
    std::vector<size_t> order(object.functions.size());
    std::iota(order.begin(), order.end(), 0);
    if (options_.profileGuidedLayout) {
        std::stable_sort(order.begin(), order.end(),
                         [&object](size_t a, size_t b) {
                             return object.functions[a].callCount >
                                    object.functions[b].callCount;
                         });
    }

    std::vector<std::vector<PlacedBlock>> placed(
        object.functions.size());

    uint64_t cursor = LinkedBinary::textBase;
    for (size_t fi : order) {
        const auto &func = object.functions[fi];
        // Function entries are always fetch-packet aligned.
        cursor = alignUp(cursor, object.fetchPacketBytes);
        auto &blocks = placed[fi];
        blocks.resize(func.blocks.size());
        for (size_t bi = 0; bi < func.blocks.size(); ++bi) {
            const auto &oblk = func.blocks[bi];
            if (options_.alignBranchTargets && oblk.isBranchTarget)
                cursor = alignUp(cursor, object.fetchPacketBytes);
            blocks[bi].startAddr = cursor;
            blocks[bi].sizeBytes = oblk.sizeBytes;
            cursor += oblk.sizeBytes;
        }
    }

    bin.setPlacement(std::move(placed));
    bin.setTextSize(cursor - LinkedBinary::textBase);
    return bin;
}

} // namespace pico::linker
