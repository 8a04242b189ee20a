/**
 * @file
 * Final executable image layout: placed blocks with addresses.
 */

#ifndef PICO_LINKER_LINKED_BINARY_HPP
#define PICO_LINKER_LINKED_BINARY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "support/Logging.hpp"

namespace pico::linker
{

/** One basic block placed in the text segment. */
struct PlacedBlock
{
    uint64_t startAddr = 0;
    uint32_t sizeBytes = 0;
};

/**
 * A linked executable for one application/machine pair: every basic
 * block has a final address, and the total text size is known. The
 * ratio of text sizes between two LinkedBinaries for the same
 * application is the paper's dilation coefficient.
 */
class LinkedBinary
{
  public:
    /** Base byte address of the text segment; a multiple of every
     *  feasible (power-of-two) line size, as Lemma 1 requires. */
    static constexpr uint64_t textBase = 0x01000000ULL;

    /** Empty binary; placeholder until assigned from Linker::link. */
    LinkedBinary() = default;

    LinkedBinary(std::string machine_name, uint32_t packet_bytes)
        : machineName_(std::move(machine_name)),
          fetchPacketBytes_(packet_bytes)
    {}

    /** Machine the binary was produced for. */
    const std::string &machineName() const { return machineName_; }

    uint32_t fetchPacketBytes() const { return fetchPacketBytes_; }

    /** Placement of a block. */
    const PlacedBlock &
    block(uint32_t func, uint32_t blk) const
    {
        return placed_.at(func).at(blk);
    }

    size_t numFunctions() const { return placed_.size(); }

    size_t
    numBlocks(uint32_t func) const
    {
        return placed_.at(func).size();
    }

    /** Total text size in bytes, including alignment padding. */
    uint64_t textSize() const { return textSize_; }

    /** @name Mutators used by the Linker. */
    /// @{
    void
    setPlacement(std::vector<std::vector<PlacedBlock>> placed)
    {
        placed_ = std::move(placed);
    }

    void setTextSize(uint64_t size) { textSize_ = size; }
    /// @}

  private:
    std::string machineName_;
    uint32_t fetchPacketBytes_ = 4;
    std::vector<std::vector<PlacedBlock>> placed_;
    uint64_t textSize_ = 0;
};

/**
 * Text dilation of a binary with respect to a reference binary
 * (section 4.1): the ratio of the overall text sizes.
 */
double textDilation(const LinkedBinary &target,
                    const LinkedBinary &reference);

/**
 * The same ratio against a reference text size, for callers that keep
 * only the reference binary's size (a frozen reference set).
 */
double textDilation(const LinkedBinary &target,
                    uint64_t reference_text_bytes);

} // namespace pico::linker

#endif // PICO_LINKER_LINKED_BINARY_HPP
