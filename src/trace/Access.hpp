/**
 * @file
 * Address-trace element and trace-kind selector.
 */

#ifndef PICO_TRACE_ACCESS_HPP
#define PICO_TRACE_ACCESS_HPP

#include <cstdint>

namespace pico::trace
{

/** One memory reference in an address trace. Addresses are bytes;
 *  every reference is word (4-byte) aligned. */
struct Access
{
    uint64_t addr = 0;
    bool isInstr = false;
    bool isWrite = false;
};

/** Record-kind codes: the kind column of a columnar trace. */
constexpr uint8_t kindRead = 0;        ///< data read
constexpr uint8_t kindWrite = 1;       ///< data write
constexpr uint8_t kindInstruction = 2; ///< instruction fetch

/** The record-kind code of one reference. */
constexpr uint8_t
recordKind(const Access &a)
{
    return a.isInstr ? kindInstruction : (a.isWrite ? kindWrite : kindRead);
}

/** Which address stream the trace generator should produce. */
enum class TraceKind : uint8_t
{
    Instruction, ///< instruction fetches only (drives the I-cache)
    Data,        ///< loads/stores only (drives the D-cache)
    Unified,     ///< both, interleaved in program order (L2)
};

} // namespace pico::trace

#endif // PICO_TRACE_ACCESS_HPP
