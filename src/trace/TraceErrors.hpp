/**
 * @file
 * Typed trace-layer errors: corrupt input vs. I/O failure.
 *
 * Tools that consume trace files (ColumnarTraceReader's callers,
 * trace_convert's v2 import) need to tell a *corrupt file* (bad
 * magic, unsealed header, corrupt block, checksum mismatch — the file
 * itself is wrong, retrying is pointless) apart from an *I/O failure*
 * (cannot open, map or write — the environment is wrong, the file
 * may be fine).
 * Both derive from FatalError, so existing catch sites and the
 * fatal()-throws contract are unchanged; the subtype only adds
 * discrimination for callers that want distinct exit codes.
 */

#ifndef PICO_TRACE_TRACE_ERRORS_HPP
#define PICO_TRACE_TRACE_ERRORS_HPP

#include <string>
#include <utility>

#include "support/Logging.hpp"

namespace pico::trace
{

/** The trace file's bytes are wrong (corruption, format violation). */
class TraceCorruptionError : public FatalError
{
  public:
    explicit TraceCorruptionError(const std::string &msg)
        : FatalError(msg)
    {}
};

/** The environment failed (open/read/write error), not the bytes. */
class TraceIoError : public FatalError
{
  public:
    explicit TraceIoError(const std::string &msg) : FatalError(msg)
    {}
};

/** fatal()-style reporter throwing TraceCorruptionError. */
template <typename... Args>
[[noreturn]] void
corruptFatal(Args &&...args)
{
    // pico::trace::detail exists (codec helpers), so the logging
    // helpers need full qualification.
    std::string msg =
        pico::detail::concat(std::forward<Args>(args)...);
    pico::detail::emitMessage(LogLevel::Error, "fatal", msg);
    throw TraceCorruptionError(msg);
}

/** fatal()-style reporter throwing TraceIoError. */
template <typename... Args>
[[noreturn]] void
ioFatal(Args &&...args)
{
    std::string msg =
        pico::detail::concat(std::forward<Args>(args)...);
    pico::detail::emitMessage(LogLevel::Error, "fatal", msg);
    throw TraceIoError(msg);
}

} // namespace pico::trace

#endif // PICO_TRACE_TRACE_ERRORS_HPP
