/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a bug in this library), fatal() is for conditions caused
 * by the caller (bad configuration, invalid arguments), and
 * warn()/inform() provide non-fatal status output.
 *
 * Every line carries a monotonic timestamp (seconds since the first
 * log/metric event of the process) and a severity tag:
 *
 *     [   12.345] warn: cannot write evaluation cache 'walk.db.tmp'
 *
 * A minimum severity filters output — parallel walks can run quiet.
 * It defaults to Info, is read once from PICOEVAL_LOG_LEVEL
 * (debug|info|warn|error|silent) and can be changed at runtime with
 * setLogLevel(). panic()/fatal() always throw; the filter only
 * decides whether their message is also printed.
 */

#ifndef PICO_SUPPORT_LOGGING_HPP
#define PICO_SUPPORT_LOGGING_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace pico
{

/** Message severities, in increasing order. */
enum class LogLevel
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    /** Suppresses everything, including panic/fatal messages. */
    Silent = 4,
};

/** Current minimum severity printed. */
LogLevel logLevel();

/** Override the minimum severity (wins over PICOEVAL_LOG_LEVEL). */
void setLogLevel(LogLevel level);

/**
 * Callback invoked (once, before the throw) by every panic()/fatal()
 * with the severity label and message. Servers install one to dump
 * the flight recorder at the moment of death. The hook runs on the
 * failing thread; exceptions it throws are swallowed, and a hook
 * that itself panics does not recurse.
 */
using FatalHook = void (*)(const char *label, const std::string &msg);

/** Install (or clear, with nullptr) the process-wide fatal hook. */
void setFatalHook(FatalHook hook);

/** Exception thrown by panic(); signals an internal library bug. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Exception thrown by fatal(); signals a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail
{

/** Concatenate all arguments into one string via an ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/**
 * Emit a labelled message on stderr when `level` passes the minimum
 * severity, prefixed with the monotonic timestamp.
 */
void emitMessage(LogLevel level, const char *label,
                 const std::string &msg);

/** Run the installed FatalHook, guarding against recursion. */
void notifyFatal(const char *label, const std::string &msg);

} // namespace detail

/**
 * Report an internal error that should never happen regardless of what
 * the user does. Throws PanicError so tests can observe it.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::string msg = detail::concat(std::forward<Args>(args)...);
    detail::emitMessage(LogLevel::Error, "panic", msg);
    detail::notifyFatal("panic", msg);
    throw PanicError(msg);
}

/**
 * Report an unrecoverable condition that is the caller's fault (bad
 * configuration, invalid arguments). Throws FatalError.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string msg = detail::concat(std::forward<Args>(args)...);
    detail::emitMessage(LogLevel::Error, "fatal", msg);
    detail::notifyFatal("fatal", msg);
    throw FatalError(msg);
}

/** Alert the user to behavior that might indicate a problem. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() > LogLevel::Warn)
        return;
    detail::emitMessage(LogLevel::Warn, "warn",
                        detail::concat(std::forward<Args>(args)...));
}

/** Provide a normal, informative status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() > LogLevel::Info)
        return;
    detail::emitMessage(LogLevel::Info, "info",
                        detail::concat(std::forward<Args>(args)...));
}

/** panic() unless the given condition holds. */
template <typename... Args>
void
panicIf(bool condition, Args &&...args)
{
    if (condition)
        panic(std::forward<Args>(args)...);
}

/** fatal() unless the given condition holds. */
template <typename... Args>
void
fatalIf(bool condition, Args &&...args)
{
    if (condition)
        fatal(std::forward<Args>(args)...);
}

} // namespace pico

#endif // PICO_SUPPORT_LOGGING_HPP
