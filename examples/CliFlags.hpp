/**
 * @file
 * Flag parsing shared by the example tools: every flag takes both
 * `--flag value` and `--flag=value`, list values are comma-separated,
 * and a numeric value must parse whole. A tool reads its numeric
 * flags with numberFlag() and answers the InvalidValue it throws with
 * rejectValue(): one line naming the flag and the value, the usage
 * line, and exit code 2, before any work.
 */

#ifndef PICO_EXAMPLES_CLI_FLAGS_HPP
#define PICO_EXAMPLES_CLI_FLAGS_HPP

#include <charconv>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace pico::cli
{

/** Match `--flag value` or `--flag=value`; fills `value` on match. */
inline bool
flagValue(int argc, char **argv, int &i, const std::string &flag,
          std::string &value)
{
    std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) {
        value = argv[++i];
        return true;
    }
    if (arg.rfind(flag + "=", 0) == 0) {
        value = arg.substr(flag.size() + 1);
        return true;
    }
    return false;
}

/** Split a comma-separated list into its non-empty items. */
inline std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > pos)
            items.push_back(text.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return items;
}

/**
 * Read the whole of `text` as a decimal value of the unsigned type T:
 * no sign, no surrounding text, and no value above T's maximum.
 */
template <typename T>
std::optional<T>
parseUnsigned(const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

/** Read the whole of `text` as a finite, non-negative number. */
inline std::optional<double>
parseNumber(const std::string &text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
        value < 0.0)
        return std::nullopt;
    return value;
}

/** A numeric flag value that does not parse or is below its floor. */
struct InvalidValue
{
    std::string flag;
    std::string value;
};

/**
 * Match `flag` as flagValue() does and read its value whole into
 * `out`: an unsigned integer type through parseUnsigned, double
 * through parseNumber.
 * @throws InvalidValue when the value does not parse or is below
 *         `least`
 */
template <typename T>
bool
numberFlag(int argc, char **argv, int &i, const std::string &flag,
           T &out, std::type_identity_t<T> least = T{})
{
    std::string value;
    if (!flagValue(argc, argv, i, flag, value))
        return false;
    std::optional<T> parsed;
    if constexpr (std::is_floating_point_v<T>)
        parsed = parseNumber(value);
    else
        parsed = parseUnsigned<T>(value);
    if (!parsed || *parsed < least)
        throw InvalidValue{flag, value};
    out = *parsed;
    return true;
}

/** Report an invalid flag value and the usage line; returns the
 *  exit code, 2. */
inline int
rejectValue(const InvalidValue &bad, const char *usage)
{
    std::cerr << "invalid value for " << bad.flag << ": " << bad.value
              << "\n"
              << usage;
    return 2;
}

} // namespace pico::cli

#endif // PICO_EXAMPLES_CLI_FLAGS_HPP
