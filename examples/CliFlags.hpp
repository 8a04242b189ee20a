/**
 * @file
 * Flag parsing shared by the example tools: every flag takes both
 * `--flag value` and `--flag=value`, and list values are
 * comma-separated.
 */

#ifndef PICO_EXAMPLES_CLI_FLAGS_HPP
#define PICO_EXAMPLES_CLI_FLAGS_HPP

#include <string>
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

} // namespace pico::cli

#endif // PICO_EXAMPLES_CLI_FLAGS_HPP
