#include "runner/cli.hpp"

#include <algorithm>

namespace dol::runner
{

std::vector<std::string>
splitCommas(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        std::size_t comma = value.find(',', start);
        if (comma == std::string::npos)
            comma = value.size();
        if (comma > start)
            out.push_back(value.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false; // overflow
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

bool
parseUnsignedInRange(const std::string &text, std::uint64_t min,
                     std::uint64_t max, std::uint64_t &out)
{
    std::uint64_t value = 0;
    if (!parseUnsigned(text, value) || value < min || value > max)
        return false;
    out = value;
    return true;
}

bool
parseCoordinatorMode(const std::string &text, bool &adaptive_out)
{
    if (text == "hardwired") {
        adaptive_out = false;
        return true;
    }
    if (text == "adaptive") {
        adaptive_out = true;
        return true;
    }
    return false;
}

bool
parseShard(const std::string &text, std::uint64_t &index_out,
           std::uint64_t &count_out)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos)
        return false;
    std::uint64_t count = 0;
    std::uint64_t index = 0;
    if (!parseUnsignedInRange(text.substr(slash + 1), 1, 65536, count) ||
        !parseUnsignedInRange(text.substr(0, slash), 0, count - 1,
                              index))
        return false;
    index_out = index;
    count_out = count;
    return true;
}

std::string
cellTracePath(const std::string &base, const std::string &workload,
              const std::string &prefetcher, const std::string &variant)
{
    // A '/' (GHB-PC/DC, replay:dir/x.trc) would name a directory.
    std::string cell = workload + "." + prefetcher;
    std::replace(cell.begin(), cell.end(), '/', '-');
    return base + "." + cell + variant;
}

} // namespace dol::runner
