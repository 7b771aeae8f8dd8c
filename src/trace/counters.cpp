#include "trace/counters.hpp"

namespace dol
{

std::uint64_t &
CounterRegistry::counter(std::string_view scope, std::string_view name)
{
    const auto probe = std::make_pair(scope, name);
    auto it = _values.lower_bound(probe);
    if (it == _values.end() || _values.key_comp()(probe, it->first)) {
        it = _values.emplace_hint(
            it, std::make_pair(std::string(scope), std::string(name)),
            0);
    }
    return it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
CounterRegistry::sorted() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(_values.size());
    for (const auto &[key, value] : _values)
        out.emplace_back(key.first + "." + key.second, value);
    return out;
}

std::vector<std::tuple<std::string, std::string, std::uint64_t>>
CounterRegistry::entries() const
{
    std::vector<std::tuple<std::string, std::string, std::uint64_t>>
        out;
    out.reserve(_values.size());
    for (const auto &[key, value] : _values)
        out.emplace_back(key.first, key.second, value);
    return out;
}

std::string
CounterRegistry::toText() const
{
    std::string out;
    for (const auto &[name, value] : sorted()) {
        out += name;
        out.push_back(' ');
        out += std::to_string(value);
        out.push_back('\n');
    }
    return out;
}

} // namespace dol
