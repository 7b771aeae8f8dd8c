/**
 * @file
 * Per-component counter registry.
 *
 * A CounterRegistry is a flat namespace of (scope, name) -> uint64
 * counters: scopes group counters by the component or layer that owns
 * them ("T2", "P1", "C1", "mem.L1", "core", "trace"). The registry is
 * harvested once at end of run — components keep plain member
 * counters on the hot path and export them here — so disabled-tracing
 * runs pay nothing. Serialization is sorted by (scope, name), making
 * two runs of the same cell produce byte-identical counter text.
 *
 * Values live in the ordered map's nodes, so the reference counter()
 * returns stays valid for the registry's lifetime.
 */

#ifndef DOL_TRACE_COUNTERS_HPP
#define DOL_TRACE_COUNTERS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace dol
{

class CounterRegistry
{
  public:
    /** Find-or-create; the reference stays valid for the registry's
     *  lifetime. No allocation when the counter already exists. */
    std::uint64_t &counter(std::string_view scope,
                           std::string_view name);

    /** Shorthand for harvest sites: overwrite with @p value. */
    void
    set(std::string_view scope, std::string_view name,
        std::uint64_t value)
    {
        counter(scope, name) = value;
    }

    bool empty() const { return _values.empty(); }
    std::size_t size() const { return _values.size(); }

    /** All counters, sorted by (scope, name), flattened "scope.name". */
    std::vector<std::pair<std::string, std::uint64_t>> sorted() const;

    /** All counters as (scope, name, value), sorted by (scope, name).
     *  Unlike sorted(), keeps the two key parts separate so a registry
     *  can be reconstructed exactly (checkpoint journal round trip). */
    std::vector<std::tuple<std::string, std::string, std::uint64_t>>
    entries() const;

    /** One "scope.name value\n" line per counter, sorted. */
    std::string toText() const;

    void clear() { _values.clear(); }

  private:
    /** Heterogeneous comparator: lets lookups probe with string_views
     *  so counter() copies nothing on the hit path. */
    struct KeyLess
    {
        using is_transparent = void;

        template <typename A, typename B, typename C, typename D>
        bool
        operator()(const std::pair<A, B> &lhs,
                   const std::pair<C, D> &rhs) const
        {
            const int scope_order =
                std::string_view(lhs.first)
                    .compare(std::string_view(rhs.first));
            if (scope_order != 0)
                return scope_order < 0;
            return std::string_view(lhs.second) <
                   std::string_view(rhs.second);
        }
    };

    std::map<std::pair<std::string, std::string>, std::uint64_t,
             KeyLess>
        _values;
};

} // namespace dol

#endif // DOL_TRACE_COUNTERS_HPP
