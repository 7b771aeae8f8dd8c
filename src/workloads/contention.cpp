#include "workloads/contention.hpp"

#include "common/log.hpp"
#include "common/rng.hpp"
#include "workloads/suite.hpp"

namespace dol
{

const std::vector<ContentionMix> &
contentionMixes()
{
    static const std::vector<ContentionMix> mixes = {
        {"stream_starves_pchase",
         "aggressive streamer floods the channel a pointer chase "
         "depends on",
         {{"libquantum.syn", "TPC+SPP"},
          {"omnetpp.syn", "PChase"}}},
        {"temporal_quad",
         "four temporal workloads with enlarged composites compete "
         "for bandwidth",
         {{"tempstream.syn", "TPC+SPP+Triangel+PChase"},
          {"shuflist.syn", "TPC+SPP+Triangel+PChase"},
          {"histwalk.syn", "TPC+SPP+Triangel+PChase"},
          {"markovmix.syn", "TPC+SPP+Triangel+PChase"}}},
        {"prefetch_storm_vs_quiet",
         "a four-extra composite storms DRAM next to a quiet ALU core",
         {{"milc.syn", "TPC+SPP+Triangel+PChase"},
          {"ep.syn", "SPP"}}},
        {"hetero_quad",
         "four cores, four distinct prefetchers, four access patterns",
         {{"libquantum.syn", "TPC"},
          {"mcf.syn", "SPP"},
          {"omnetpp.syn", "PChase"},
          {"tempstream.syn", "Triangel"}}},
    };
    return mixes;
}

const ContentionMix &
findContentionMix(const std::string &name)
{
    for (const ContentionMix &mix : contentionMixes()) {
        if (mix.name == name)
            return mix;
    }
    std::string known;
    for (const ContentionMix &mix : contentionMixes()) {
        if (!known.empty())
            known += ", ";
        known += mix.name;
    }
    fatal("unknown contention mix '" + name + "' (known: " + known +
          ")");
}

std::string
mixPrefetcherLabel(const ContentionMix &mix)
{
    std::string label;
    for (const CoreSpec &core : mix.cores) {
        if (!label.empty())
            label += '|';
        label += core.prefetcher.empty() ? "none" : core.prefetcher;
    }
    return label;
}

std::vector<std::vector<CoreSpec>>
makeMixes(unsigned count, std::uint64_t seed,
          const std::string &prefetcher)
{
    const auto &pool = allWorkloads();
    Rng rng(seed);
    std::vector<std::vector<CoreSpec>> mixes;
    for (unsigned m = 0; m < count; ++m) {
        std::vector<CoreSpec> mix;
        for (unsigned c = 0; c < 4; ++c)
            mix.push_back({pool[rng.below(pool.size())].name, prefetcher});
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

} // namespace dol
