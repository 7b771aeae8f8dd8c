#include "core/registry.hpp"

#include "common/log.hpp"
#include "prefetch/ampm.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/fdp.hpp"
#include "prefetch/ghb_pcdc.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/pchase.hpp"
#include "prefetch/sms.hpp"
#include "prefetch/spp.hpp"
#include "prefetch/triangel.hpp"
#include "prefetch/vldp.hpp"

namespace dol
{

std::vector<std::string>
monolithicPrefetcherNames()
{
    return {"GHB-PC/DC", "FDP", "VLDP", "SPP", "BOP", "AMPM", "SMS"};
}

std::vector<std::string>
figureEightPrefetcherNames()
{
    auto names = monolithicPrefetcherNames();
    names.push_back("TPC");
    return names;
}

std::unique_ptr<CompositePrefetcher>
makeTpc(const ValueSource *memory,
        const CompositePrefetcher::Config &config)
{
    return std::make_unique<CompositePrefetcher>(memory, config, "TPC");
}

namespace
{

std::unique_ptr<Prefetcher>
makeMonolithic(const std::string &name, const ValueSource *memory)
{
    if (name == "GHB-PC/DC")
        return std::make_unique<GhbPcdcPrefetcher>();
    if (name == "SPP")
        return std::make_unique<SppPrefetcher>();
    if (name == "VLDP")
        return std::make_unique<VldpPrefetcher>();
    if (name == "BOP")
        return std::make_unique<BopPrefetcher>();
    if (name == "FDP")
        return std::make_unique<FdpPrefetcher>();
    if (name == "SMS")
        return std::make_unique<SmsPrefetcher>();
    if (name == "AMPM")
        return std::make_unique<AmpmPrefetcher>();
    if (name == "NextLine")
        return std::make_unique<NextLinePrefetcher>();
    if (name == "Triangel")
        return std::make_unique<TriangelPrefetcher>();
    if (name == "PChase")
        return std::make_unique<PChasePrefetcher>(memory);
    return nullptr;
}

/** Split "A+B+C" into component names. */
std::vector<std::string>
splitExtras(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t plus = list.find('+', start);
        if (plus == std::string::npos) {
            out.push_back(list.substr(start));
            break;
        }
        out.push_back(list.substr(start, plus - start));
        start = plus + 1;
    }
    return out;
}

} // namespace

std::unique_ptr<Prefetcher>
makePrefetcher(const std::string &name, const ValueSource *memory,
               bool adaptive)
{
    if (auto mono = makeMonolithic(name, memory))
        return mono; // monolithics have no coordinator to adapt

    if (name == "T2") {
        CompositePrefetcher::Config config;
        config.enableP1 = false;
        config.enableC1 = false;
        config.adaptive = adaptive;
        return std::make_unique<CompositePrefetcher>(memory, config,
                                                     "T2");
    }
    if (name == "T2P1") {
        CompositePrefetcher::Config config;
        config.enableC1 = false;
        config.adaptive = adaptive;
        return std::make_unique<CompositePrefetcher>(memory, config,
                                                     "T2P1");
    }
    if (name == "TPC") {
        CompositePrefetcher::Config config;
        config.adaptive = adaptive;
        return makeTpc(memory, config);
    }

    constexpr std::string_view composite_prefix = "TPC+";
    constexpr std::string_view shunt_prefix = "SHUNT:TPC+";

    if (name.starts_with(shunt_prefix)) {
        auto shunt = std::make_unique<ShuntPrefetcher>(name);
        shunt->addComponent(makeTpc(memory));
        for (const std::string &extra_name :
             splitExtras(name.substr(shunt_prefix.size()))) {
            auto extra = makeMonolithic(extra_name, memory);
            if (!extra)
                fatal("unknown shunt component: " + extra_name);
            shunt->addComponent(std::move(extra));
        }
        return shunt;
    }

    if (name.starts_with(composite_prefix)) {
        CompositePrefetcher::Config config;
        config.adaptive = adaptive;
        auto tpc = makeTpc(memory, config);
        for (const std::string &extra_name :
             splitExtras(name.substr(composite_prefix.size()))) {
            auto extra = makeMonolithic(extra_name, memory);
            if (!extra)
                fatal("unknown composite component: " + extra_name);
            tpc->addComponent(std::move(extra));
        }
        return tpc;
    }

    fatal("unknown prefetcher: " + name);
}

} // namespace dol
