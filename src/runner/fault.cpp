#include "runner/fault.hpp"

#include <csignal>
#include <cstdlib>

#include "runner/cli.hpp"

namespace dol::runner
{

const FaultPlan::Site *
FaultPlan::siteFor(std::size_t job_index) const
{
    for (const Site &site : sites) {
        if (site.jobIndex == job_index)
            return &site;
    }
    return nullptr;
}

bool
FaultPlan::parse(const std::string &spec, FaultPlan &out,
                 std::string *error)
{
    const auto fail = [&](const std::string &why) {
        if (error)
            *error = "bad fault plan \"" + spec + "\": " + why;
        return false;
    };

    FaultPlan plan;
    for (const std::string &token : splitCommas(spec)) {
        const std::size_t at = token.find('@');
        if (at == std::string::npos)
            return fail("missing '@' in \"" + token + "\"");

        Site site;
        const std::string kind = token.substr(0, at);
        if (kind == "throw")
            site.kind = Kind::kThrow;
        else if (kind == "hang")
            site.kind = Kind::kHang;
        else if (kind == "abort")
            site.kind = Kind::kAbort;
        else if (kind == "stop")
            site.kind = Kind::kStop;
        else
            return fail("unknown fault kind \"" + kind + "\"");

        std::uint64_t index = 0;
        if (!parseUnsigned(token.substr(at + 1), index))
            return fail("bad cell index in \"" + token + "\"");
        site.jobIndex = static_cast<std::size_t>(index);
        plan.sites.push_back(site);
    }
    if (plan.sites.empty())
        return fail("no fault sites");
    out = std::move(plan);
    return true;
}

namespace
{

std::atomic<bool> g_stop{false};
std::atomic<int> g_stop_signal{0};

extern "C" void
stopSignalHandler(int signo)
{
    // Second signal: the drain is stuck (or the user is impatient) —
    // fall back to the default disposition and die now.
    if (g_stop.exchange(true, std::memory_order_relaxed)) {
        std::signal(signo, SIG_DFL);
        std::raise(signo);
        return;
    }
    g_stop_signal.store(signo, std::memory_order_relaxed);
}

} // namespace

std::atomic<bool> &
signalStopFlag()
{
    return g_stop;
}

int
lastStopSignal()
{
    return g_stop_signal.load(std::memory_order_relaxed);
}

void
installStopHandlers()
{
    std::signal(SIGINT, stopSignalHandler);
    std::signal(SIGTERM, stopSignalHandler);
}

} // namespace dol::runner
