/**
 * @file
 * The differential harness: production vs. reference, per access.
 *
 * One fuzz case runs three checks over the same seeded trace:
 *
 *  1. Standalone cache differential — the production Cache and the
 *     naive ReferenceCache execute an identical find/touch/insert/
 *     invalidate stream derived from the trace; every hit verdict,
 *     line-metadata read, and eviction victim is diffed.
 *
 *  2. Simulator-coupled differential — the full production pipeline
 *     (TPC composite + two next-line extras) runs the trace while
 *     ReferenceT2 and ReferenceCoordinator consume the identical
 *     access stream through Simulator::setAccessObserver. Per access
 *     the harness diffs: T2 per-instruction state, T2's attempted
 *     prefetch sequence (paired positionally against the emission
 *     records from PrefetchEmitter::setEmitHook, resource verdicts
 *     treated as environment), coordinator ownership, the
 *     instruction->extra binding, and emission attribution (C1 and
 *     the extras may only emit on accesses routed to them).
 *
 *  3. Determinism — the simulator-coupled run repeats from scratch
 *     and the end-of-run counter registry (PR-2's observability
 *     substrate) must match byte for byte.
 *
 * The first divergence stops the case and is reported with its access
 * index, which is what the shrinker minimises against.
 *
 * FuzzHarness is the production side of every trace check, this one
 * and the adaptive checks of adaptive_check.hpp alike.
 */

#ifndef DOL_CHECK_DIFFERENTIAL_HPP
#define DOL_CHECK_DIFFERENTIAL_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz_workload.hpp"
#include "check/mutation.hpp"
#include "core/composite.hpp"
#include "sim/simulator.hpp"

namespace dol::check
{

/**
 * One production run over a fuzz trace: a non-looping ReplayKernel
 * over the records, whose first-touch heap is the heap P1 chases (the
 * fuzz domain gives each address one value), and the case's composite
 * (T2/P1/C1 plus two or three next-line extras), hardwired or, with
 * @p adaptive, under the adaptive coordinator with @p adapt and DRAM
 * window deferrals as its pressure signal.
 */
struct FuzzHarness
{
    FuzzHarness(const std::vector<TraceRecord> &records,
                const FuzzParams &params, bool adaptive = false,
                const AdaptiveParams &adapt = {});

    /** The end-of-run counter registry as text. */
    std::string countersText() const;

    MemoryImage image;
    ReplayKernel kernel;
    std::unique_ptr<CompositePrefetcher> tpc;
    std::unique_ptr<Simulator> sim;
};

/** "0x..." rendering of an address or PC in diff messages. */
std::string hex(std::uint64_t value);

/** First differing line of two counter-registry texts. */
std::string firstDivergence(const std::string &a, const std::string &b);

struct DiffResult
{
    bool ok = true;
    /** Which check diverged: cache / t2 / coordinator / determinism /
     *  precondition. */
    std::string check;
    /** Index of the diverging access (or cache op) in the trace. */
    std::uint64_t index = 0;
    std::string message;

    std::string summary() const;
};

struct CheckConfig
{
    FuzzParams params{};
    Mutation mutation = Mutation::kNone;
};

/** Run every differential check over @p records. */
DiffResult checkTrace(const std::vector<TraceRecord> &records,
                      const CheckConfig &config);

/** Convenience: generate and check one fuzz case. */
DiffResult checkCase(std::uint64_t case_seed,
                     Mutation mutation = Mutation::kNone);

} // namespace dol::check

#endif // DOL_CHECK_DIFFERENTIAL_HPP
