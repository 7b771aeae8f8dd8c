/**
 * @file
 * Deterministic fault injection and graceful-stop plumbing for sweeps.
 *
 * A FaultPlan is parsed from a compact spec string and names, per job
 * index, a fault to inject into the worker executing that job:
 *
 *   throw@K        throw from cell K (exercises quarantine)
 *   hang@K         spin at cell K until the cancel token fires
 *                  (exercises --cell-timeout and signal drain)
 *   abort@K        die with std::_Exit at cell K — no unwinding, no
 *                  buffered-file flushing, exactly like SIGKILL
 *                  (exercises crash-safe checkpoint recovery)
 *   stop@K         raise the sweep's stop flag as cell K starts
 *                  (deterministic, in-process stand-in for SIGTERM)
 *
 * Sites combine with commas ("throw@1,hang@3"). Everything is a
 * pure function of the spec + the deterministic job order, so fault
 * tests replay bit-identically from a seed. A fault fires every time
 * its cell runs: there is no in-process retry, and a `--resume` run
 * without the plan is what re-runs a quarantined cell.
 *
 * The same header hosts the process-wide stop flag that dolsim's
 * SIGINT/SIGTERM handlers set: installStopHandlers() is idempotent,
 * the handlers only touch atomics (async-signal-safe), and a second
 * signal restores the default disposition and re-raises so a stuck
 * drain can always be forced down.
 */

#ifndef DOL_RUNNER_FAULT_HPP
#define DOL_RUNNER_FAULT_HPP

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dol::runner
{

struct FaultPlan
{
    enum class Kind
    {
        kThrow,
        kHang,
        kAbort,
        kStop,
    };

    struct Site
    {
        Kind kind = Kind::kThrow;
        std::size_t jobIndex = 0;
    };

    std::vector<Site> sites;

    bool empty() const { return sites.empty(); }

    /** First site for @p job_index, or nullptr. */
    const Site *siteFor(std::size_t job_index) const;

    /**
     * Parse a spec string ("throw@2", "hang@1,abort@4").
     * @return false + error message on a malformed spec.
     */
    static bool parse(const std::string &spec, FaultPlan &out,
                      std::string *error = nullptr);
};

/**
 * Process-wide stop flag for graceful drain. Signal handlers set it;
 * sweeps and fuzz campaigns observe it through SweepOptions::stopFlag.
 */
std::atomic<bool> &signalStopFlag();

/** Signal number that raised the stop flag (0 if none yet). */
int lastStopSignal();

/**
 * Install SIGINT/SIGTERM handlers that raise the stop flag (first
 * signal) and restore the default action + re-raise (second signal).
 * Idempotent; call from tools, never from library code.
 */
void installStopHandlers();

} // namespace dol::runner

#endif // DOL_RUNNER_FAULT_HPP
