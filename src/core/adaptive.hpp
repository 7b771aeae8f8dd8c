/**
 * @file
 * AdaptiveCoordinator: feedback-driven coordination policy for the
 * composite prefetcher (ROADMAP item 2).
 *
 * The paper's coordinator is hardwired: T2 -> P1 -> C1 claim priority
 * and whatever degree each component was configured with. This module
 * adds an opt-in mode (`dolsim --coordinator adaptive`) that keeps the
 * hardwired structure but closes three feedback loops over it:
 *
 *  1. Per-slot effective-accuracy and coverage EWMAs, accumulated in
 *     fixed windows of demand accesses from the same issued/used
 *     signals the throttle bookkeeping already tracks.
 *  2. A slow-start degree schedule for every bound extra: the emission
 *     budget starts at 1 per training call, doubles while the accuracy
 *     EWMA stays above a threshold, and halves on inaccuracy or on
 *     DRAM window-deferral pressure (the PR 7 bandwidth counters,
 *     observed through a pressure probe).
 *  3. Online re-binding of claim priority: a claimant (T2/P1/C1) whose
 *     accuracy EWMA sits below a floor for K consecutive windows is
 *     demoted — its claims are ignored and its emissions blocked, so
 *     its accesses fall through to the extras — then re-admitted after
 *     a probation period.
 *
 * Everything is integer arithmetic (per-mille ratios, shift-based
 * EWMAs): decisions are bit-identical across platforms and `--jobs`
 * counts, which the differential checker and the golden harness rely
 * on. The decision sequence per closed window is fixed and documented
 * on endWindow(); `src/check/reference_adaptive.hpp` re-implements it
 * naively and `--fuzz-adaptive` diffs the two per window.
 *
 * Adaptation is observer-side only: it reads demand-stream feedback
 * and changes nothing but prefetch issue (budgets and claim routing),
 * so the demand stream itself is invariant between the hardwired and
 * adaptive modes — the property the differential campaign asserts.
 */

#ifndef DOL_CORE_ADAPTIVE_HPP
#define DOL_CORE_ADAPTIVE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mem/cache.hpp" // ComponentId

namespace dol
{

class TraceContext;
class CounterRegistry;

/** Tuning knobs for the adaptive coordinator. All thresholds are
 *  per-mille so the policy never touches floating point. */
struct AdaptiveParams
{
    /** Demand accesses per decision window. */
    std::uint64_t windowAccesses = 256;
    /** EWMA smoothing: ewma += (sample - ewma) >> shift. */
    unsigned ewmaShift = 1;
    /** Double an extra's degree at/above this accuracy EWMA. */
    unsigned rampHiPermille = 300;
    /** Halve an extra's degree below this accuracy EWMA. */
    unsigned rampLoPermille = 60;
    /** Demote a claimant below this accuracy EWMA... */
    unsigned demoteFloorPermille = 40;
    /** ...for this many consecutive windows (the K in the tests). */
    unsigned demoteWindows = 4;
    /** Windows a demoted claimant sits out before re-admission. */
    unsigned probationWindows = 16;
    /** Slow-start initial degree for every extra. */
    unsigned startDegree = 1;
    /** Degree ramp ceiling. */
    unsigned maxDegree = 32;
    /** Windows with fewer issues than this yield no accuracy verdict. */
    std::uint64_t minWindowIssued = 8;
};

/** One slot's window observation (inputs to the window decision). */
struct AdaptiveWindowInput
{
    std::uint64_t issued = 0;
    std::uint64_t used = 0;
};

/** One slot's policy state after a window decision. */
struct AdaptiveSlotState
{
    std::uint32_t degree = 0;      ///< extras: current emission budget
    std::int32_t ewmaAcc = 0;      ///< accuracy EWMA, per-mille
    std::int32_t ewmaCov = 0;      ///< coverage EWMA, per-mille
    bool ewmaValid = false;        ///< accuracy EWMA has a sample
    std::uint32_t belowStreak = 0; ///< claimants: consecutive bad windows
    bool demoted = false;          ///< claimants: claims ignored
    std::uint32_t probationLeft = 0;
};

/**
 * One closed window, as logged for the differential checker: the raw
 * inputs, the pressure-probe delta, and the post-decision state of
 * every slot. The reference model replays `inputs`/`pressureDelta`
 * through its own naive policy and diffs `outputs`.
 */
struct AdaptiveWindowRecord
{
    std::vector<AdaptiveWindowInput> inputs;
    std::uint64_t pressureDelta = 0;
    std::vector<AdaptiveSlotState> outputs;
};

class AdaptiveCoordinator
{
  public:
    /** Fixed claimant slots; extras are appended after these. */
    static constexpr std::size_t kSlotT2 = 0;
    static constexpr std::size_t kSlotP1 = 1;
    static constexpr std::size_t kSlotC1 = 2;
    static constexpr std::size_t kFirstExtraSlot = 3;

    /** Budget value meaning "no cap" (claimants in good standing). */
    static constexpr std::uint32_t kUnlimited = 0xffffffffu;

    explicit AdaptiveCoordinator(const AdaptiveParams &params);

    /** Append one extra slot (mirrors CompositePrefetcher::addComponent). */
    void addExtra();

    std::size_t numExtras() const
    {
        return _slots.size() - kFirstExtraSlot;
    }

    /** Emission budget for one training/fill call into this slot. */
    std::uint32_t
    budgetFor(std::size_t slot) const
    {
        const Slot &s = _slots[slot];
        if (slot >= kFirstExtraSlot)
            return s.state.degree;
        return s.state.demoted ? 0 : kUnlimited;
    }

    bool demoted(std::size_t slot) const
    {
        return _slots[slot].state.demoted;
    }

    std::uint32_t degree(std::size_t slot) const
    {
        return _slots[slot].state.degree;
    }

    const AdaptiveSlotState &slotState(std::size_t slot) const
    {
        return _slots[slot].state;
    }

    // Feedback inputs ----------------------------------------------
    void
    recordIssued(std::size_t slot, std::uint64_t count)
    {
        _slots[slot].issuedWindow += count;
    }

    void recordUsed(std::size_t slot) { ++_slots[slot].usedWindow; }

    void
    recordThrottled(std::size_t slot, std::uint64_t count)
    {
        _slots[slot].throttledTotal += count;
    }

    /** Cumulative DRAM window-deferral count (PR 7 bandwidth caps);
     *  the per-window delta is the pressure signal. Unset = no
     *  pressure feedback. */
    void setPressureProbe(std::function<std::uint64_t()> probe)
    {
        _pressureProbe = std::move(probe);
    }

    /** Component ids per slot, for trace-event attribution. */
    void setSlotComponent(std::size_t slot, ComponentId comp)
    {
        _slots[slot].comp = comp;
    }

    void setTraceContext(TraceContext *trace) { _trace = trace; }

    /** Mirror every window decision into @p log (differential checker;
     *  nullptr = off, the default). */
    void setDecisionLog(std::vector<AdaptiveWindowRecord> *log)
    {
        _decisionLog = log;
    }

    /**
     * Count one demand access; closes the window (and runs the
     * decision sequence) every windowAccesses calls.
     */
    void
    onAccess(Cycle when)
    {
        if (++_accessInWindow >= _params.windowAccesses)
            endWindow(when);
    }

    std::uint64_t windows() const { return _windows; }

    /** Export all policy state under the `adapt.` scope. */
    void exportCounters(CounterRegistry &registry) const;

  private:
    struct Slot
    {
        AdaptiveSlotState state;
        std::uint64_t issuedWindow = 0;
        std::uint64_t usedWindow = 0;
        std::uint64_t issuedTotal = 0;
        std::uint64_t usedTotal = 0;
        std::uint64_t throttledTotal = 0;
        ComponentId comp = kNoComponent;
    };

    /**
     * Close one window. The decision sequence — fixed, and mirrored
     * verbatim by ReferenceAdaptive — is, for each slot in index
     * order:
     *
     *   1. coverage EWMA <- min(1000, used * 1000 / windowAccesses)
     *   2. if issued >= minWindowIssued:
     *        accuracy EWMA <- min(1000, used * 1000 / issued)
     *   3. extras: pressure halving first (pressureDelta > 0), else
     *      ramp double at/above rampHi (on the sticky EWMA, no fresh
     *      verdict needed — a sparse but accurate extra must not be
     *      starved by its own slow start), else halve below rampLo
     *      (only with an accuracy verdict this window: stale
     *      inaccuracy must not keep punishing a quiet component).
     *   4. claimants: tick probation if demoted (re-admit at zero,
     *      resetting streak and accuracy history); otherwise extend or
     *      reset the below-floor streak and demote at K.
     */
    void endWindow(Cycle when);

    void updateEwma(std::int32_t &ewma, bool &valid,
                    std::int32_t sample) const;

    AdaptiveParams _params;
    std::vector<Slot> _slots;
    std::uint64_t _accessInWindow = 0;
    std::uint64_t _windows = 0;
    std::uint64_t _lastPressure = 0;
    bool _pressurePrimed = false;
    std::function<std::uint64_t()> _pressureProbe;
    TraceContext *_trace = nullptr;
    std::vector<AdaptiveWindowRecord> *_decisionLog = nullptr;

    // Lifetime tallies for the `adapt.` counter scope.
    std::uint64_t _ramps = 0;
    std::uint64_t _halvings = 0;
    std::uint64_t _pressureHalvings = 0;
    std::uint64_t _demotions = 0;
    std::uint64_t _readmits = 0;
};

} // namespace dol

#endif // DOL_CORE_ADAPTIVE_HPP
