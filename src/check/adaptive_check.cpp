#include "check/adaptive_check.hpp"

#include <algorithm>

#include "check/reference_adaptive.hpp"
#include "common/hash.hpp"
#include "workloads/trace_ingest.hpp"

namespace dol::check
{

namespace
{

/** The demand-stream fields adaptation must never perturb. Timing and
 *  hit bits legitimately differ (different prefetches land in the
 *  caches); what the program executes may not. */
struct DemandRecord
{
    Pc pc = 0;
    Pc mPc = 0;
    Addr addr = 0;
    bool isLoad = true;
    std::uint64_t value = 0;

    bool
    operator==(const DemandRecord &other) const
    {
        return pc == other.pc && mPc == other.mPc &&
               addr == other.addr && isLoad == other.isLoad &&
               value == other.value;
    }
};

std::vector<DemandRecord>
runDemandStream(const std::vector<TraceRecord> &records,
                const FuzzParams &params, bool adaptive,
                const AdaptiveParams &adapt,
                std::vector<AdaptiveWindowRecord> *log,
                std::string *counters_out)
{
    FuzzHarness harness(records, params, adaptive, adapt);
    if (log)
        harness.tpc->setAdaptiveDecisionLog(log);
    std::vector<DemandRecord> stream;
    harness.sim->setAccessObserver([&](const AccessInfo &access) {
        stream.push_back({access.pc, access.mPc, access.addr,
                          access.isLoad, access.value});
    });
    harness.sim->run();
    if (counters_out)
        *counters_out = harness.countersText();
    return stream;
}

/** Map a fuzz Instr onto one ChampSim record (round-trip check). Reg
 *  ids fold into ChampSim's 1..63 operand space (0 = no operand). */
ChampSimInstr
toChampSim(const Instr &instr, Pc next_ip)
{
    ChampSimInstr out;
    out.ip = instr.pc;
    const auto reg = [](RegId r) -> std::uint8_t {
        return r == kNoReg ? 0
                           : static_cast<std::uint8_t>(
                                 (r % (kNumRegs - 1)) + 1);
    };
    if (instr.isLoad()) {
        out.srcMem[0] = instr.addr;
        out.destRegs[0] = reg(instr.dst);
        out.srcRegs[0] = reg(instr.src1);
    } else if (instr.isStore()) {
        out.destMem[0] = instr.addr;
        out.srcRegs[0] = reg(instr.src1);
        out.srcRegs[1] = reg(instr.src2);
    } else if (instr.isControl()) {
        out.isBranch = true;
        out.branchTaken = instr.taken;
        (void)next_ip;
    } else {
        out.destRegs[0] = reg(instr.dst);
        out.srcRegs[0] = reg(instr.src1);
        out.srcRegs[1] = reg(instr.src2);
    }
    return out;
}

bool
sameChampSim(const ChampSimInstr &a, const ChampSimInstr &b)
{
    std::uint8_t ba[ChampSimInstr::kBytes];
    std::uint8_t bb[ChampSimInstr::kBytes];
    a.pack(ba);
    b.pack(bb);
    return std::equal(ba, ba + ChampSimInstr::kBytes, bb);
}

std::string
describeSlotDiff(const AdaptiveSlotState &prod,
                 const AdaptiveSlotState &ref)
{
    std::string text;
    const auto field = [&](const char *name, std::int64_t p,
                           std::int64_t r) {
        if (p == r)
            return;
        if (!text.empty())
            text += ", ";
        text += std::string(name) + " production " + std::to_string(p) +
                " reference " + std::to_string(r);
    };
    field("degree", prod.degree, ref.degree);
    field("ewmaAcc", prod.ewmaAcc, ref.ewmaAcc);
    field("ewmaCov", prod.ewmaCov, ref.ewmaCov);
    field("ewmaValid", prod.ewmaValid, ref.ewmaValid);
    field("belowStreak", prod.belowStreak, ref.belowStreak);
    field("demoted", prod.demoted, ref.demoted);
    field("probationLeft", prod.probationLeft, ref.probationLeft);
    return text;
}

} // namespace

AdaptiveParams
makeAdaptiveParams(std::uint64_t case_seed)
{
    std::uint64_t state = splitMix64(case_seed ^ 0xada9'7c0de5eedull);
    const auto draw = [&state](std::uint64_t bound) {
        state = splitMix64(state);
        return state % bound;
    };
    AdaptiveParams params;
    // Small windows so short fuzz traces close many of them; every
    // other knob jitters around the production defaults so threshold
    // comparisons get exercised from both sides.
    params.windowAccesses = 32 + 16 * draw(3);
    params.ewmaShift = 1 + static_cast<unsigned>(draw(2));
    params.rampHiPermille = 200 + 100 * static_cast<unsigned>(draw(3));
    params.rampLoPermille = 40 + 20 * static_cast<unsigned>(draw(2));
    params.demoteFloorPermille =
        30 + 15 * static_cast<unsigned>(draw(3));
    params.demoteWindows = 2 + static_cast<unsigned>(draw(3));
    params.probationWindows = 4 + 4 * static_cast<unsigned>(draw(2));
    params.startDegree = 1;
    params.maxDegree = 8u << draw(3);
    params.minWindowIssued = 2 + 2 * draw(3);
    return params;
}

DiffResult
checkAdaptiveTrace(const std::vector<TraceRecord> &records,
                   const FuzzParams &params,
                   const AdaptiveParams &adapt, Mutation mutation)
{
    DiffResult result;
    if (records.empty()) {
        result.ok = false;
        result.check = "precondition";
        result.message = "empty trace";
        return result;
    }

    // Check 1 + 2 setup: one hardwired run, one adaptive run with the
    // window-decision log armed.
    const std::vector<DemandRecord> hardwired = runDemandStream(
        records, params, false, adapt, nullptr, nullptr);
    std::vector<AdaptiveWindowRecord> log;
    std::string first_counters;
    const std::vector<DemandRecord> adaptive = runDemandStream(
        records, params, true, adapt, &log, &first_counters);

    // Check 1: demand-stream identity.
    if (hardwired.size() != adaptive.size()) {
        result.ok = false;
        result.check = "adaptive-demand";
        result.message =
            "hardwired saw " + std::to_string(hardwired.size()) +
            " demand accesses, adaptive " +
            std::to_string(adaptive.size());
        return result;
    }
    for (std::size_t i = 0; i < hardwired.size(); ++i) {
        if (hardwired[i] == adaptive[i])
            continue;
        result.ok = false;
        result.check = "adaptive-demand";
        result.index = i;
        result.message =
            "hardwired pc " + hex(hardwired[i].pc) + " addr " +
            hex(hardwired[i].addr) + ", adaptive pc " +
            hex(adaptive[i].pc) + " addr " + hex(adaptive[i].addr);
        return result;
    }

    // Check 2: window-decision lockstep against the naive reference.
    const std::size_t num_extras = params.numExtras >= 3 ? 3 : 2;
    ReferenceAdaptive reference(adapt, num_extras, mutation);
    for (std::size_t window = 0; window < log.size(); ++window) {
        const AdaptiveWindowRecord &record = log[window];
        const std::vector<AdaptiveSlotState> expected =
            reference.endWindow(record.inputs, record.pressureDelta);
        if (record.outputs.size() != expected.size()) {
            result.ok = false;
            result.check = "adaptive-policy";
            result.index = window;
            result.message =
                "window logged " +
                std::to_string(record.outputs.size()) +
                " slots, reference has " +
                std::to_string(expected.size());
            return result;
        }
        for (std::size_t slot = 0; slot < expected.size(); ++slot) {
            const std::string diff = describeSlotDiff(
                record.outputs[slot], expected[slot]);
            if (diff.empty())
                continue;
            result.ok = false;
            result.check = "adaptive-policy";
            result.index = window;
            result.message = "window " + std::to_string(window) +
                             " slot " + std::to_string(slot) + ": " +
                             diff;
            return result;
        }
    }

    // Check 3: ChampSim round-trip. Every fuzz instruction maps onto
    // one record, survives pack -> unpack bit-exactly, and the decoded
    // stream expands deterministically.
    std::vector<ChampSimInstr> encoded;
    encoded.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Instr instr = records[i].unpack();
        const Pc next_ip =
            records[(i + 1) % records.size()].unpack().pc;
        encoded.push_back(toChampSim(instr, next_ip));
    }
    for (std::size_t i = 0; i < encoded.size(); ++i) {
        std::uint8_t bytes[ChampSimInstr::kBytes];
        encoded[i].pack(bytes);
        const ChampSimInstr decoded = ChampSimInstr::unpack(bytes);
        if (!sameChampSim(encoded[i], decoded)) {
            result.ok = false;
            result.check = "trace-roundtrip";
            result.index = i;
            result.message = "record " + std::to_string(i) + " (ip " +
                             hex(encoded[i].ip) +
                             ") changed across pack/unpack";
            return result;
        }
    }
    {
        TraceIngestStats stats_a;
        TraceIngestStats stats_b;
        const std::vector<Instr> expand_a =
            expandChampSimTrace(encoded, &stats_a);
        const std::vector<Instr> expand_b =
            expandChampSimTrace(encoded, &stats_b);
        bool same = expand_a.size() == expand_b.size() &&
                    stats_a.loads == stats_b.loads &&
                    stats_a.stores == stats_b.stores;
        for (std::size_t i = 0; same && i < expand_a.size(); ++i) {
            same = expand_a[i].pc == expand_b[i].pc &&
                   expand_a[i].addr == expand_b[i].addr &&
                   expand_a[i].value == expand_b[i].value &&
                   expand_a[i].op == expand_b[i].op;
        }
        if (!same) {
            result.ok = false;
            result.check = "trace-roundtrip";
            result.message =
                "expandChampSimTrace is not deterministic (" +
                std::to_string(expand_a.size()) + " vs " +
                std::to_string(expand_b.size()) + " instrs)";
            return result;
        }
    }

    // Check 4: double-run byte determinism of the adaptive counters.
    std::string second_counters;
    (void)runDemandStream(records, params, true, adapt, nullptr,
                          &second_counters);
    if (first_counters != second_counters) {
        result.ok = false;
        result.check = "adaptive-determinism";
        result.message =
            "double-run counter registries differ (" +
            firstDivergence(first_counters, second_counters) + ")";
        return result;
    }

    return result;
}

} // namespace dol::check
