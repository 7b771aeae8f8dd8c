#include "check/fuzz_workload.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace dol::check
{

std::uint64_t
caseSeed(std::uint64_t campaign_seed, std::uint64_t index)
{
    return splitMix64(campaign_seed ^ splitMix64(index + 1));
}

FuzzParams
makeFuzzParams(std::uint64_t case_seed)
{
    Rng rng(splitMix64(case_seed ^ 0xF00Dull));
    FuzzParams params;
    params.t2.strideThreshold =
        static_cast<unsigned>(rng.range(2, 20));
    params.t2.earlyThreshold = static_cast<unsigned>(rng.range(1, 6));
    params.t2.nonStrideThreshold =
        static_cast<unsigned>(rng.range(1, 6));
    params.t2.defaultDistance = static_cast<unsigned>(rng.range(1, 16));
    params.t2.maxCatchup = static_cast<unsigned>(rng.range(1, 8));
    // Per-case component mix: each optional expert is sometimes off,
    // so the coordinator's fallthrough paths all get fuzzed. With C1
    // off, written-off instructions reach the extras after only a few
    // accesses, which keeps rebinding reproducers short.
    params.enableP1 = rng.chance(0.7);
    params.enableC1 = rng.chance(0.6);
    params.extraDegree2 = static_cast<unsigned>(rng.range(1, 3));
    params.opSeed = splitMix64(case_seed ^ 0xCACEull);
    // Appended draws only below this line: earlier draws must keep
    // consuming the same rng prefix so a case seed's historical
    // parameters stay stable.
    params.numExtras = rng.chance(0.5) ? 3 : 2;
    params.extraDegree3 = static_cast<unsigned>(rng.range(1, 3));
    params.temporalSlot = rng.chance(0.7);
    return params;
}

namespace
{

/** One interleaved pattern generator slot. */
struct Slot
{
    enum class Kind
    {
        kStride,
        kChase,
        kDense,
        kZigzag,
        kRandom,
        kPtrArray,
        kTemporal,
    };

    Kind kind;
    Pc pc = 0;
    Pc pc2 = 0; ///< dependent PC (kPtrArray) / second PC (kZigzag)

    // kStride
    Addr base = 0;
    std::int64_t delta = 0;
    std::uint64_t position = 0;
    std::uint64_t burstLimit = 0;

    // kChase
    std::vector<Addr> nodes;
    std::vector<std::uint64_t> values;
    std::int64_t chainDelta = 0;

    // kDense
    Addr region = 0;
    std::vector<unsigned> lineOrder;
    std::size_t linePos = 0;
    unsigned touches = 0;

    // kPtrArray
    Addr arrayBase = 0;
    std::int64_t ptrDelta = 0;
};

std::int64_t
pickStrideDelta(Rng &rng)
{
    static constexpr std::int64_t kPalette[] = {8,   16,  -16, 64,
                                                -64, 128, 192, -192,
                                                24,  -8,  1024};
    return kPalette[rng.below(std::size(kPalette))];
}

std::uint64_t
pickBurstLimit(Rng &rng, const T2Prefetcher::Params &t2)
{
    // Run lengths deliberately straddle the confirmation and early
    // thresholds so state transitions land on boundary accesses.
    switch (rng.below(7)) {
      case 0:
        return t2.earlyThreshold > 1 ? t2.earlyThreshold - 1 : 1;
      case 1:
        return t2.earlyThreshold + 1;
      case 2:
        return t2.strideThreshold > 1 ? t2.strideThreshold - 1 : 1;
      case 3:
        return t2.strideThreshold;
      case 4:
        return t2.strideThreshold + 2;
      case 5:
        return t2.strideThreshold + t2.nonStrideThreshold + 4;
      default:
        return rng.range(3, 40);
    }
}

} // namespace

std::vector<TraceRecord>
makeFuzzTrace(std::uint64_t case_seed, const FuzzParams &params)
{
    Rng rng(case_seed);
    std::vector<Slot> slots;
    Pc next_pc = 0x1000;
    const auto take_pc = [&] {
        const Pc pc = next_pc;
        next_pc += 0x40;
        return pc;
    };

    const std::uint64_t stride_slots = rng.range(2, 4);
    for (std::uint64_t i = 0; i < stride_slots; ++i) {
        Slot slot;
        slot.kind = Slot::Kind::kStride;
        slot.pc = take_pc();
        slot.base = 0x100000 + rng.below(1024) * kRegionBytes;
        slot.delta = pickStrideDelta(rng);
        slot.burstLimit = pickBurstLimit(rng, params.t2);
        slots.push_back(std::move(slot));
    }

    if (rng.chance(0.8)) {
        Slot slot;
        slot.kind = Slot::Kind::kChase;
        slot.pc = take_pc();
        slot.chainDelta =
            static_cast<std::int64_t>(rng.below(3)) * 8;
        const std::uint64_t nodes = rng.range(8, 24);
        while (slot.nodes.size() < nodes) {
            // A node drawn twice would load two different successors;
            // redraw it, so each address keeps one value.
            const Addr node = 0x40000000 +
                              rng.below(1u << 16) * kLineBytes +
                              rng.below(8) * 8;
            if (std::find(slot.nodes.begin(), slot.nodes.end(), node) ==
                slot.nodes.end()) {
                slot.nodes.push_back(node);
            }
        }
        for (std::uint64_t i = 0; i < nodes; ++i) {
            // Node i's loaded value leads to node i+1 (wrapping), so
            // the chain is coherent: next_addr = value + chainDelta.
            const Addr next = slot.nodes[(i + 1) % nodes];
            slot.values.push_back(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(next) - slot.chainDelta));
        }
        slots.push_back(std::move(slot));
    }

    {
        Slot slot;
        slot.kind = Slot::Kind::kDense;
        slot.pc = take_pc();
        slots.push_back(std::move(slot));
    }
    {
        Slot slot;
        slot.kind = Slot::Kind::kZigzag;
        slot.pc = take_pc();
        slot.pc2 = take_pc();
        slots.push_back(std::move(slot));
    }
    {
        Slot slot;
        slot.kind = Slot::Kind::kRandom;
        slot.pc = take_pc();
        slots.push_back(std::move(slot));
    }
    if (params.enableP1 && rng.chance(0.3)) {
        Slot slot;
        slot.kind = Slot::Kind::kPtrArray;
        slot.pc = take_pc();
        slot.pc2 = take_pc();
        slot.arrayBase = 0x20000000 + rng.below(256) * kRegionBytes;
        slot.ptrDelta = static_cast<std::int64_t>(rng.below(3)) * 8;
        slots.push_back(std::move(slot));
    }
    if (params.temporalSlot) {
        // A short scattered sequence revisited cyclically: no stride,
        // no region density, no pointer values — just recurrence. It
        // stays unclaimed, so it lands on an extra binding and keeps
        // re-hitting prefetched lines, stirring the rebinding paths.
        Slot slot;
        slot.kind = Slot::Kind::kTemporal;
        slot.pc = take_pc();
        const std::uint64_t length = rng.range(8, 24);
        for (std::uint64_t i = 0; i < length; ++i) {
            slot.nodes.push_back(0xA0000000 +
                                 rng.below(1u << 16) * kLineBytes);
        }
        slots.push_back(std::move(slot));
    }

    std::vector<TraceRecord> records;
    const std::uint64_t total = 1500 + rng.below(1500);
    const auto emit = [&](const Instr &instr) {
        records.push_back(TraceRecord::pack(instr));
    };

    std::size_t chase_pos = 0;
    std::uint64_t ptr_index = 0;
    while (records.size() < total) {
        Slot &slot = slots[rng.below(slots.size())];
        switch (slot.kind) {
          case Slot::Kind::kStride: {
            const Addr addr = static_cast<Addr>(
                static_cast<std::int64_t>(slot.base) +
                slot.delta *
                    static_cast<std::int64_t>(slot.position));
            if (rng.chance(0.1))
                emit(makeStore(slot.pc, addr, 0, 2, 3));
            else
                emit(makeLoad(slot.pc, addr, 0, 2, 3));
            if (++slot.position >= slot.burstLimit) {
                slot.position = 0;
                slot.base = 0x100000 + rng.below(1024) * kRegionBytes;
                if (rng.chance(0.5))
                    slot.delta = pickStrideDelta(rng);
                slot.burstLimit = pickBurstLimit(rng, params.t2);
            }
            break;
          }

          case Slot::Kind::kChase: {
            const std::size_t i = chase_pos % slot.nodes.size();
            emit(makeLoad(slot.pc, slot.nodes[i], slot.values[i], 40,
                          40));
            ++chase_pos;
            break;
          }

          case Slot::Kind::kDense: {
            if (slot.linePos >= slot.lineOrder.size()) {
                // Next region: touch `touches` distinct lines, in a
                // seeded order, straddling C1's density threshold.
                slot.region = 0x80000000 +
                              rng.below(1u << 14) * kRegionBytes;
                static constexpr unsigned kTouches[] = {4,  5,  6, 7,
                                                        8,  12, 16};
                slot.touches = kTouches[rng.below(std::size(kTouches))];
                slot.lineOrder.clear();
                for (unsigned line = 0; line < kRegionLineCount;
                     ++line) {
                    slot.lineOrder.push_back(line);
                }
                for (std::size_t j = slot.lineOrder.size(); j > 1;
                     --j) {
                    std::swap(slot.lineOrder[j - 1],
                              slot.lineOrder[rng.below(j)]);
                }
                slot.lineOrder.resize(slot.touches);
                slot.linePos = 0;
            }
            const Addr addr =
                slot.region +
                slot.lineOrder[slot.linePos++] * kLineBytes;
            if (rng.chance(0.15))
                emit(makeStore(slot.pc, addr, 0, 4, 5));
            else
                emit(makeLoad(slot.pc, addr, 0, 4, 5));
            break;
          }

          case Slot::Kind::kZigzag: {
            // A pair landing on the extras' next-line predictions:
            // the second access hits a line an extra prefetched,
            // which is the coordinator's rebinding trigger.
            const Addr base =
                0xC0000000 + rng.below(1u << 15) * kRegionBytes;
            emit(makeLoad(slot.pc, base, 0, 6, 7));
            emit(makeLoad(slot.pc2, base + kLineBytes, 0, 6, 7));
            break;
          }

          case Slot::Kind::kRandom: {
            const Addr addr =
                0xE0000000 + rng.below(1u << 20) * kLineBytes;
            if (rng.chance(0.2))
                emit(makeStore(slot.pc, addr, 0, 8, 9));
            else
                emit(makeLoad(slot.pc, addr, 0, 8, 9));
            break;
          }

          case Slot::Kind::kTemporal: {
            const std::size_t i = slot.position % slot.nodes.size();
            emit(makeLoad(slot.pc, slot.nodes[i], 0, 30, 31));
            ++slot.position;
            break;
          }

          case Slot::Kind::kPtrArray: {
            // Strided producer whose loaded values are pointers; the
            // dependent load follows them at a learned offset — the
            // paper's array-of-pointers pattern, P1's taint-scout
            // territory.
            const Addr elem = slot.arrayBase + ptr_index * 8;
            const Addr target = 0x30000000 +
                                splitMix64(case_seed ^ ptr_index) %
                                    (1u << 20) * kLineBytes;
            const std::uint64_t value = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(target) - slot.ptrDelta);
            emit(makeLoad(slot.pc, elem, value, 20, 21));
            emit(makeLoad(slot.pc2, target, 0, 22, 20));
            ++ptr_index;
            break;
          }
        }

        if (rng.chance(0.05))
            emit(makeAlu(0x8000, 10, 2, 4));
    }

    return records;
}

} // namespace dol::check
