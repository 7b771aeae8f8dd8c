/**
 * @file
 * Unit tests for the DDR3-style DRAM model: row-buffer behaviour, bus
 * serialization, channel interleaving, and the controller's drop
 * policies (the paper's section V-C.1 mechanism).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "mem/dram.hpp"

namespace dol
{
namespace
{

DramParams
tinyQueueParams(DropPolicy policy = DropPolicy::kRandomPrefetch)
{
    DramParams params;
    params.queueCapacity = 4;
    params.dropPolicy = policy;
    return params;
}

TEST(Dram, RowHitIsFasterThanRowMiss)
{
    Dram dram;
    // First access opens the row.
    const auto first = dram.access(0x100000, 0, false);
    const Cycle miss_latency = first.completion;
    // Immediately after, the adjacent column in the same row hits —
    // same bank requires stride of channels * banks lines.
    const DramParams &p = dram.params();
    const Addr same_bank_stride =
        static_cast<Addr>(p.channels) * p.ranksPerChannel *
        p.banksPerRank * kLineBytes;
    const auto second =
        dram.access(0x100000 + same_bank_stride, first.completion,
                    false);
    const Cycle hit_latency = second.completion - first.completion;
    EXPECT_LT(hit_latency, miss_latency);
    EXPECT_EQ(dram.stats().rowHits, 1u);
    EXPECT_EQ(dram.stats().rowMisses, 1u);
}

TEST(Dram, BusSerializesSameChannel)
{
    Dram dram;
    const DramParams &p = dram.params();
    // Lines 2*k*64 all map to channel 0; issue a burst at time 0.
    Cycle last = 0;
    std::vector<Cycle> completions;
    for (Addr i = 0; i < 8; ++i) {
        const auto res = dram.access(
            i * p.channels * kLineBytes, 0, false);
        completions.push_back(res.completion);
    }
    // Completions must be spaced by at least the burst time.
    std::sort(completions.begin(), completions.end());
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_GE(completions[i] - completions[i - 1], p.tBurst);
    (void)last;
}

TEST(Dram, ChannelsServeIndependently)
{
    Dram dram;
    const auto even = dram.access(0, 0, false);
    const auto odd = dram.access(kLineBytes, 0, false);
    // Different channels: neither waits for the other's bus.
    EXPECT_EQ(even.completion, odd.completion);
}

TEST(Dram, WritesCountAsTraffic)
{
    Dram dram;
    dram.access(0, 0, false);
    dram.access(64, 0, true);
    EXPECT_EQ(dram.stats().reads, 1u);
    EXPECT_EQ(dram.stats().writes, 1u);
    EXPECT_EQ(dram.linesTransferred(), 2u);
}

TEST(Dram, OccupancyTracksLiveRequests)
{
    Dram dram;
    EXPECT_EQ(dram.occupancy(0, 0), 0u);
    const auto res = dram.access(0, 0, false);
    EXPECT_EQ(dram.occupancy(0, 1), 1u);
    EXPECT_EQ(dram.occupancy(0, res.completion + 1), 0u);
}

TEST(Dram, FullQueueDropsPrefetches)
{
    Dram dram(tinyQueueParams());
    unsigned cancelled = 0;
    dram.setCancelHook([&](Addr) { ++cancelled; });

    // Fill the channel-0 queue with prefetches at time 0.
    for (Addr i = 0; i < 16; ++i)
        dram.access(i * 2 * kLineBytes, 0, false, true, 1);
    EXPECT_GT(dram.stats().droppedPrefetches, 0u);
    EXPECT_GT(cancelled, 0u);
}

TEST(Dram, DemandsAreNeverDropped)
{
    Dram dram(tinyQueueParams());
    for (Addr i = 0; i < 16; ++i) {
        const auto res =
            dram.access(i * 2 * kLineBytes, 0, false, false, 0);
        EXPECT_FALSE(res.dropped);
    }
}

TEST(Dram, PriorityPolicyShedsLowPriorityFirst)
{
    Dram dram(tinyQueueParams(DropPolicy::kLowPriorityPrefetch));
    std::multiset<Addr> cancelled;
    dram.setCancelHook([&](Addr line) { cancelled.insert(line); });

    // Queue: three low-priority (C1-like) prefetches, one high.
    dram.access(0 * 2 * kLineBytes, 0, false, true, 1);
    dram.access(1 * 2 * kLineBytes, 0, false, true, 1);
    dram.access(2 * 2 * kLineBytes, 0, false, true, 3);
    dram.access(3 * 2 * kLineBytes, 0, false, true, 3);
    // Queue full: a high-priority prefetch displaces a low one.
    const auto res = dram.access(4 * 2 * kLineBytes, 0, false, true, 3);
    EXPECT_FALSE(res.dropped);
    ASSERT_EQ(cancelled.size(), 1u);
    const Addr victim = *cancelled.begin();
    EXPECT_TRUE(victim == 0 || victim == 2 * kLineBytes)
        << "victim must be a priority-1 request, got " << victim;

    // An incoming low-priority prefetch is shed instead.
    const auto low = dram.access(5 * 2 * kLineBytes, 0, false, true, 1);
    EXPECT_TRUE(low.dropped);
}

TEST(Dram, MonotonicClockPrunesCompletedWork)
{
    Dram dram(tinyQueueParams());
    // Saturate at t=0; far in the future the queue must be empty and
    // accept prefetches again with no drops.
    for (Addr i = 0; i < 4; ++i)
        dram.access(i * 2 * kLineBytes, 0, false, true, 1);
    const auto later =
        dram.access(64 * 2 * kLineBytes, 1000000, false, true, 1);
    EXPECT_FALSE(later.dropped);
}

/**
 * The controller keeps running per-core and prefetch counts beside
 * each channel's queue. Check them against a linear scan over the
 * live requests, which the test tracks itself: a request joins when
 * access() returns its completion and the channel had room, and
 * leaves when it completes or the cancel hook names it. Seeded random
 * streams from 1-4 cores congest queues of 4, 8 and 64 entries under
 * both drop policies and all three arbitrations; after every call the
 * occupancy of each channel and the step in arbDelayCycles and
 * demandsDelayedByPrefetch must match the scan.
 */
TEST(Dram, RunningCountsMatchLinearScanModel)
{
    struct Live
    {
        Addr line;
        Cycle completion;
        bool prefetch;
        unsigned core;
        unsigned channel;
    };
    const ArbitrationPolicy kArbs[] = {ArbitrationPolicy::kDemandFirst,
                                       ArbitrationPolicy::kFifo,
                                       ArbitrationPolicy::kCoreRoundRobin};
    const DropPolicy kDrops[] = {DropPolicy::kRandomPrefetch,
                                 DropPolicy::kLowPriorityPrefetch};
    std::uint64_t drops = 0;
    for (unsigned cores = 1; cores <= 4; ++cores) {
      for (const unsigned capacity : {4u, 8u, 64u}) {
        for (const DropPolicy drop : kDrops) {
          for (const ArbitrationPolicy arb : kArbs) {
            DramParams params;
            params.queueCapacity = capacity;
            params.dropPolicy = drop;
            params.arbitration = arb;
            params.rngSeed = 17 * cores + capacity;
            Dram dram(params);
            const std::string where =
                std::to_string(cores) + " cores, capacity " +
                std::to_string(capacity) + ", drop " +
                std::to_string(static_cast<int>(drop)) + ", arb " +
                std::to_string(static_cast<int>(arb));

            std::vector<Live> live;
            dram.setCancelHook([&](Addr line) {
                const auto it =
                    std::find_if(live.begin(), live.end(),
                                 [&](const Live &l) { return l.line == line; });
                ASSERT_NE(it, live.end()) << where;
                live.erase(it);
            });
            const auto prune = [&](unsigned channel, Cycle now) {
                std::erase_if(live, [&](const Live &l) {
                    return l.channel == channel && l.completion <= now;
                });
            };
            const auto queued = [&](unsigned channel) {
                return static_cast<std::size_t>(
                    std::count_if(live.begin(), live.end(),
                                  [&](const Live &l) {
                                      return l.channel == channel;
                                  }));
            };
            const auto checkOccupancy = [&](Cycle clock, int step) {
                for (unsigned ch = 0; ch < params.channels; ++ch) {
                    prune(ch, clock);
                    ASSERT_EQ(dram.occupancy(ch * kLineBytes, clock),
                              queued(ch))
                        << where << ", step " << step << ", channel "
                        << ch;
                }
            };

            Rng rng(0xd7a5 + 101 * cores + capacity +
                    static_cast<unsigned>(arb));
            Cycle clock = 0;
            for (int step = 0; step < 3000; ++step) {
                Cycle now = clock + rng.below(12);
                if (rng.below(64) == 0)
                    now += 1500; // let the queues drain
                if (rng.below(8) == 0) {
                    // An occupancy probe alone, as a prefetch asks.
                    clock = std::max(clock, now);
                    checkOccupancy(clock, step);
                    continue;
                }
                const unsigned channel =
                    static_cast<unsigned>(rng.below(params.channels));
                const Addr line =
                    (static_cast<Addr>(step) * params.channels + channel) *
                    kLineBytes;
                const unsigned kind = static_cast<unsigned>(rng.below(20));
                const bool is_write = kind < 3;
                const bool is_prefetch = kind >= 10;
                const auto priority =
                    static_cast<std::uint8_t>(rng.below(4));
                const auto core =
                    static_cast<std::uint8_t>(rng.below(cores));

                // The scan's arbitration delay.
                clock = std::max(clock, now);
                Cycle delay = 0;
                bool delayed_by_prefetch = false;
                if (arb != ArbitrationPolicy::kDemandFirst) {
                    prune(channel, clock);
                    std::vector<std::uint64_t> per_core(cores, 0);
                    bool any_prefetch = false;
                    for (const Live &l : live) {
                        if (l.channel != channel)
                            continue;
                        ++per_core[l.core];
                        any_prefetch |= l.prefetch;
                    }
                    std::uint64_t slots = 0;
                    if (arb == ArbitrationPolicy::kFifo) {
                        slots = queued(channel);
                    } else {
                        const std::uint64_t own = per_core[core];
                        slots = own;
                        for (unsigned c = 0; c < cores; ++c) {
                            if (c != core)
                                slots += std::min(per_core[c], own + 1);
                        }
                    }
                    delay = slots * params.tBurst;
                    delayed_by_prefetch = delay > 0 && any_prefetch &&
                                          !is_write && !is_prefetch;
                    now += delay;
                    clock = std::max(clock, now);
                }
                prune(channel, clock);

                const DramStats before = dram.stats();
                const Dram::Result res = dram.access(
                    line, now - delay, is_write, is_prefetch, priority,
                    core);
                ASSERT_EQ(dram.stats().arbDelayCycles - before.arbDelayCycles,
                          delay)
                    << where << ", step " << step;
                ASSERT_EQ(dram.stats().demandsDelayedByPrefetch -
                              before.demandsDelayedByPrefetch,
                          delayed_by_prefetch ? 1u : 0u)
                    << where << ", step " << step;
                drops += dram.stats().droppedPrefetches -
                         before.droppedPrefetches;
                if (!res.dropped) {
                    if (queued(channel) >= capacity) {
                        // Only demands queued: this demand waited for
                        // the earliest to complete.
                        Cycle earliest = kNoCycle;
                        for (const Live &l : live) {
                            if (l.channel == channel)
                                earliest = std::min(earliest, l.completion);
                        }
                        prune(channel, std::max(now, earliest));
                    }
                    if (queued(channel) < capacity) {
                        live.push_back({line, res.completion, is_prefetch,
                                        core, channel});
                    }
                }
                checkOccupancy(clock, step);
            }
          }
        }
      }
    }
    // The streams must reach makeRoom's drops, or the counts it
    // decrements go unchecked.
    EXPECT_GT(drops, 1000u);
}

} // namespace
} // namespace dol
