/**
 * @file
 * Unit tests for the composite prefetcher's coordinator: ownership
 * claims (T2 -> P1 -> C1), routing of unclaimed instructions to extra
 * components, round-robin binding with hit-based rebinding, shunting,
 * and the registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/composite.hpp"
#include "common/flat_table.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "mem/memory_image.hpp"
#include "mem/memory_system.hpp"
#include "prefetch/next_line.hpp"
#include "sim/simulator.hpp"
#include "trace/context.hpp"
#include "trace/counters.hpp"
#include "workloads/suite.hpp"

namespace dol
{
namespace
{

class CompositeTest : public ::testing::Test
{
  protected:
    CompositeTest() : emitter(mem), tpc(&image)
    {
        ComponentId next = 1;
        tpc.assignIds([&](const std::string &name) {
            names.push_back(name);
            return next++;
        });
    }

    AccessInfo
    load(Pc pc, Addr addr, bool miss = true)
    {
        now += 12;
        AccessInfo info;
        info.pc = pc;
        info.mPc = pc;
        info.addr = addr;
        info.isLoad = true;
        info.l1PrimaryMiss = miss;
        info.l1Hit = !miss;
        info.when = now;
        info.completion = now + (miss ? 200 : 3);
        emitter.setContext(tpc.id(), now);
        tpc.train(info, emitter);
        return info;
    }

    MemoryImage image;
    MemorySystem mem;
    PrefetchEmitter emitter;
    CompositePrefetcher tpc;
    std::vector<std::string> names;
    Cycle now = 0;
};

TEST_F(CompositeTest, AssignsIdsToAllComponents)
{
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "T2");
    EXPECT_EQ(names[1], "P1");
    EXPECT_EQ(names[2], "C1");
    EXPECT_EQ(tpc.t2()->id(), 1);
    EXPECT_EQ(tpc.p1()->id(), 2);
    EXPECT_EQ(tpc.c1()->id(), 3);
}

TEST_F(CompositeTest, StridedInstructionBelongsToT2)
{
    for (int i = 0; i <= 20; ++i)
        load(0x100, 0x100000 + i * 64);
    EXPECT_EQ(tpc.ownerOf(0x100), CompositePrefetcher::Owner::kT2);
    EXPECT_GT(mem.stats().comp[1].issued, 0u);
    EXPECT_EQ(mem.stats().comp[3].issued, 0u)
        << "C1 must not see T2's instructions";
}

TEST_F(CompositeTest, NonStridedDenseInstructionFallsToC1)
{
    // Random-within-dense-regions accesses: T2 writes it off; C1
    // monitors and (eventually) marks it.
    Addr base = 0x400000;
    for (int r = 0; r < 6; ++r) {
        for (unsigned i = 0; i < 12; ++i) {
            load(0x200, base + ((i * 5) % 16) * kLineBytes);
        }
        base += kRegionBytes;
    }
    // Flush the region monitor to force verdicts.
    for (int i = 0; i < 40; ++i)
        load(0x999, 0x900000 + i * kRegionBytes);
    EXPECT_EQ(tpc.t2()->stateOf(0x200), InstrState::kNonStrided);
    EXPECT_EQ(tpc.ownerOf(0x200), CompositePrefetcher::Owner::kC1);
}

TEST_F(CompositeTest, UnclaimedInstructionsRouteToExtrasRoundRobin)
{
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    ComponentId next = 4;
    tpc.extras()[0]->setId(next++);
    tpc.extras()[1]->setId(next++);

    // Two random-pattern instructions: each must bind to an extra.
    // (Random accesses keep T2 unconvinced and C1 unimpressed.)
    Rng rng(3);
    for (int i = 0; i < 120; ++i) {
        load(0x300, 0x1000000 + lineAddr(rng.below(1u << 24)));
        load(0x304, 0x3000000 + lineAddr(rng.below(1u << 24)));
    }
    EXPECT_EQ(tpc.ownerOf(0x300), CompositePrefetcher::Owner::kExtra);
    EXPECT_EQ(tpc.ownerOf(0x304), CompositePrefetcher::Owner::kExtra);
    // Both extras produced next-line prefetches.
    EXPECT_GT(mem.stats().comp[4].issued, 0u);
    EXPECT_GT(mem.stats().comp[5].issued, 0u);
}

TEST_F(CompositeTest, HitRebindsInstructionToOwningExtra)
{
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.extras()[0]->setId(4);
    tpc.extras()[1]->setId(5);

    // Make 0x500 an extras-owned instruction first (random pattern
    // until T2 writes it off and C1 rejects it).
    Rng rng(8);
    for (int i = 0; i < 120; ++i)
        load(0x500, 0x5000000 + lineAddr(rng.below(1u << 24)));
    ASSERT_EQ(tpc.ownerOf(0x500), CompositePrefetcher::Owner::kExtra);

    // A hit on a line component 5 prefetched rebinds the instruction.
    AccessInfo info;
    info.pc = 0x500;
    info.mPc = 0x500;
    info.addr = 0x5000000;
    info.isLoad = true;
    info.l1Hit = true;
    info.l1HitPrefetched = true;
    info.l1HitComp = 5;
    info.when = ++now;
    emitter.setContext(tpc.id(), now);
    tpc.train(info, emitter);

    // Subsequent misses by this instruction train component 5 only.
    const auto before4 = mem.stats().comp[4].issued;
    const auto before5 = mem.stats().comp[5].issued;
    for (int i = 0; i < 20; ++i)
        load(0x500, 0x7000000 + lineAddr(rng.below(1u << 24)));
    EXPECT_EQ(mem.stats().comp[4].issued, before4);
    EXPECT_GT(mem.stats().comp[5].issued, before5);
}

TEST_F(CompositeTest, ClaimedInstructionsNeverReachExtras)
{
    // The filtering half of the coordinator, in contrast with
    // Shunt.ForwardsEverythingToAllComponents below: a T2-claimed
    // strided instruction trains no extra and acquires no binding.
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.extras()[0]->setId(4);
    tpc.extras()[1]->setId(5);

    for (int i = 0; i <= 40; ++i)
        load(0x100, 0x100000 + i * 64);
    EXPECT_EQ(tpc.ownerOf(0x100), CompositePrefetcher::Owner::kT2);
    EXPECT_EQ(tpc.boundExtraOf(0x100), -1);
    EXPECT_GT(mem.stats().comp[1].issued, 0u) << "T2 covers the stream";
    EXPECT_EQ(mem.stats().comp[4].issued, 0u);
    EXPECT_EQ(mem.stats().comp[5].issued, 0u);
}

TEST_F(CompositeTest, RoundRobinBindingCoversAllExtras)
{
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    ComponentId next = 4;
    for (auto &extra : tpc.extras())
        extra->setId(next++);

    // Three interleaved random-pattern instructions: the round-robin
    // counter must spread them across all three extras, one each.
    Rng rng(5);
    for (int i = 0; i < 120; ++i) {
        load(0x600, 0x1000000 + lineAddr(rng.below(1u << 24)));
        load(0x604, 0x3000000 + lineAddr(rng.below(1u << 24)));
        load(0x608, 0x5000000 + lineAddr(rng.below(1u << 24)));
    }
    std::vector<int> bindings = {tpc.boundExtraOf(0x600),
                                 tpc.boundExtraOf(0x604),
                                 tpc.boundExtraOf(0x608)};
    std::sort(bindings.begin(), bindings.end());
    EXPECT_EQ(bindings, (std::vector<int>{0, 1, 2}));
}

TEST_F(CompositeTest, PrefetchHitMovesTheBindingToTheOwningExtra)
{
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.extras()[0]->setId(4);
    tpc.extras()[1]->setId(5);

    Rng rng(8);
    for (int i = 0; i < 120; ++i)
        load(0x500, 0x5000000 + lineAddr(rng.below(1u << 24)));
    const int before = tpc.boundExtraOf(0x500);
    ASSERT_GE(before, 0);
    const int other = 1 - before;

    // A demand hit on a line the *other* extra prefetched transfers
    // the binding to it (paper section IV-E rebinding).
    AccessInfo info;
    info.pc = 0x500;
    info.mPc = 0x500;
    info.addr = 0x5000000;
    info.isLoad = true;
    info.l1Hit = true;
    info.l1HitPrefetched = true;
    info.l1HitComp = tpc.extras()[static_cast<std::size_t>(other)]->id();
    info.when = ++now;
    emitter.setContext(tpc.id(), now);
    tpc.train(info, emitter);
    EXPECT_EQ(tpc.boundExtraOf(0x500), other);
    EXPECT_EQ(tpc.ownerOf(0x500), CompositePrefetcher::Owner::kExtra);
}

TEST_F(CompositeTest, PrefetchHitRebindsToExactExtraAmongThree)
{
    // With three extras a wrong-neighbour rebind ((hit + 1) % n, the
    // rebind3 mutation's bug) is distinguishable from the correct
    // policy, which the two-extra test above cannot tell apart from
    // "rebind to the other one".
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    ComponentId next = 4;
    for (auto &extra : tpc.extras())
        extra->setId(next++);

    Rng rng(8);
    for (int i = 0; i < 120; ++i)
        load(0x500, 0x5000000 + lineAddr(rng.below(1u << 24)));
    const int before = tpc.boundExtraOf(0x500);
    ASSERT_GE(before, 0);
    // Rebind two hops away, so (hit + 1) % 3 would land elsewhere.
    const int target = (before + 2) % 3;

    AccessInfo info;
    info.pc = 0x500;
    info.mPc = 0x500;
    info.addr = 0x5000000;
    info.isLoad = true;
    info.l1Hit = true;
    info.l1HitPrefetched = true;
    info.l1HitComp =
        tpc.extras()[static_cast<std::size_t>(target)]->id();
    info.when = ++now;
    emitter.setContext(tpc.id(), now);
    tpc.train(info, emitter);
    EXPECT_EQ(tpc.boundExtraOf(0x500), target);

    // Only the rebound extra trains from here on.
    const auto frozen =
        mem.stats().comp[4 + static_cast<ComponentId>(before)].issued;
    const auto moving =
        mem.stats().comp[4 + static_cast<ComponentId>(target)].issued;
    for (int i = 0; i < 20; ++i)
        load(0x500, 0x7000000 + lineAddr(rng.below(1u << 24)));
    EXPECT_EQ(
        mem.stats().comp[4 + static_cast<ComponentId>(before)].issued,
        frozen);
    EXPECT_GT(
        mem.stats().comp[4 + static_cast<ComponentId>(target)].issued,
        moving);
}

TEST_F(CompositeTest, StorageSumsComponents)
{
    const std::size_t total = tpc.storageBits();
    EXPECT_EQ(total, tpc.t2()->storageBits() +
                         tpc.p1()->storageBits() +
                         tpc.c1()->storageBits());
    // Table II: TPC = 4.57 KB.
    EXPECT_GT(total, 0.6 * 4.57 * 8 * 1024);
    EXPECT_LT(total, 1.4 * 4.57 * 8 * 1024);
}

/** What the owner-transition counters saw, and what ownerOf() says. */
struct OwnerTally
{
    std::uint64_t counterClaims = 0;
    std::uint64_t counterUnclaims = 0;
    std::uint64_t observedClaims = 0;
    std::uint64_t observedUnclaims = 0;
    /** Accesses ownerOf() gives to a claimant whose slot is demoted,
     *  so train() routed them past it. Indexed by slot. */
    std::uint64_t demotedOwner[AdaptiveCoordinator::kFirstExtraSlot] = {};
};

/**
 * Run @p workload under a traced composite and count ownership
 * transitions from ownerOf() right after each train(), the way the
 * coord_claims / coord_unclaims counters are defined.
 */
OwnerTally
tallyOwners(const char *workload, const CompositePrefetcher::Config &cfg)
{
    MemoryImage image;
    auto kernel = findWorkload(workload).factory(image);
    CompositePrefetcher tpc(&image, cfg);
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(1));
    tpc.addComponent(std::make_unique<NextLinePrefetcher>(2));
    SimConfig config;
    config.maxInstrs = 60000;
    Simulator sim(config, *kernel, &tpc);
    TraceContext trace;
    sim.setTraceContext(&trace);

    OwnerTally tally;
    FlatHashMap<Pc, CompositePrefetcher::Owner> last;
    sim.setAccessObserver([&](const AccessInfo &access) {
        const auto owner = tpc.ownerOf(access.mPc);
        const auto *seen = last.find(access.mPc);
        const auto previous =
            seen ? *seen : CompositePrefetcher::Owner::kNone;
        if (owner != previous) {
            if (previous != CompositePrefetcher::Owner::kNone)
                ++tally.observedUnclaims;
            if (owner != CompositePrefetcher::Owner::kNone)
                ++tally.observedClaims;
            if (last.size() > (1u << 16))
                last.clear();
            last[access.mPc] = owner;
        }
        // kT2, kP1 and kC1 follow kNone in slot order; kNone wraps
        // and kExtra lands past the claimant slots.
        const AdaptiveCoordinator *adapt = tpc.adaptive();
        const auto slot = static_cast<std::size_t>(owner) - 1;
        if (adapt && slot < AdaptiveCoordinator::kFirstExtraSlot &&
            adapt->demoted(slot)) {
            ++tally.demotedOwner[slot];
        }
    });
    sim.run();

    CounterRegistry registry;
    sim.exportCounters(registry);
    tally.counterClaims = registry.counter(tpc.name(), "coord_claims");
    tally.counterUnclaims = registry.counter(tpc.name(), "coord_unclaims");
    return tally;
}

/** Workloads whose accesses every claimant and the extras own. */
constexpr const char *kOwnerWorkloads[] = {
    "libquantum.syn", "mcf.syn", "xalancbmk.syn", "gcc.syn",
    "shuflist.syn", "is.syn"};

TEST(OwnerCounters, MatchOwnerOfAfterEveryTrainHardwired)
{
    for (const char *workload : kOwnerWorkloads) {
        SCOPED_TRACE(workload);
        const OwnerTally tally =
            tallyOwners(workload, CompositePrefetcher::Config{});
        EXPECT_GT(tally.counterClaims, 0u);
        EXPECT_EQ(tally.counterClaims, tally.observedClaims);
        EXPECT_EQ(tally.counterUnclaims, tally.observedUnclaims);
    }
}

TEST(OwnerCounters, MatchOwnerOfAfterEveryTrainWithDemotedClaimants)
{
    // ownerOf() ignores demotion while train() routes around demoted
    // claimants: the counters must follow ownerOf(). Any window with
    // an issued prefetch that went unused demotes its claimant.
    CompositePrefetcher::Config cfg;
    cfg.adaptive = true;
    cfg.adapt.windowAccesses = 64;
    cfg.adapt.minWindowIssued = 1;
    cfg.adapt.demoteFloorPermille = 1000;
    cfg.adapt.demoteWindows = 1;
    cfg.adapt.probationWindows = 3;
    std::uint64_t demotedOwner[AdaptiveCoordinator::kFirstExtraSlot] = {};
    for (const char *workload : kOwnerWorkloads) {
        SCOPED_TRACE(workload);
        const OwnerTally tally = tallyOwners(workload, cfg);
        EXPECT_GT(tally.counterClaims, 0u);
        EXPECT_EQ(tally.counterClaims, tally.observedClaims);
        EXPECT_EQ(tally.counterUnclaims, tally.observedUnclaims);
        for (std::size_t slot = 0;
             slot < AdaptiveCoordinator::kFirstExtraSlot; ++slot) {
            demotedOwner[slot] += tally.demotedOwner[slot];
        }
    }
    EXPECT_GT(demotedOwner[AdaptiveCoordinator::kSlotT2], 0u);
    EXPECT_GT(demotedOwner[AdaptiveCoordinator::kSlotP1], 0u);
    EXPECT_GT(demotedOwner[AdaptiveCoordinator::kSlotC1], 0u);
}

TEST(Shunt, ForwardsEverythingToAllComponents)
{
    MemoryImage image;
    MemorySystem mem;
    PrefetchEmitter emitter(mem);

    ShuntPrefetcher shunt;
    shunt.addComponent(std::make_unique<NextLinePrefetcher>(1));
    shunt.addComponent(std::make_unique<NextLinePrefetcher>(2));
    ComponentId next = 1;
    shunt.assignIds([&](const std::string &) { return next++; });

    Cycle t = 0;
    for (int i = 0; i < 10; ++i) {
        AccessInfo info;
        info.pc = 0x700;
        info.mPc = 0x700;
        info.addr = 0x700000 + i * 4096;
        info.isLoad = true;
        info.l1PrimaryMiss = true;
        info.when = t += 10;
        emitter.setContext(shunt.id(), info.when);
        shunt.train(info, emitter);
    }
    // Both components fired on the same accesses: overlapping effort.
    EXPECT_GT(mem.stats().comp[1].issued, 0u);
    EXPECT_GT(mem.stats().comp[2].issued, 0u);
}

TEST(Registry, BuildsEveryNamedConfiguration)
{
    MemoryImage image;
    for (const std::string &name : figureEightPrefetcherNames()) {
        auto pf = makePrefetcher(name, &image);
        ASSERT_NE(pf, nullptr) << name;
        EXPECT_GT(pf->storageBits(), 0u) << name;
    }
    EXPECT_NE(makePrefetcher("TPC+SMS", &image), nullptr);
    EXPECT_NE(makePrefetcher("SHUNT:TPC+VLDP", &image), nullptr);
    EXPECT_NE(makePrefetcher("T2P1", &image), nullptr);
    EXPECT_NE(makePrefetcher("NextLine", &image), nullptr);
}

TEST(Registry, CompositeWithExtraHasExtraComponent)
{
    MemoryImage image;
    auto pf = makePrefetcher("TPC+SMS", &image);
    auto *tpc = dynamic_cast<CompositePrefetcher *>(pf.get());
    ASSERT_NE(tpc, nullptr);
    ASSERT_EQ(tpc->extras().size(), 1u);
    EXPECT_EQ(tpc->extras()[0]->name(), "SMS");
}

TEST(Registry, MultiExtraNameBuildsEnlargedComposite)
{
    MemoryImage image;
    auto pf = makePrefetcher("TPC+SPP+Triangel+PChase", &image);
    auto *tpc = dynamic_cast<CompositePrefetcher *>(pf.get());
    ASSERT_NE(tpc, nullptr);
    ASSERT_EQ(tpc->extras().size(), 3u);
    EXPECT_EQ(tpc->extras()[0]->name(), "SPP");
    EXPECT_EQ(tpc->extras()[1]->name(), "Triangel");
    EXPECT_EQ(tpc->extras()[2]->name(), "PChase");

    auto shunt = makePrefetcher("SHUNT:TPC+VLDP+SMS", &image);
    ASSERT_NE(shunt.get(), nullptr);
    EXPECT_GT(shunt->storageBits(), 0u);
}

} // namespace
} // namespace dol
