#include "check/differential.hpp"

#include <cstdio>
#include <sstream>

#include "check/reference_cache.hpp"
#include "check/reference_coordinator.hpp"
#include "check/reference_t2.hpp"
#include "common/rng.hpp"
#include "prefetch/next_line.hpp"
#include "trace/counters.hpp"

namespace dol::check
{

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
firstDivergence(const std::string &a, const std::string &b)
{
    std::istringstream sa(a);
    std::istringstream sb(b);
    std::string la;
    std::string lb;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "texts equal";
        if (ga != gb)
            return "line counts differ";
        if (la != lb)
            return "first '" + la + "' second '" + lb + "'";
    }
}

FuzzHarness::FuzzHarness(const std::vector<TraceRecord> &records,
                         const FuzzParams &params, bool adaptive,
                         const AdaptiveParams &adapt)
    : kernel(image, "fuzz", unpackTraceRecords(records), /*loop=*/false)
{
    CompositePrefetcher::Config cfg;
    cfg.t2 = params.t2;
    cfg.enableP1 = params.enableP1;
    cfg.enableC1 = params.enableC1;
    cfg.adaptive = adaptive;
    cfg.adapt = adapt;
    tpc = std::make_unique<CompositePrefetcher>(&image, cfg);
    tpc->addComponent(
        std::make_unique<NextLinePrefetcher>(params.extraDegree1));
    tpc->addComponent(
        std::make_unique<NextLinePrefetcher>(params.extraDegree2));
    if (params.numExtras >= 3) {
        tpc->addComponent(
            std::make_unique<NextLinePrefetcher>(params.extraDegree3));
    }

    SimConfig sim_config;
    sim_config.maxInstrs = records.size();
    sim = std::make_unique<Simulator>(sim_config, kernel, tpc.get());
    if (adaptive) {
        MemorySystem &mem = sim->mem();
        tpc->setPressureProbe([&mem] {
            return mem.shared().dram().stats().windowDeferrals;
        });
    }
}

std::string
FuzzHarness::countersText() const
{
    CounterRegistry registry;
    sim->exportCounters(registry);
    return registry.toText();
}

namespace
{

const char *
ownerName(CompositePrefetcher::Owner owner)
{
    switch (owner) {
      case CompositePrefetcher::Owner::kNone:
        return "none";
      case CompositePrefetcher::Owner::kT2:
        return "T2";
      case CompositePrefetcher::Owner::kP1:
        return "P1";
      case CompositePrefetcher::Owner::kC1:
        return "C1";
      case CompositePrefetcher::Owner::kExtra:
        return "extra";
    }
    return "?";
}

/**
 * Check 1: the production Cache vs. the naive reference, over an op
 * stream derived deterministically from the trace. Geometry is small
 * (16 sets by default) so evictions are constant traffic.
 */
DiffResult
runCacheDifferential(const std::vector<TraceRecord> &records,
                     const CheckConfig &config)
{
    DiffResult result;
    Cache::Params cache_params;
    cache_params.name = "diff";
    cache_params.sizeBytes = config.params.cacheSizeBytes;
    cache_params.assoc = config.params.cacheAssoc;
    cache_params.mshrs = 8;
    Cache production(cache_params);
    ReferenceCache reference(config.params.cacheSizeBytes,
                             config.params.cacheAssoc,
                             config.mutation);

    const auto fail = [&](std::uint64_t index,
                          const std::string &message) {
        result.ok = false;
        result.check = "cache";
        result.index = index;
        result.message = message;
    };

    Rng ops(config.params.opSeed);
    std::uint64_t index = 0;
    for (const TraceRecord &record : records) {
        const Instr instr = record.unpack();
        if (!instr.isMem()) {
            ++index;
            continue;
        }
        const Addr line = lineAddr(instr.addr);

        if (ops.below(100) < 5) {
            const bool prod = production.invalidate(line);
            const bool ref = reference.invalidate(line);
            if (prod != ref) {
                fail(index, "invalidate(" + hex(line) +
                                "): production " +
                                (prod ? "hit" : "miss") +
                                ", reference " + (ref ? "hit" : "miss"));
                return result;
            }
            ++index;
            continue;
        }

        Cache::Line *prod_line = production.find(line);
        ReferenceCache::Line *ref_line = reference.find(line);
        if ((prod_line != nullptr) != (ref_line != nullptr)) {
            fail(index, "lookup(" + hex(line) + "): production " +
                            (prod_line ? "hit" : "miss") +
                            ", reference " +
                            (ref_line ? "hit" : "miss"));
            return result;
        }

        if (prod_line) {
            if (prod_line->dirty != ref_line->dirty ||
                prod_line->prefetched != ref_line->prefetched ||
                prod_line->used != ref_line->used ||
                prod_line->comp != ref_line->comp) {
                fail(index,
                     "metadata(" + hex(line) + ") differs: production "
                         "dirty/prefetched/used/comp=" +
                         std::to_string(prod_line->dirty) + "/" +
                         std::to_string(prod_line->prefetched) + "/" +
                         std::to_string(prod_line->used) + "/" +
                         std::to_string(prod_line->comp) +
                         " reference " +
                         std::to_string(ref_line->dirty) + "/" +
                         std::to_string(ref_line->prefetched) + "/" +
                         std::to_string(ref_line->used) + "/" +
                         std::to_string(ref_line->comp));
                return result;
            }
            production.touch(*prod_line);
            reference.touch(line);
            if (instr.isStore()) {
                prod_line->dirty = true;
                ref_line->dirty = true;
            }
            if (prod_line->prefetched && !prod_line->used) {
                prod_line->used = true;
                ref_line->used = true;
            }
        } else {
            const bool prefetched = ops.chance(0.3);
            const ComponentId comp =
                prefetched
                    ? static_cast<ComponentId>(1 + ops.below(3))
                    : kNoComponent;
            const bool dirty = instr.isStore();

            Cache::Line *filled = nullptr;
            const auto prod_victim = production.insert(line, &filled);
            filled->prefetched = prefetched;
            filled->comp = comp;
            filled->dirty = dirty;
            const auto ref_victim =
                reference.insert(line, prefetched, comp, dirty);

            if (prod_victim.has_value() != ref_victim.has_value()) {
                fail(index, "insert(" + hex(line) + "): production " +
                                (prod_victim ? "evicted "
                                             : "evicted nothing") +
                                (prod_victim
                                     ? hex(prod_victim->lineAddr)
                                     : std::string()) +
                                ", reference " +
                                (ref_victim ? "evicted " +
                                                  hex(ref_victim
                                                          ->lineAddr)
                                            : "evicted nothing"));
                return result;
            }
            if (prod_victim &&
                (prod_victim->lineAddr != ref_victim->lineAddr ||
                 prod_victim->dirty != ref_victim->dirty ||
                 prod_victim->prefetched != ref_victim->prefetched ||
                 prod_victim->used != ref_victim->used ||
                 prod_victim->comp != ref_victim->comp)) {
                fail(index,
                     "insert(" + hex(line) +
                         ") victim differs: production " +
                         hex(prod_victim->lineAddr) + " reference " +
                         hex(ref_victim->lineAddr));
                return result;
            }
        }
        ++index;
    }
    return result;
}

/**
 * Check 2: full pipeline vs. ReferenceT2 + ReferenceCoordinator in
 * per-access lockstep. On success @p counters_out receives the
 * end-of-run counter text for the determinism check.
 */
DiffResult
runSimDifferential(const std::vector<TraceRecord> &records,
                   const CheckConfig &config,
                   std::string *counters_out)
{
    DiffResult result;
    FuzzHarness harness(records, config.params);
    CompositePrefetcher &tpc = *harness.tpc;

    const ComponentId t2_id = tpc.t2()->id();
    const ComponentId c1_id = tpc.c1() ? tpc.c1()->id() : kNoComponent;
    std::vector<ComponentId> extra_ids;
    for (const auto &extra : tpc.extras())
        extra_ids.push_back(extra->id());
    const std::size_t num_extras = extra_ids.size();

    ReferenceT2 ref_t2(config.params.t2, config.mutation);
    ReferenceCoordinator ref_coord(num_extras, config.mutation);

    std::vector<PrefetchEmitter::EmitRecord> bucket;
    harness.sim->emitter().setEmitHook(
        [&](const PrefetchEmitter::EmitRecord &record) {
            bucket.push_back(record);
        });

    std::uint64_t access_index = 0;
    const auto fail = [&](const std::string &check,
                          const std::string &message) {
        if (!result.ok)
            return;
        result.ok = false;
        result.check = check;
        result.index = access_index;
        result.message = message;
    };

    harness.sim->setAccessObserver([&](const AccessInfo &access) {
        if (!result.ok) {
            bucket.clear();
            return;
        }
        const Pc key = config.params.t2.useCallSiteXor ? access.mPc
                                                       : access.pc;

        // Partition this access's emission records by component.
        std::vector<PrefetchEmitter::EmitRecord> t2_records;
        std::vector<unsigned> extra_emits(num_extras, 0);
        unsigned c1_emits = 0;
        for (const auto &record : bucket) {
            if (record.comp == t2_id) {
                t2_records.push_back(record);
                continue;
            }
            if (tpc.c1() && record.comp == c1_id) {
                ++c1_emits;
                continue;
            }
            for (std::size_t idx = 0; idx < num_extras; ++idx) {
                if (record.comp == extra_ids[idx]) {
                    ++extra_emits[idx];
                    break;
                }
            }
            // P1's emissions are environment: its chase engine is
            // driven by fill timing, which the reference does not
            // model.
        }
        bucket.clear();

        // --- Reference T2, with production's resource verdicts as
        // environment, diffing the attempted addresses positionally.
        std::size_t position = 0;
        std::string t2_error;
        ReferenceT2::Env env;
        env.emit = [&](Addr target) {
            if (position >= t2_records.size()) {
                if (t2_error.empty()) {
                    t2_error = "reference attempts a prefetch of " +
                               hex(target) + " that production "
                               "never issued (production attempted " +
                               std::to_string(t2_records.size()) +
                               ")";
                }
                // Pretend resources ran out so the reference's
                // catch-up loop terminates like production's would.
                return PrefetchOutcome::kDroppedQueue;
            }
            const auto &record = t2_records[position++];
            if (t2_error.empty() && record.addr != target) {
                t2_error = "T2 attempt #" +
                           std::to_string(position - 1) +
                           ": production " + hex(record.addr) +
                           ", reference " + hex(target);
            }
            if (t2_error.empty() && record.level != kL1) {
                t2_error = "T2 prefetch of " + hex(record.addr) +
                           " went to level " +
                           std::to_string(record.level) +
                           ", expected L1";
            }
            return record.outcome;
        };
        env.ptrProducer = [&](Pc m_pc) {
            const T2Prefetcher *t2 = harness.tpc->t2();
            const SitEntry *sit =
                static_cast<const T2Prefetcher *>(t2)->sitLookup(m_pc);
            return sit && sit->ptrProducer;
        };
        ref_t2.train(access, env);
        if (t2_error.empty() && position != t2_records.size()) {
            t2_error = "production issued " +
                       std::to_string(t2_records.size()) +
                       " T2 prefetches, reference only " +
                       std::to_string(position);
        }
        if (!t2_error.empty()) {
            fail("t2", t2_error);
            return;
        }

        const InstrState prod_state = tpc.t2()->stateOf(key);
        const InstrState ref_state = ref_t2.stateOf(key);
        if (prod_state != ref_state) {
            fail("t2",
                 "state of mPC " + hex(key) + ": production " +
                     std::to_string(static_cast<int>(prod_state)) +
                     ", reference " +
                     std::to_string(static_cast<int>(ref_state)));
            return;
        }

        // --- Reference coordinator. T2's claim comes from the
        // reference; P1/C1 pattern detection is environment.
        ReferenceCoordinator::Claims claims;
        claims.t2 = ref_t2.claims(key);
        claims.p1 = tpc.p1() && tpc.p1()->handles(access.mPc);
        claims.c1 = tpc.c1() && (tpc.c1()->isMarked(access.mPc) ||
                                 tpc.c1()->isMonitored(access.mPc));
        int hit_extra = -1;
        if (access.l1HitPrefetched) {
            for (std::size_t idx = 0; idx < num_extras; ++idx) {
                if (access.l1HitComp == extra_ids[idx]) {
                    hit_extra = static_cast<int>(idx);
                    break;
                }
            }
        }
        const int routed = ref_coord.onAccess(access, claims,
                                              hit_extra);

        const auto prod_owner = tpc.ownerOf(access.mPc);
        const auto ref_owner = ref_coord.ownerOf(access.mPc, claims);
        if (prod_owner != ref_owner) {
            fail("coordinator",
                 "owner of mPC " + hex(access.mPc) + ": production " +
                     ownerName(prod_owner) + ", reference " +
                     ownerName(ref_owner));
            return;
        }

        const int prod_bound = tpc.boundExtraOf(access.mPc);
        const int ref_bound = ref_coord.boundExtraOf(access.mPc);
        if (prod_bound != ref_bound) {
            fail("coordinator",
                 "binding of mPC " + hex(access.mPc) +
                     ": production extra " +
                     std::to_string(prod_bound) + ", reference extra " +
                     std::to_string(ref_bound));
            return;
        }

        // --- Emission attribution: only the component the reference
        // routed this access to may have trained on it.
        const bool c1_consulted =
            tpc.c1() && !claims.t2 && !claims.p1;
        if (c1_emits > 0 && !c1_consulted) {
            fail("coordinator",
                 "C1 emitted " + std::to_string(c1_emits) +
                     " prefetches on an access the coordinator never "
                     "routed to it");
            return;
        }
        for (int idx = 0; idx < static_cast<int>(num_extras); ++idx) {
            if (extra_emits[idx] > 0 && routed != idx) {
                fail("coordinator",
                     "extra " + std::to_string(idx) + " emitted " +
                         std::to_string(extra_emits[idx]) +
                         " prefetches but the coordinator routed the "
                         "access to " +
                         (routed < 0 ? std::string("no extra")
                                     : "extra " +
                                           std::to_string(routed)));
                return;
            }
        }
        ++access_index;
    });

    harness.sim->run();
    if (result.ok && counters_out)
        *counters_out = harness.countersText();
    return result;
}

} // namespace

std::string
DiffResult::summary() const
{
    if (ok)
        return "ok";
    return check + " diff at access #" + std::to_string(index) + ": " +
           message;
}

DiffResult
checkTrace(const std::vector<TraceRecord> &records,
           const CheckConfig &config)
{
    // Fuzz-domain precondition: straight-line code only. The loop-
    // timed distance formula has its own unit tests; here a control
    // instruction would silently desynchronise the reference.
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].unpack().isControl()) {
            DiffResult result;
            result.ok = false;
            result.check = "precondition";
            result.index = i;
            result.message =
                "control instruction in a fuzz trace (record " +
                std::to_string(i) + ")";
            return result;
        }
    }

    DiffResult result = runCacheDifferential(records, config);
    if (!result.ok)
        return result;

    std::string counters_first;
    result = runSimDifferential(records, config, &counters_first);
    if (!result.ok)
        return result;

    std::string counters_second;
    DiffResult second =
        runSimDifferential(records, config, &counters_second);
    if (!second.ok)
        return second;
    if (counters_first != counters_second) {
        result.ok = false;
        result.check = "determinism";
        result.index = 0;
        result.message = "counter registry text differs between "
                         "two identical runs";
    }
    return result;
}

DiffResult
checkCase(std::uint64_t case_seed, Mutation mutation)
{
    CheckConfig config;
    config.params = makeFuzzParams(case_seed);
    config.mutation = mutation;
    const std::vector<TraceRecord> trace =
        makeFuzzTrace(case_seed, config.params);
    return checkTrace(trace, config);
}

} // namespace dol::check
