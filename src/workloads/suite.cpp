#include "workloads/suite.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "common/log.hpp"
#include "workloads/irregular_kernels.hpp"
#include "workloads/mixed_kernels.hpp"
#include "workloads/pointer_kernels.hpp"
#include "workloads/stream_kernels.hpp"
#include "workloads/temporal_kernels.hpp"
#include "workloads/trace_ingest.hpp"

namespace dol
{

namespace
{

using Factory = std::function<std::unique_ptr<Kernel>(MemoryImage &)>;

Factory
stream(StreamKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<StreamKernel>(mem, p);
    };
}

Factory
stencil(StencilKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<StencilKernel>(mem, p);
    };
}

Factory
ptrArray(PointerArrayKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<PointerArrayKernel>(mem, p);
    };
}

Factory
listChase(ListChaseKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<ListChaseKernel>(mem, p);
    };
}

Factory
region(RegionKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<RegionKernel>(mem, p);
    };
}

Factory
randomK(RandomKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<RandomKernel>(mem, p);
    };
}

Factory
bucket(BucketKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<BucketKernel>(mem, p);
    };
}

Factory
csr(CsrGraphKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<CsrGraphKernel>(mem, p);
    };
}

Factory
alu(AluKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<AluKernel>(mem, p);
    };
}

Factory
tempStream(TemporalStreamKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<TemporalStreamKernel>(mem, p);
    };
}

Factory
shufList(ShuffledListKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<ShuffledListKernel>(mem, p);
    };
}

Factory
histWalk(HistoryKernel::Params p)
{
    return [p](MemoryImage &mem) {
        return std::make_unique<HistoryKernel>(mem, p);
    };
}

/** Phase-multiplex several factories under one name. */
Factory
phased(std::string name, std::vector<Factory> parts,
       std::uint64_t instrs_per_phase = 20000,
       std::vector<std::uint64_t> lengths = {})
{
    return [name = std::move(name), parts = std::move(parts),
            instrs_per_phase, lengths = std::move(lengths)](
               MemoryImage &mem) {
        auto kernel = std::make_unique<PhasedKernel>(name, mem,
                                                     instrs_per_phase);
        for (std::size_t i = 0; i < parts.size(); ++i) {
            kernel->addPhase(parts[i](mem),
                             i < lengths.size() ? lengths[i] : 0);
        }
        return kernel;
    };
}

std::vector<WorkloadSpec>
buildSpeclike()
{
    std::vector<WorkloadSpec> out;
    auto add = [&out](std::string name, Factory f) {
        out.push_back({std::move(name), "spec", std::move(f)});
    };

    // Compute-bound, low MPKI.
    add("perlbench.syn", alu({.workingSetBytes = 48 << 10,
                              .aluPerIter = 14, .seed = 11}));
    add("gamess.syn", alu({.workingSetBytes = 24 << 10,
                           .aluPerIter = 18, .aluLatency = 3,
                           .seed = 12}));
    add("sjeng.syn",
        phased("sjeng.syn",
               {alu({.workingSetBytes = 64 << 10, .aluPerIter = 10,
                     .seed = 13}),
                randomK({.footprintBytes = 1 << 20, .aluPerIter = 18,
                         .seed = 13})}));
    add("gobmk.syn",
        phased("gobmk.syn",
               {alu({.workingSetBytes = 96 << 10, .aluPerIter = 9,
                     .seed = 14}),
                randomK({.footprintBytes = 2 << 20, .aluPerIter = 20,
                         .seed = 14})}));

    // Stream-dominated.
    add("libquantum.syn", stream({.streams = 1, .strideBytes = 16,
                                  .footprintBytes = 32ull << 20,
                                  .aluPerIter = 6, .storeStream = true,
                                  .seed = 15}));
    add("milc.syn", stream({.streams = 3, .strideBytes = 16,
                            .footprintBytes = 24ull << 20,
                            .aluPerIter = 18, .seed = 16}));
    add("leslie3d.syn", stream({.streams = 4, .strideBytes = 8,
                                .footprintBytes = 24ull << 20,
                                .aluPerIter = 10, .storeStream = true,
                                .seed = 17}));
    add("hmmer.syn", stream({.streams = 2, .strideBytes = 32,
                             .footprintBytes = 1ull << 20,
                             .aluPerIter = 10, .unroll = 2,
                             .seed = 18}));

    // Stencils.
    add("lbm.syn", stencil({.rows = 1024, .cols = 4096,
                            .aluPerIter = 8, .seed = 19}));
    add("zeusmp.syn", stencil({.rows = 512, .cols = 2048,
                               .aluPerIter = 10, .seed = 20}));
    add("bwaves.syn", stencil({.rows = 2048, .cols = 2048,
                               .aluPerIter = 8, .seed = 21}));
    add("cactusADM.syn",
        phased("cactusADM.syn",
               {stencil({.rows = 512, .cols = 1024, .aluPerIter = 12,
                         .seed = 22}),
                stream({.streams = 2, .strideBytes = 16,
                        .footprintBytes = 8ull << 20, .aluPerIter = 12,
                        .seed = 22})}));
    add("GemsFDTD.syn", stencil({.rows = 2048, .cols = 4096,
                                 .aluPerIter = 8, .seed = 23}));

    // Pointer-heavy.
    add("mcf.syn",
        phased("mcf.syn",
               {ptrArray({.entries = 1 << 16, .objectBytes = 256,
                          .fieldOffset = 24, .aluPerIter = 24,
                          .seed = 24}),
                listChase({.nodes = 1 << 13, .nodeBytes = 128,
                           .aluPerIter = 8, .seed = 24})},
               20000, {40000, 8000}));
    add("omnetpp.syn",
        phased("omnetpp.syn",
               {listChase({.nodes = 1 << 14, .nodeBytes = 192,
                           .aluPerIter = 8, .seed = 25}),
                randomK({.footprintBytes = 8ull << 20, .aluPerIter = 16,
                         .seed = 25})},
               20000, {6000, 30000}));
    add("astar.syn",
        phased("astar.syn",
               {ptrArray({.entries = 1 << 16, .objectBytes = 128,
                          .fieldOffset = 8, .aluPerIter = 24,
                          .seed = 26}),
                randomK({.footprintBytes = 4ull << 20, .aluPerIter = 16,
                         .seed = 26})},
               20000, {30000, 15000}));
    add("xalancbmk.syn",
        phased("xalancbmk.syn",
               {listChase({.nodes = 1 << 13, .nodeBytes = 256,
                           .aluPerIter = 8, .seed = 27}),
                region({.regions = 1 << 12, .linesPerVisit = 10,
                        .seed = 27})},
               20000, {6000, 30000}));

    // Dense-region / mixed irregular.
    add("bzip2.syn",
        phased("bzip2.syn",
               {stream({.streams = 1, .strideBytes = 8,
                        .footprintBytes = 4ull << 20, .aluPerIter = 6,
                        .seed = 28}),
                region({.regions = 1 << 12, .linesPerVisit = 11,
                        .seed = 28})}));
    add("gcc.syn",
        phased("gcc.syn",
               {randomK({.footprintBytes = 6ull << 20, .aluPerIter = 16,
                         .seed = 29}),
                region({.regions = 1 << 13, .linesPerVisit = 9,
                        .randomRegionOrder = true, .seed = 29}),
                alu({.workingSetBytes = 64 << 10, .aluPerIter = 8,
                     .seed = 29})}));
    add("h264ref.syn",
        phased("h264ref.syn",
               {region({.regions = 1 << 11, .linesPerVisit = 13,
                        .seed = 30}),
                stream({.streams = 2, .strideBytes = 16,
                        .footprintBytes = 2ull << 20, .aluPerIter = 10,
                        .seed = 30})}));
    add("soplex.syn", csr({.vertices = 1 << 15, .avgDegree = 10,
                           .aluPerEdge = 6, .seed = 31}));

    if (out.size() != 21)
        panic("speclike suite must have 21 workloads");
    return out;
}

std::vector<WorkloadSpec>
buildCrono()
{
    std::vector<WorkloadSpec> out;
    auto add = [&out](std::string name, Factory f) {
        out.push_back({std::move(name), "crono", std::move(f)});
    };
    add("bfs.syn", csr({.vertices = 1 << 16, .avgDegree = 6,
                        .aluPerEdge = 5, .seed = 41}));
    add("sssp.syn", csr({.vertices = 1 << 15, .avgDegree = 10,
                         .aluPerEdge = 7, .seed = 42}));
    add("pagerank.syn",
        phased("pagerank.syn",
               {csr({.vertices = 1 << 15, .avgDegree = 12,
                     .aluPerEdge = 6, .seed = 43}),
                stream({.streams = 2, .strideBytes = 8,
                        .footprintBytes = 4ull << 20, .aluPerIter = 6,
                        .seed = 43})}));
    add("connected-comp.syn",
        phased("connected-comp.syn",
               {csr({.vertices = 1 << 16, .avgDegree = 4,
                     .aluPerEdge = 5, .seed = 44}),
                randomK({.footprintBytes = 8ull << 20, .aluPerIter = 14,
                         .seed = 44})}));
    return out;
}

std::vector<WorkloadSpec>
buildStarbench()
{
    std::vector<WorkloadSpec> out;
    auto add = [&out](std::string name, Factory f) {
        out.push_back({std::move(name), "starbench", std::move(f)});
    };
    add("md5.syn", stream({.streams = 1, .strideBytes = 64,
                           .footprintBytes = 512ull << 10,
                           .aluPerIter = 20, .seed = 51}));
    add("rgbyuv.syn", stream({.streams = 3, .strideBytes = 16,
                              .footprintBytes = 16ull << 20,
                              .aluPerIter = 12, .storeStream = true,
                              .seed = 52}));
    add("rotate.syn", stream({.streams = 1, .strideBytes = 4096,
                              .footprintBytes = 16ull << 20,
                              .aluPerIter = 12, .seed = 53}));
    add("kmeans.syn",
        phased("kmeans.syn",
               {stream({.streams = 2, .strideBytes = 8,
                        .footprintBytes = 8ull << 20, .aluPerIter = 8,
                        .seed = 54}),
                bucket({.inputBytes = 4ull << 20, .buckets = 1 << 10,
                        .seed = 54})}));
    add("streamcluster.syn",
        phased("streamcluster.syn",
               {stream({.streams = 1, .strideBytes = 16,
                        .footprintBytes = 12ull << 20, .aluPerIter = 8,
                        .seed = 55}),
                randomK({.footprintBytes = 2ull << 20, .aluPerIter = 14,
                         .seed = 55})}));
    return out;
}

std::vector<WorkloadSpec>
buildNpb()
{
    std::vector<WorkloadSpec> out;
    auto add = [&out](std::string name, Factory f) {
        out.push_back({std::move(name), "npb", std::move(f)});
    };
    add("cg.syn", csr({.vertices = 1 << 14, .avgDegree = 16,
                       .aluPerEdge = 6, .seed = 61}));
    add("mg.syn",
        phased("mg.syn",
               {stencil({.rows = 256, .cols = 1024, .aluPerIter = 10,
                         .seed = 62}),
                stream({.streams = 2, .strideBytes = 512,
                        .footprintBytes = 16ull << 20, .aluPerIter = 16,
                        .seed = 62})}));
    add("ft.syn", stream({.streams = 1, .strideBytes = 1024,
                          .footprintBytes = 32ull << 20,
                          .aluPerIter = 16, .seed = 63}));
    add("is.syn", bucket({.inputBytes = 16ull << 20,
                          .buckets = 1 << 18, .seed = 64}));
    add("bt.syn", stencil({.rows = 512, .cols = 512, .aluPerIter = 12,
                           .seed = 65}));
    add("lu.syn", stencil({.rows = 1024, .cols = 1024,
                           .aluPerIter = 10, .seed = 66}));
    add("ep.syn", alu({.workingSetBytes = 16 << 10, .aluPerIter = 16,
                       .aluLatency = 3, .seed = 67}));
    return out;
}

std::vector<WorkloadSpec>
buildTemporal()
{
    std::vector<WorkloadSpec> out;
    auto add = [&out](std::string name, Factory f) {
        out.push_back({std::move(name), "temporal", std::move(f)});
    };
    // Working sets sized so the recurring pair set per extra fits a
    // 4k-entry temporal history table (2k pairs/stream) while still
    // blowing out the L1/L2: temporal metadata can win, address
    // patterns cannot.
    add("tempstream.syn", tempStream({.elements = 1 << 11,
                                      .aluPerIter = 4, .seed = 71}));
    add("shuflist.syn", shufList({.nodes = 1 << 11, .nodeBytes = 128,
                                  .traversalsPerShuffle = 4,
                                  .swapsPerShuffle = 64,
                                  .aluPerIter = 4, .seed = 72}));
    add("histwalk.syn", histWalk({.elements = 1 << 11,
                                  .aluPerIter = 6, .seed = 73}));
    add("markovmix.syn",
        phased("markovmix.syn",
               {tempStream({.elements = 1 << 11, .aluPerIter = 6,
                            .seed = 74}),
                shufList({.nodes = 1 << 11, .traversalsPerShuffle = 8,
                          .swapsPerShuffle = 32, .aluPerIter = 6,
                          .seed = 74})}));
    return out;
}

} // namespace

const std::vector<WorkloadSpec> &
speclikeSuite()
{
    static const auto suite = buildSpeclike();
    return suite;
}

const std::vector<WorkloadSpec> &
cronoSuite()
{
    static const auto suite = buildCrono();
    return suite;
}

const std::vector<WorkloadSpec> &
starbenchSuite()
{
    static const auto suite = buildStarbench();
    return suite;
}

const std::vector<WorkloadSpec> &
npbSuite()
{
    static const auto suite = buildNpb();
    return suite;
}

const std::vector<WorkloadSpec> &
temporalSuite()
{
    static const auto suite = buildTemporal();
    return suite;
}

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const auto all = [] {
        std::vector<WorkloadSpec> out = speclikeSuite();
        for (const auto &suite :
             {cronoSuite(), starbenchSuite(), npbSuite(),
              temporalSuite()}) {
            out.insert(out.end(), suite.begin(), suite.end());
        }
        return out;
    }();
    return all;
}

const std::vector<WorkloadSpec> &
traceSuite()
{
    static const auto suite = [] {
        std::vector<WorkloadSpec> out;
        const char *env = std::getenv("DOL_TRACE_DIR");
        const std::string dir = env ? env : "tests/traces";

        std::error_code ec;
        std::vector<std::string> paths;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir, ec)) {
            if (!entry.is_regular_file(ec))
                continue;
            const std::string path = entry.path().string();
            const auto has_suffix = [&path](const char *suffix) {
                const std::size_t len = std::string(suffix).size();
                return path.size() > len &&
                       path.compare(path.size() - len, len, suffix) == 0;
            };
            if (has_suffix(".champsim") || has_suffix(".champsim.xz"))
                paths.push_back(path);
        }
        std::sort(paths.begin(), paths.end());

        for (const std::string &path : paths)
            out.push_back(champSimWorkload(path));
        return out;
    }();
    return suite;
}

WorkloadSpec
champSimWorkload(const std::string &path)
{
    const std::string name = "trace:" + champSimTraceStem(path);
    return {name, "trace", [path, name](MemoryImage &memory) {
                std::vector<ChampSimInstr> records;
                std::string error;
                if (!readChampSimTrace(path, records, &error))
                    fatal(error);
                return std::make_unique<ReplayKernel>(
                    memory, name, expandChampSimTrace(records));
            }};
}

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : allWorkloads()) {
        if (spec.name == name)
            return spec;
    }
    for (const WorkloadSpec &spec : traceSuite()) {
        if (spec.name == name)
            return spec;
    }
    fatal("unknown workload: " + name);
}

} // namespace dol
