/**
 * @file
 * T2 design-choice ablations (DESIGN.md): the mPC call-site
 * disambiguation (paper IV-A.2), the NLPCT, and the strided-confirm
 * threshold, each evaluated on the kernels that exercise them.
 */

#include <cstdio>

#include "bench/harness.hpp"
#include "core/composite.hpp"
#include "workloads/stream_kernels.hpp"

namespace
{

dol::bench::Collector &
collector()
{
    static dol::bench::Collector instance(150000);
    return instance;
}

dol::WorkloadSpec
callStreamSpec()
{
    return {"callstream.abl", "ablation", [](dol::MemoryImage &image) {
                return std::make_unique<dol::CallStreamKernel>(
                    image, dol::CallStreamKernel::Params{
                               .strideA = 64,
                               .strideB = 192,
                               .footprintBytes = 16ull << 20,
                               .seed = 77});
            }};
}

dol::RunOptions
t2Variant(const std::function<void(dol::T2Prefetcher::Params &)> &tune)
{
    dol::RunOptions options;
    options.factory = [tune](const dol::ValueSource *memory) {
        dol::CompositePrefetcher::Config config;
        config.enableP1 = false;
        config.enableC1 = false;
        tune(config.t2);
        return std::make_unique<dol::CompositePrefetcher>(
            memory, config, "T2.variant");
    };
    return options;
}

void
printSummary()
{
    using namespace dol;
    using namespace dol::bench;

    std::printf("\n== T2 design ablations ==\n");
    TextTable table({"variant", "workload", "speedup", "accuracy",
                     "scope"});
    for (const RunOutput &run : collector().results()) {
        table.addRow({run.prefetcher, run.workload,
                      fmt("%.3f", run.speedup()),
                      fmt("%.2f", run.effAccuracyL1),
                      fmt("%.2f", run.scope)});
    }
    table.print();
    std::printf("(the mPC xor is what lets T2 split the two call-site "
                "streams; without it scope collapses)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dol;
    using namespace dol::bench;

    const WorkloadSpec call_stream = callStreamSpec();
    const WorkloadSpec &stencil = findWorkload("lbm.syn");
    const WorkloadSpec &stream = findWorkload("libquantum.syn");

    // mPC xor on/off on the call-site workload.
    collector().addCell(call_stream, "T2-mPC",
                        t2Variant([](T2Prefetcher::Params &) {}));
    collector().addCell(call_stream, "T2-noXor",
                        t2Variant([](T2Prefetcher::Params &params) {
                            params.useCallSiteXor = false;
                        }));

    // NLPCT size on the stencil (nested-loop) workload.
    collector().addCell(stencil, "T2-nlpct20",
                        t2Variant([](T2Prefetcher::Params &) {}));
    collector().addCell(stencil, "T2-nlpct1",
                        t2Variant([](T2Prefetcher::Params &params) {
                            params.nlpctEntries = 1;
                        }));

    // Strided-confirm threshold sweep on a clean stream.
    for (unsigned threshold : {4u, 16u, 64u}) {
        collector().addCell(
            stream, "T2-confirm" + std::to_string(threshold),
            t2Variant([threshold](T2Prefetcher::Params &params) {
                params.strideThreshold = threshold;
            }));
    }

    // Early-issue threshold: disable early prefetching entirely.
    collector().addCell(stream, "T2-noEarly",
                        t2Variant([](T2Prefetcher::Params &params) {
                            params.earlyThreshold = 255;
                        }));

    return benchMain(argc, argv, &collector(), printSummary);
}
