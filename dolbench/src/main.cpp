/**
 * @file
 * dolbench: the measuring half of the repository benchmark. run.py
 * builds it, runs one mode per process, and turns the raw JSON it
 * writes into metrics.
 *
 *   dolbench measure --workload W --variant K --seconds S --out F
 *   dolbench setup   --workload W --variant K --t0 NS
 *   dolbench trace   --workload W --variant K --out F --spans F
 *                    [--plant-mismatch CELL]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

int
main(int argc, char **argv)
{
    using namespace dolbench;
    Args args;
    if (argc < 2) {
        std::fprintf(stderr, "usage: dolbench measure|setup|trace ...\n");
        return 2;
    }
    args.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--variant")
            args.variant = static_cast<unsigned>(std::stoul(value));
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--out")
            args.out = value;
        else if (flag == "--spans")
            args.spans = value;
        else if (flag == "--t0")
            args.t0Ns = std::stoll(value);
        else if (flag == "--plant-mismatch")
            args.plantMismatch = std::stoll(value);
        else {
            std::fprintf(stderr, "dolbench: unknown flag %s\n",
                         flag.c_str());
            return 2;
        }
    }
    const WorkloadDef *def = findWorkloadDef(args.workload);
    if (!def || args.variant >= kSeedVariants) {
        std::fprintf(stderr, "dolbench: bad workload or variant\n");
        return 2;
    }
    try {
        if (args.mode == "measure")
            return runMeasure(*def, args);
        if (args.mode == "setup")
            return runSetup(*def, args);
        if (args.mode == "trace")
            return runTraced(*def, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dolbench: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "dolbench: unknown mode %s\n", args.mode.c_str());
    return 2;
}
