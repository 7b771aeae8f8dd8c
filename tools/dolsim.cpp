/**
 * @file
 * dolsim — command-line experiment driver.
 *
 * Runs any (workload, prefetcher) combination and reports the paper's
 * metrics; sweeps over whole suites run in parallel on the runner
 * subsystem (deterministic: `--jobs 1` and `--jobs N` emit identical
 * metric rows) with CSV and structured JSON output for plotting.
 *
 *   dolsim --list
 *   dolsim --workload libquantum.syn --prefetcher TPC
 *   dolsim --suite spec --prefetcher TPC,SPP,BOP --jobs 8 --csv
 *   dolsim --suite all --prefetcher TPC --json results.json
 *   dolsim --workload mcf.syn --prefetcher TPC --dest l2
 *   dolsim --workload mcf.syn --prefetcher TPC --trace run.trc
 *   dolsim --dump-trace run.trc
 *   dolsim --workload mcf.syn --counters --json results.json
 *   dolsim --suite spec --shard 0/2 --checkpoint s0.ckpt
 *   dolsim --merge s0.ckpt,s1.ckpt --json results.json
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <csignal>

#include "check/campaign.hpp"
#include "common/log.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"
#include "runner/fault.hpp"
#include "runner/merge.hpp"
#include "runner/sweep.hpp"
#include "sim/contention.hpp"
#include "sim/experiment.hpp"
#include "trace/trace_io.hpp"
#include "workloads/contention.hpp"
#include "workloads/suite.hpp"
#include "workloads/trace_file.hpp"

namespace
{

using dol::runner::parseUnsignedInRange;
using dol::runner::splitCommas;

struct Options
{
    std::vector<std::string> workloads; ///< libquantum.syn if none
    std::vector<std::string> prefetchers; ///< TPC if none
    std::uint64_t instrs = 200000;
    unsigned jobs = 0; ///< 0 = hardware concurrency
    bool csv = false;
    bool list = false;
    bool quiet = false; ///< suppress the progress line
    bool counters = false; ///< collect per-component counters
    std::string json; ///< write dol-sweep-v1 JSON to this file
    std::string record; ///< record the one workload's trace to a file
    std::string replay; ///< replay a trace file as the workload
    std::string trace; ///< write binary event trace(s) to this path
    std::string dumpTrace; ///< dump a binary event trace as text
    std::string dest; ///< "", "l1", "l2", "stratified"
    bool adaptiveCoordinator = false; ///< --coordinator adaptive
    std::string traceIn; ///< ChampSim trace to run as the workload

    // Multi-core contention scenarios (src/sim/contention.hpp).
    std::vector<std::string> mixes; ///< named contention mixes
    std::vector<std::string> arbitrations; ///< empty: demand-first
    bool listMixes = false;

    // Differential fuzzing (src/check/).
    std::uint64_t fuzz = 0; ///< campaign size; 0 = no campaign
    /** --fuzz, --fuzz-adaptive or --fuzz-multicore. */
    dol::check::CampaignKind fuzzKind =
        dol::check::CampaignKind::kDifferential;
    std::uint64_t fuzzSeed = 1;
    std::string fuzzDir = "fuzz-repro";
    std::string fuzzMutate; ///< reference-model mutation (self-test)
    std::string fuzzReplay; ///< shrunk reproducer trace to re-check
    std::uint64_t fuzzCaseSeed = 0;

    // Fault tolerance (README "Fault tolerance").
    std::string checkpoint; ///< journal completed cells here
    bool resume = false; ///< skip cells the journal records
    std::uint64_t cellTimeoutMs = 0; ///< per-cell budget; 0 = none
    std::string faultPlanSpec; ///< deterministic fault injection

    // Sharded sweeps (README "Sharded sweeps").
    std::uint64_t shardIndex = 0; ///< --shard i/N: run range i
    std::uint64_t shardCount = 0; ///< ... of N; 0 = not a shard
    std::vector<std::string> merge; ///< shard journals to merge
    /** Replicate the grid K times with variants :s0..:sK-1 (distinct
     *  per-cell seeds) — cheap way to scale a grid up. */
    std::uint64_t seedVariants = 0;
};

void
usage()
{
    std::printf(
        "usage: dolsim [options]\n"
        "  --list                     list workloads and exit\n"
        "  --workload NAME[,NAME...]  workloads to run\n"
        "  --suite NAME               "
        "spec|crono|starbench|npb|temporal|trace|all\n"
        "  --prefetcher NAME[,...]    registry names (default TPC)\n"
        "  --instrs N                 instruction budget (default "
        "200000)\n"
        "  --jobs N                   parallel sweep workers "
        "(default: hardware threads)\n"
        "  --json FILE                write structured results "
        "(dol-sweep-v1)\n"
        "  --dest l1|l2|stratified    force/oracle prefetch "
        "destination\n"
        "  --coordinator MODE         hardwired|adaptive (default "
        "hardwired)\n"
        "  --trace-in FILE            run a ChampSim trace "
        "(.champsim/.champsim.xz) as\n"
        "                             the workload\n"
        "  --record FILE              record the workload's trace\n"
        "  --replay FILE              replay a recorded trace\n"
        "  --trace FILE               write binary event trace(s); "
        "multi-cell sweeps\n"
        "                             write FILE.<workload>.<pf>\n"
        "  --dump-trace FILE          print a binary event trace as "
        "text and exit\n"
        "  --counters                 collect decision counters "
        "(JSON \"counters\")\n"
        "  --list-mixes               list contention mixes and exit\n"
        "  --mix NAME[,NAME...]       run named contention mixes "
        "(heterogeneous cores,\n"
        "                             solo baselines, fairness "
        "metrics)\n"
        "  --arbitration P[,P...]     DRAM arbitration per mix run: "
        "demand-first|fifo|rr\n"
        "  --fuzz N                   run an N-case differential "
        "fuzz campaign\n"
        "  --fuzz-multicore N         run an N-case multicore "
        "determinism/attribution campaign\n"
        "  --fuzz-adaptive N          run an N-case adaptive-vs-"
        "hardwired differential campaign\n"
        "                             (campaigns take --jobs, "
        "--checkpoint/--resume, --fault-plan)\n"
        "  --fuzz-seed S              campaign master seed "
        "(default 1)\n"
        "  --fuzz-dir DIR             shrunk-reproducer directory "
        "(default fuzz-repro)\n"
        "  --fuzz-mutate NAME         plant a reference-model bug: "
        "lru|rebind|t2confirm|rebind3\n"
        "                             (--fuzz), degstick "
        "(--fuzz-adaptive), arbdrift\n"
        "                             (--fuzz-multicore)\n"
        "  --fuzz-replay FILE         re-check a shrunk reproducer "
        "(with --fuzz-case-seed)\n"
        "  --fuzz-case-seed S         case seed from the "
        "reproducer's sidecar\n"
        "  --checkpoint FILE          journal completed cells to FILE "
        "(crash-safe)\n"
        "  --resume                   skip cells FILE already "
        "journaled\n"
        "  --cell-timeout MS          wall-clock budget per single-core "
        "cell\n"
        "  --fault-plan SPEC          inject faults: "
        "throw|hang|abort|stop@CELL,...\n"
        "  --shard I/N                run cell range I of N into "
        "--checkpoint FILE\n"
        "                             (the journal is the output; "
        "keep it for --merge)\n"
        "  --merge FILE[,FILE...]     merge shard journals into "
        "--json FILE and exit\n"
        "  --seed-variants K          replicate the grid K times as "
        "variants :s0..:sK-1\n"
        "  --csv                      machine-readable output\n"
        "  --quiet                    no progress line on stderr\n"
        "mode: the first of these given, else a sweep: --list --list-mixes\n"
        "  --dump-trace --merge --fuzz-replay --fuzz --fuzz-adaptive\n"
        "  --fuzz-multicore --mix --record --shard --replay --trace-in\n"
        "  --trace; a mode refuses every flag it does not read but --quiet\n"
        "lists: --workload, --suite, --prefetcher, --mix, --arbitration and\n"
        "  --merge add up when repeated; a name given twice is an error\n"
        "exit codes: 0 ok, 1 usage/fatal error, 3 cells quarantined "
        "in failed_cells,\n"
        "            128+signal interrupted (drained; re-run with "
        "--resume)\n");
}

using Given = std::vector<std::pair<std::string, std::string>>;

/**
 * Exit 1 on a command line its mode does not fully read, or on a flag
 * given without the flag it needs. @p given holds every flag given,
 * in command-line order, with its value ("" for a switch).
 */
void
checkFlags(const Given &given)
{
    const auto has = [&](const std::string &flag) {
        return std::any_of(given.begin(), given.end(),
                           [&](const auto &g) { return g.first == flag; });
    };

    // Each mode with the flags its path in main() reads, in the order
    // that picks the mode: the first of these mode flags given, else
    // a plain sweep (the last row). A mode also takes its own flag and
    // --quiet; --help exits before this check. `run` is what every
    // SweepRunner run reads, `cell` what single-core cells add to it
    // (only they poll the --cell-timeout deadline), and `grid` the
    // cells' selection by name.
    const std::string run = " --jobs --checkpoint --resume --fault-plan";
    const std::string cell = " --prefetcher --instrs --counters --dest"
                             " --coordinator --cell-timeout" + run;
    const std::string grid = " --workload --suite" + cell;
    const std::pair<std::string, std::string> modes[] = {
        {"--list", ""},
        {"--list-mixes", ""},
        {"--dump-trace", ""},
        {"--merge", " --json"},
        {"--fuzz-replay", " --fuzz-case-seed --fuzz-mutate"},
        {"--fuzz", " --fuzz-seed --fuzz-dir --fuzz-mutate" + run},
        {"--fuzz-adaptive", " --fuzz-seed --fuzz-mutate" + run},
        {"--fuzz-multicore", " --fuzz-seed --fuzz-mutate" + run},
        {"--mix", " --arbitration --instrs --counters --json --csv" + run},
        {"--record", " --workload --instrs"},
        {"--shard", " --seed-variants" + grid},
        {"--replay", " --trace --json --csv" + cell},
        {"--trace-in", " --trace --json --csv" + cell},
        {"--trace", " --json --csv" + grid},
        {"a sweep", " --seed-variants --json --csv" + grid},
    };
    const auto &[mode, reads] = *std::find_if(
        std::begin(modes), std::end(modes) - 1,
        [&](const auto &row) { return has(row.first); });
    const std::string takes = reads + " --quiet ";
    for (const auto &[flag, value] : given) {
        if (flag != mode && takes.find(" " + flag + " ") == std::string::npos)
            dol::fatal(mode + " does not take " + flag +
                       (value.empty() ? "" : " " + value));
    }

    // What the table cannot say: a flag that needs another.
    const std::pair<std::string, std::string> needs[] = {
        {"--resume", "--checkpoint"}, {"--shard", "--checkpoint"},
        {"--merge", "--json"}, {"--fuzz-replay", "--fuzz-case-seed"}};
    for (const auto &[flag, needed] : needs) {
        if (has(flag) && !has(needed))
            dol::fatal(flag + " needs " + needed);
    }
}

/** The file a journal name reaches: symlinks, `.` and `..` resolved. */
std::filesystem::path
resolvedJournal(const std::string &name)
{
    std::error_code ec;
    std::filesystem::path path = std::filesystem::weakly_canonical(name, ec);
    return ec ? std::filesystem::absolute(name).lexically_normal() : path;
}

Options
parse(int argc, char **argv)
{
    Options options;
    Given given;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        given.push_back({arg, ""});
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                dol::fatal("missing value for " + arg);
            return given.back().second = argv[++i];
        };
        auto nextPath = [&]() -> std::string {
            const std::string value = next();
            if (value.empty())
                dol::fatal("empty path for " + arg);
            return value;
        };
        auto nextList = [&]() -> std::vector<std::string> {
            std::vector<std::string> names = splitCommas(next());
            if (names.empty())
                dol::fatal("empty " + arg + " list");
            return names;
        };
        if (arg == "--list") {
            options.list = true;
        } else if (arg == "--workload") {
            for (const auto &name : nextList())
                options.workloads.push_back(name);
        } else if (arg == "--suite") {
            // The trace suite scans $DOL_TRACE_DIR and is kept out of
            // allWorkloads() (and "all") on purpose — see
            // workloads/suite.hpp.
            const std::string suite = next();
            const std::size_t before = options.workloads.size();
            for (const auto &spec : suite == "trace" ? dol::traceSuite()
                                                     : dol::allWorkloads()) {
                if (suite == "all" || spec.suite == suite)
                    options.workloads.push_back(spec.name);
            }
            if (options.workloads.size() == before && suite == "trace")
                dol::fatal("no ChampSim traces found for --suite trace "
                           "(set DOL_TRACE_DIR or add *.champsim files "
                           "under tests/traces)");
            if (options.workloads.size() == before)
                dol::fatal("unknown suite: " + suite);
        } else if (arg == "--coordinator") {
            const std::string mode = next();
            if (!dol::runner::parseCoordinatorMode(
                    mode, options.adaptiveCoordinator)) {
                dol::fatal("bad --coordinator value: '" + mode +
                           "' (hardwired|adaptive)");
            }
        } else if (arg == "--trace-in") {
            options.traceIn = nextPath();
        } else if (arg == "--prefetcher") {
            for (const auto &name : nextList())
                options.prefetchers.push_back(name);
        } else if (arg == "--instrs") {
            const std::string value = next();
            if (!parseUnsignedInRange(value, 1, UINT64_MAX,
                                      options.instrs)) {
                dol::fatal("bad --instrs value: " + value);
            }
        } else if (arg == "--jobs") {
            // Strict: rejects "-1" (would wrap through strtoul),
            // "abc", "1e3", "". 0 means hardware concurrency.
            const std::string value = next();
            std::uint64_t jobs = 0;
            if (!parseUnsignedInRange(value, 0, 4096, jobs))
                dol::fatal("bad --jobs value: " + value);
            options.jobs = static_cast<unsigned>(jobs);
        } else if (arg == "--json") {
            options.json = nextPath();
        } else if (arg == "--dest") {
            options.dest = next();
        } else if (arg == "--record") {
            options.record = nextPath();
        } else if (arg == "--replay") {
            options.replay = nextPath();
        } else if (arg == "--trace") {
            options.trace = nextPath();
        } else if (arg == "--dump-trace") {
            options.dumpTrace = nextPath();
        } else if (arg == "--list-mixes") {
            options.listMixes = true;
        } else if (arg == "--mix") {
            for (const auto &name : nextList())
                options.mixes.push_back(name);
        } else if (arg == "--arbitration") {
            for (const auto &name : nextList())
                options.arbitrations.push_back(name);
        } else if (arg == "--fuzz" || arg == "--fuzz-adaptive" ||
                   arg == "--fuzz-multicore") {
            const std::string value = next();
            if (!parseUnsignedInRange(value, 1, UINT64_MAX,
                                      options.fuzz)) {
                dol::fatal("bad " + arg + " value: " + value);
            }
            using dol::check::CampaignKind;
            options.fuzzKind = arg == "--fuzz" ? CampaignKind::kDifferential
                               : arg == "--fuzz-adaptive"
                                   ? CampaignKind::kAdaptive
                                   : CampaignKind::kMulticore;
        } else if (arg == "--fuzz-seed") {
            const std::string value = next();
            if (!parseUnsignedInRange(value, 0, UINT64_MAX,
                                      options.fuzzSeed)) {
                dol::fatal("bad --fuzz-seed value: " + value);
            }
        } else if (arg == "--fuzz-dir") {
            options.fuzzDir = nextPath();
        } else if (arg == "--fuzz-mutate") {
            options.fuzzMutate = next();
        } else if (arg == "--fuzz-replay") {
            options.fuzzReplay = nextPath();
        } else if (arg == "--fuzz-case-seed") {
            const std::string value = next();
            if (!parseUnsignedInRange(value, 0, UINT64_MAX,
                                      options.fuzzCaseSeed)) {
                dol::fatal("bad --fuzz-case-seed value: " + value);
            }
        } else if (arg == "--checkpoint") {
            options.checkpoint = nextPath();
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--cell-timeout") {
            const std::string value = next();
            if (!parseUnsignedInRange(value, 1, UINT64_MAX,
                                      options.cellTimeoutMs)) {
                dol::fatal("bad --cell-timeout value: " + value);
            }
        } else if (arg == "--fault-plan") {
            options.faultPlanSpec = next();
        } else if (arg == "--shard") {
            const std::string value = next();
            if (!dol::runner::parseShard(value, options.shardIndex,
                                         options.shardCount)) {
                dol::fatal("bad --shard value: " + value +
                           " (want I/N with 0 <= I < N)");
            }
        } else if (arg == "--merge") {
            // Command-line order is commit order.
            for (const auto &name : nextList())
                options.merge.push_back(name);
        } else if (arg == "--seed-variants") {
            const std::string value = next();
            if (!parseUnsignedInRange(value, 1, 65536,
                                      options.seedVariants)) {
                dol::fatal("bad --seed-variants value: " + value);
            }
        } else if (arg == "--counters") {
            options.counters = true;
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            dol::fatal("unknown option: " + arg);
        }
    }
    checkFlags(given);
    // A name given twice would run its cells twice, under one seed;
    // a journal given twice, under any spelling of its file, would
    // merge its cells twice.
    std::vector<std::string> journals;
    for (const std::string &name : options.merge)
        journals.push_back(resolvedJournal(name).string());
    const std::pair<std::string, const std::vector<std::string> &> lists[] = {
        {"workload", options.workloads},
        {"prefetcher", options.prefetchers},
        {"mix", options.mixes},
        {"arbitration", options.arbitrations},
        {"journal", journals}};
    for (const auto &[kind, names] : lists) {
        for (auto it = names.begin(); it != names.end(); ++it) {
            const auto first = std::find(names.begin(), it, *it);
            if (first == it)
                continue;
            if (kind != "journal")
                dol::fatal(kind + " " + *it + " given twice");
            const std::string &given = options.merge[it - names.begin()];
            const std::string &earlier =
                options.merge[first - names.begin()];
            dol::fatal("journal " + given + " given twice" +
                       (given == earlier ? "" : " (as " + earlier + ")"));
        }
    }
    if (options.workloads.empty())
        options.workloads.push_back("libquantum.syn");
    if (options.prefetchers.empty())
        options.prefetchers = {"TPC"};
    if (options.arbitrations.empty())
        options.arbitrations = {"demand-first"};
    return options;
}

/** Exit status for a drained run: 128+signal, like the shell reports
 *  for a killed process; 128+SIGINT when the drain came from a stop
 *  fault rather than a real signal. */
int
interruptedExitCode()
{
    const int signo = dol::runner::lastStopSignal();
    return 128 + (signo ? signo : SIGINT);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dol;
    const Options options = parse(argc, argv);

    if (options.list) {
        TextTable table({"workload", "suite"});
        for (const auto &spec : allWorkloads())
            table.addRow({spec.name, spec.suite});
        table.print();
        return 0;
    }

    if (options.listMixes) {
        TextTable table({"mix", "cores", "prefetchers", "description"});
        for (const ContentionMix &mix : contentionMixes()) {
            table.addRow({mix.name,
                          std::to_string(mix.cores.size()),
                          mixPrefetcherLabel(mix), mix.description});
        }
        table.print();
        return 0;
    }

    if (!options.dumpTrace.empty()) {
        std::string error;
        if (!dumpTraceText(options.dumpTrace, stdout, &error)) {
            std::fprintf(stderr, "dolsim: %s\n", error.c_str());
            return 1;
        }
        return 0;
    }

    if (!options.merge.empty()) {
        runner::ResultStore store;
        runner::SweepMeta meta;
        // The shards ran as separate processes: the journals carry
        // every cell's wall time, but no sweep-wide elapsed time.
        meta.jobs = static_cast<unsigned>(options.merge.size());
        const runner::MergeStats stats =
            runner::mergeJournals(options.merge, store, meta);
        if (!stats.ok)
            fatal("--merge: " + stats.error);
        if (!store.writeJsonFile(options.json, meta))
            fatal("--merge: cannot write " + options.json);
        if (!options.quiet) {
            std::fprintf(
                stderr,
                "merged %llu cells (%llu failed, %llu duplicates) "
                "from %zu journal(s) into %s\n",
                static_cast<unsigned long long>(stats.mergedCells),
                static_cast<unsigned long long>(stats.failedCells),
                static_cast<unsigned long long>(
                    stats.duplicatesDiscarded),
                options.merge.size(), options.json.c_str());
        }
        return stats.failedCells ? 3 : 0;
    }

    const auto mutation = check::mutationFromName(options.fuzzMutate);
    if (!mutation)
        fatal("bad --fuzz-mutate value: " + options.fuzzMutate);

    if (!options.fuzzReplay.empty()) {
        if (!check::canPlant(check::CampaignKind::kDifferential,
                             *mutation)) {
            fatal("--fuzz-replay cannot plant mutation " +
                  options.fuzzMutate + " (it plants " +
                  check::plantableMutations(
                      check::CampaignKind::kDifferential) +
                  ")");
        }
        std::vector<TraceRecord> records;
        std::string error;
        if (!readTraceRecords(options.fuzzReplay, records, &error))
            fatal(error);
        check::CheckConfig check_config;
        check_config.params =
            check::makeFuzzParams(options.fuzzCaseSeed);
        check_config.mutation = *mutation;
        const check::DiffResult diff =
            check::checkTrace(records, check_config);
        std::printf("%s: %s\n", options.fuzzReplay.c_str(),
                    diff.summary().c_str());
        return diff.ok ? 0 : 1;
    }

    runner::FaultPlan fault_plan;
    if (!options.faultPlanSpec.empty()) {
        std::string error;
        if (!runner::FaultPlan::parse(options.faultPlanSpec,
                                      fault_plan, &error))
            fatal("bad --fault-plan: " + error);
    }
    // Execution options shared by sweeps and fuzz campaigns.
    runner::SweepOptions sweep_options;
    sweep_options.jobs = options.jobs;
    sweep_options.progress = !options.quiet;
    sweep_options.checkpointPath = options.checkpoint;
    sweep_options.resume = options.resume;
    sweep_options.cellTimeoutMs =
        static_cast<double>(options.cellTimeoutMs);
    // Cells that throw or time out land in the document's
    // failed_cells section instead of aborting the whole sweep.
    sweep_options.onError =
        runner::SweepOptions::OnError::kQuarantine;
    sweep_options.stopFlag = &runner::signalStopFlag();
    if (!fault_plan.empty())
        sweep_options.faultPlan = &fault_plan;

    if (options.fuzz > 0) {
        runner::installStopHandlers();
        check::CampaignOptions campaign;
        campaign.kind = options.fuzzKind;
        campaign.cases = options.fuzz;
        campaign.seed = options.fuzzSeed;
        campaign.mutation = *mutation;
        campaign.reproDir = options.fuzzDir;
        campaign.sweep = sweep_options;
        check::CampaignReport report;
        try {
            report = check::runCampaign(campaign);
        } catch (const std::exception &e) {
            fatal(e.what());
        }
        if (report.interrupted) {
            std::fprintf(stderr,
                         "dolsim: fuzz campaign interrupted (%llu of "
                         "%llu cases done)%s\n",
                         static_cast<unsigned long long>(
                             report.casesRun + report.casesResumed),
                         static_cast<unsigned long long>(report.cases),
                         options.checkpoint.empty()
                             ? ""
                             : "; re-run with --resume to continue");
            return interruptedExitCode();
        }
        std::fputs(report.summaryText().c_str(), stdout);
        if (report.ok() && !options.checkpoint.empty()) {
            std::error_code ec;
            std::filesystem::remove(options.checkpoint, ec);
        }
        return report.ok() ? 0 : 1;
    }

    SimConfig config;
    config.maxInstrs = options.instrs;

    if (!options.record.empty()) {
        if (options.workloads.size() != 1)
            fatal("--record takes one workload, not " +
                  std::to_string(options.workloads.size()));
        const WorkloadSpec &spec = findWorkload(options.workloads[0]);
        MemoryImage image;
        auto kernel = spec.factory(image);
        const std::uint64_t written =
            recordTrace(*kernel, options.record, options.instrs);
        std::printf("recorded %llu instructions of %s to %s\n",
                    static_cast<unsigned long long>(written),
                    spec.name.c_str(), options.record.c_str());
        return 0;
    }

    RunOptions run_options;
    if (options.dest == "l1")
        run_options.forceDest = kL1;
    else if (options.dest == "l2")
        run_options.forceDest = kL2;
    else if (options.dest == "stratified")
        run_options.oracleDest = true;
    else if (!options.dest.empty())
        fatal("bad --dest value: " + options.dest);

    run_options.adaptiveCoordinator = options.adaptiveCoordinator;

    std::vector<WorkloadSpec> specs;
    if (!options.traceIn.empty()) {
        specs.push_back(champSimWorkload(options.traceIn));
    } else if (!options.replay.empty()) {
        // Decode the file here, so a wrong format fails with its
        // message before any sweep worker starts. The stream is
        // shared, not copied, by the spec copies every cell holds.
        const std::string name = "replay:" + options.replay;
        const auto instrs = std::make_shared<const std::vector<Instr>>(
            readInstrTrace(options.replay));
        specs.push_back({name, "trace", [name, instrs](MemoryImage &image) {
                             return std::make_unique<ReplayKernel>(
                                 image, name, *instrs);
                         }});
    } else {
        for (const std::string &workload : options.workloads)
            specs.push_back(findWorkload(workload));
    }

    run_options.collectCounters = options.counters;

    runner::installStopHandlers();
    runner::SweepRunner sweep(config, sweep_options);
    const std::string variant =
        options.dest.empty() ? "" : ":" + options.dest;
    const bool single_cell =
        specs.size() == 1 && options.prefetchers.size() == 1;
    if (!options.mixes.empty()) {
        // Contention scenarios: one job per (mix, arbitration). The
        // job runs the solo baselines and the contended mix itself;
        // the row's counters carry per-core attribution + fairness.
        for (const std::string &mix_name : options.mixes) {
            const ContentionMix &mix = findContentionMix(mix_name);
            for (const std::string &arb_name : options.arbitrations) {
                ArbitrationPolicy policy;
                if (!arbitrationFromName(arb_name, policy))
                    fatal("bad --arbitration value: " + arb_name);
                sweep.addJob(
                    "mix:" + mix.name,
                    [&mix, policy](ExperimentRunner &runner) {
                        SimConfig job_config = runner.config();
                        job_config.mem.dram.arbitration = policy;
                        const ContentionOutcome outcome =
                            runContentionScenario(job_config, mix);
                        return std::vector<RunOutput>{
                            contentionRunOutput(outcome, mix)};
                    },
                    ":arb=" + arb_name);
            }
        }
    } else if (options.trace.empty()) {
        if (options.seedVariants) {
            // K grid copies under variants :s0..:sK-1. Each variant
            // changes the cell key, hence the per-cell seed — K
            // statistically independent replicas of the whole grid.
            for (std::uint64_t v = 0; v < options.seedVariants; ++v)
                sweep.addGrid(specs, options.prefetchers, run_options,
                              variant + ":s" + std::to_string(v));
        } else {
            sweep.addGrid(specs, options.prefetchers, run_options,
                          variant);
        }
    } else {
        // Tracing: each cell gets its own private file. A single cell
        // writes exactly --trace FILE; multi-cell sweeps derive
        // FILE.<workload>.<prefetcher><variant> per cell so parallel
        // jobs never share a writer (the determinism contract).
        for (const WorkloadSpec &spec : specs) {
            for (const std::string &prefetcher : options.prefetchers) {
                RunOptions cell = run_options;
                cell.tracePath =
                    single_cell ? options.trace
                                : runner::cellTracePath(options.trace,
                                                        spec.name,
                                                        prefetcher,
                                                        variant);
                sweep.addCell(spec, prefetcher, std::move(cell),
                              variant);
            }
        }
    }

    if (options.shardCount) {
        const std::uint64_t cells = sweep.pendingJobs();
        const auto ranges = runner::partitionRange(
            cells, static_cast<unsigned>(options.shardCount));
        // More shards than cells leave the last shards the empty range
        // [cells, cells): their journal holds just the plan, which
        // still merges.
        sweep_options.rangeBegin = sweep_options.rangeEnd = cells;
        if (options.shardIndex < ranges.size())
            std::tie(sweep_options.rangeBegin, sweep_options.rangeEnd) =
                ranges[options.shardIndex];
        sweep.setOptions(sweep_options);
    }

    runner::SweepRunner::Report report;
    try {
        report = sweep.run();
    } catch (const std::exception &e) {
        fatal(e.what());
    }

    if (report.interrupted) {
        // Partial run: keep the journal, write no outputs (a resumed
        // run produces the complete, byte-identical document).
        std::fprintf(
            stderr, "dolsim: sweep interrupted%s\n",
            options.checkpoint.empty()
                ? ""
                : "; re-run with --resume to continue from the "
                  "checkpoint");
        return interruptedExitCode();
    }

    for (const runner::FailedCell &cell : report.meta.failedCells) {
        std::fprintf(stderr, "dolsim: cell %s failed (%s): %s\n",
                     cell.label.c_str(), cell.kind.c_str(),
                     cell.error.c_str());
    }

    if (options.shardCount) {
        // A shard's journal is its output: no table, no JSON, and the
        // journal stays for --merge.
        if (!options.quiet) {
            std::fprintf(stderr,
                         "shard %llu/%llu: cells [%llu, %llu) journaled "
                         "to %s\n",
                         static_cast<unsigned long long>(
                             options.shardIndex),
                         static_cast<unsigned long long>(
                             options.shardCount),
                         static_cast<unsigned long long>(
                             sweep_options.rangeBegin),
                         static_cast<unsigned long long>(
                             sweep_options.rangeEnd),
                         options.checkpoint.c_str());
        }
        return report.meta.failedCells.empty() ? 0 : 3;
    }

    if (options.csv) {
        std::fputs(report.store.toCsv().c_str(), stdout);
    } else {
        TextTable table({"workload", "prefetcher", "speedup", "scope",
                         "accL1", "covL1", "traffic"});
        for (const runner::MetricsRow &row : report.store.rows()) {
            table.addRow({row.workload, row.prefetcher,
                          fmt("%.3f", row.speedup),
                          fmt("%.2f", row.scope),
                          fmt("%.2f", row.effAccuracyL1),
                          fmt("%.2f", row.effCoverageL1),
                          fmt("%.3f", row.trafficNormalized)});
        }
        table.print();
        if (options.counters) {
            for (const runner::MetricsRow &row : report.store.rows()) {
                std::printf("\n# counters %s/%s%s\n",
                            row.workload.c_str(),
                            row.prefetcher.c_str(),
                            row.variant.c_str());
                std::fputs(row.counters.toText().c_str(), stdout);
            }
        }
    }

    if (!options.json.empty()) {
        runner::SweepMeta meta = report.meta;
        meta.generator = "dolsim";
        if (!report.store.writeJsonFile(options.json, meta))
            fatal("cannot write " + options.json);
        if (!options.quiet) {
            std::fprintf(stderr, "wrote %s (%zu rows)\n",
                         options.json.c_str(),
                         report.store.rows().size());
        }
    }

    if (!options.checkpoint.empty() &&
        report.meta.failedCells.empty()) {
        // Complete and clean: the journal has nothing left to resume.
        std::error_code ec;
        std::filesystem::remove(options.checkpoint, ec);
    }
    return report.meta.failedCells.empty() ? 0 : 3;
}
