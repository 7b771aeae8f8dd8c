#include "check/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>

#include "check/adaptive_check.hpp"
#include "check/multicore_check.hpp"
#include "check/shrink.hpp"

namespace dol::check
{

namespace
{

/** Per-kind constants: the summary heading, the job label prefix
 *  (part of the journal identity) and the plantable mutations. */
struct KindInfo
{
    const char *title;
    const char *label;
    std::vector<Mutation> mutations;
};

const KindInfo &
kindInfo(CampaignKind kind)
{
    static const KindInfo kKinds[] = {
        {"fuzz campaign",
         "fuzz",
         {Mutation::kLruVictimOffByOne, Mutation::kDropRebinding,
          Mutation::kT2ConfirmThreshold, Mutation::kRebindWrongExtra}},
        {"adaptive fuzz", "fuzz-adaptive", {Mutation::kDegreeRampStuck}},
        {"multicore fuzz",
         "fuzz-multicore",
         {Mutation::kArbitrationDrift}},
    };
    return kKinds[static_cast<int>(kind)];
}

/** Only differential failures get reproducer files: `--fuzz-replay`
 *  re-checks differential traces only. */
bool
writesReproducers(CampaignKind kind)
{
    return kind == CampaignKind::kDifferential;
}

std::string
caseLabel(CampaignKind kind, std::uint64_t index)
{
    return std::string(kindInfo(kind).label) + "/case" +
           std::to_string(index);
}

using TraceCheck =
    std::function<DiffResult(const std::vector<TraceRecord> &)>;

/** The check a trace case runs over any candidate trace: the case's
 *  parameters stay fixed while the shrinker minimises the trace. */
TraceCheck
traceCheck(CampaignKind kind, const FuzzParams &params,
           std::uint64_t case_seed, Mutation mutation)
{
    if (kind == CampaignKind::kAdaptive) {
        return [params, adapt = makeAdaptiveParams(case_seed),
                mutation](const std::vector<TraceRecord> &records) {
            return checkAdaptiveTrace(records, params, adapt, mutation);
        };
    }
    CheckConfig config;
    config.params = params;
    config.mutation = mutation;
    return [config](const std::vector<TraceRecord> &records) {
        return checkTrace(records, config);
    };
}

/**
 * Run case @p index; nullopt when it passes. A failing trace case
 * leaves its trace in @p trace_out, shrunk first when @p shrink.
 */
std::optional<CaseFailure>
runCase(const CampaignOptions &options, std::uint64_t index,
        bool shrink, std::vector<TraceRecord> &trace_out)
{
    CaseFailure failure;
    failure.index = index;
    failure.caseSeed = caseSeed(options.seed, index);
    if (options.kind == CampaignKind::kMulticore) {
        failure.diff =
            checkMulticoreCase(failure.caseSeed, options.mutation);
        if (failure.diff.ok)
            return std::nullopt;
        return failure;
    }

    const FuzzParams params = makeFuzzParams(failure.caseSeed);
    const TraceCheck check = traceCheck(options.kind, params,
                                        failure.caseSeed,
                                        options.mutation);
    std::vector<TraceRecord> trace =
        makeFuzzTrace(failure.caseSeed, params);
    failure.diff = check(trace);
    if (failure.diff.ok)
        return std::nullopt;

    failure.originalRecords = trace.size();
    if (shrink) {
        // Pin the check name, so the shrinker cannot "succeed" by
        // reducing to a trace that merely trips another check, such
        // as the empty-trace precondition.
        const std::string name = failure.diff.check;
        trace = shrinkTrace(
                    std::move(trace),
                    [&](const std::vector<TraceRecord> &candidate) {
                        const DiffResult diff = check(candidate);
                        return !diff.ok && diff.check == name;
                    },
                    options.maxShrinkEvaluations)
                    .records;
        // Report the diff of the minimal trace, not the original: the
        // shrinker may have walked the failure to an earlier access.
        failure.diff = check(trace);
    }
    failure.shrunkRecords = trace.size();
    trace_out = std::move(trace);
    return failure;
}

void
writeReproducer(const CampaignOptions &options, CaseFailure &failure,
                const std::vector<TraceRecord> &records)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(options.reproDir, ec);

    const std::string stem = options.reproDir + "/repro_case" +
                             std::to_string(failure.index);
    const std::string trace_path = stem + ".trc";
    if (!writeTraceRecords(trace_path, records))
        return;
    failure.reproPath = trace_path;

    std::ofstream sidecar(stem + ".txt");
    sidecar << "dol differential fuzz reproducer\n"
            << "campaign seed:   " << options.seed << "\n"
            << "case index:      " << failure.index << "\n"
            << "case seed:       " << failure.caseSeed << "\n"
            << "mutation:        " << mutationName(options.mutation)
            << "\n"
            << "diff:            " << failure.diff.summary() << "\n"
            << "original/shrunk: " << failure.originalRecords << "/"
            << failure.shrunkRecords << " records\n"
            << "replay:          dolsim --fuzz-replay " << trace_path
            << " --fuzz-case-seed " << failure.caseSeed << "\n";
}

} // namespace

std::string
plantableMutations(CampaignKind kind)
{
    std::string names;
    for (const Mutation mutation : kindInfo(kind).mutations) {
        if (!names.empty())
            names += '|';
        names += mutationName(mutation);
    }
    return names;
}

bool
canPlant(CampaignKind kind, Mutation mutation)
{
    const std::vector<Mutation> &plantable = kindInfo(kind).mutations;
    return mutation == Mutation::kNone ||
           std::find(plantable.begin(), plantable.end(), mutation) !=
               plantable.end();
}

std::string
CampaignReport::summaryText() const
{
    std::string text = std::string(kindInfo(kind).title) + ": " +
                       std::to_string(cases) + " cases, seed " +
                       std::to_string(seed) + ", " +
                       std::to_string(failures.size()) + " failure" +
                       (failures.size() == 1 ? "" : "s") + "\n";
    for (const CaseFailure &failure : failures) {
        text += "  case " + std::to_string(failure.index) + " (seed " +
                std::to_string(failure.caseSeed) + "): ";
        if (!failure.error.empty()) {
            text += failure.error + "\n";
            continue;
        }
        text += failure.diff.summary();
        if (writesReproducers(kind)) {
            text += " [" + std::to_string(failure.originalRecords) +
                    " -> " + std::to_string(failure.shrunkRecords) +
                    " records";
            if (!failure.reproPath.empty())
                text += ", " + failure.reproPath;
            text += "]";
        }
        text += "\n";
    }
    return text;
}

CampaignReport
runCampaign(const CampaignOptions &options)
{
    if (!canPlant(options.kind, options.mutation)) {
        throw std::invalid_argument(
            std::string("--") + kindInfo(options.kind).label +
            " cannot plant mutation " + mutationName(options.mutation) +
            " (it plants " + plantableMutations(options.kind) + ")");
    }

    // One job per case. The variant names the campaign, so the
    // journal plan pins kind, seed, mutation and case count alike.
    runner::SweepOptions sweep_options = options.sweep;
    sweep_options.onError = runner::SweepOptions::OnError::kQuarantine;
    runner::SweepRunner sweep(SimConfig{}, sweep_options);
    const std::string variant = ":seed=" + std::to_string(options.seed) +
                                ":mutate=" +
                                mutationName(options.mutation);
    const bool reproduce = writesReproducers(options.kind);
    // One slot per case: workers never contend and the report order is
    // independent of scheduling.
    std::vector<std::optional<CaseFailure>> found(options.cases);
    std::atomic<std::uint64_t> passed{0};
    for (std::uint64_t i = 0; i < options.cases; ++i) {
        sweep.addJob(
            caseLabel(options.kind, i),
            [&, i](ExperimentRunner &) {
                std::vector<TraceRecord> trace;
                std::optional<CaseFailure> failure =
                    runCase(options, i, reproduce, trace);
                if (!failure) {
                    passed.fetch_add(1, std::memory_order_relaxed);
                    return std::vector<RunOutput>{};
                }
                if (reproduce)
                    writeReproducer(options, *failure, trace);
                const std::string diff = failure->diff.summary();
                found[i] = std::move(failure);
                // Quarantine, not a pass: --resume re-runs the case.
                throw std::runtime_error(diff);
            },
            variant);
    }
    const runner::SweepRunner::Report run = sweep.run();

    CampaignReport report;
    report.kind = options.kind;
    report.cases = options.cases;
    report.seed = options.seed;
    report.interrupted = run.interrupted;
    report.casesResumed = run.meta.resumedJobs;
    // Quarantined cells arrive in submission order, as cases do. A
    // cell without a diff ended without a verdict (an injected fault,
    // a timeout, or a checker that threw).
    auto cell = run.meta.failedCells.begin();
    for (std::uint64_t i = 0;
         i < options.cases && cell != run.meta.failedCells.end(); ++i) {
        if (cell->label != caseLabel(options.kind, i))
            continue;
        if (found[i]) {
            report.failures.push_back(std::move(*found[i]));
        } else {
            CaseFailure failure;
            failure.index = i;
            failure.caseSeed = caseSeed(options.seed, i);
            failure.error = cell->kind + ": " + cell->error;
            report.failures.push_back(std::move(failure));
        }
        ++cell;
    }
    report.casesRun = passed.load() + report.failures.size();
    return report;
}

MutationProbe
probeMutation(CampaignKind kind, std::uint64_t campaign_seed,
              std::uint64_t max_cases, Mutation mutation,
              std::size_t max_shrink_evaluations)
{
    CampaignOptions options;
    options.kind = kind;
    options.seed = campaign_seed;
    options.mutation = mutation;
    options.maxShrinkEvaluations = max_shrink_evaluations;
    MutationProbe probe;
    for (std::uint64_t i = 0; i < max_cases; ++i) {
        std::optional<CaseFailure> failure =
            runCase(options, i, true, probe.shrunk);
        if (failure) {
            probe.found = true;
            probe.failure = std::move(*failure);
            return probe;
        }
    }
    return probe;
}

} // namespace dol::check
