#include <cstdio>
#include <set>

#include <pthread.h>
#include <sched.h>

#include "runner/sweep.hpp"
#include "sim/contention.hpp"
#include "sweep.hpp"

namespace dolbench
{

namespace
{

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    return cpus;
}

/** Pin the calling thread to @p cpu (best effort). */
void
pinThread(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

} // namespace

dol::RunOutput
defaultCellBody(dol::ExperimentRunner &runner, const Cell &cell,
                JobTimes &times)
{
    double cpu0 = threadCpuS();
    double wall0 = wallS();
    double child0 = childCpuS();
    times.start = wall0;
    if (!cell.mix) {
        runner.baseline(cell.spec);
        const double cpu1 = threadCpuS();
        const double wall1 = wallS();
        const double child1 = childCpuS();
        times.baselineCpu = cpu1 - cpu0;
        times.baselineWall = wall1 - wall0;
        times.baselineChildCpu = child1 - child0;
        cpu0 = cpu1;
        wall0 = wall1;
        child0 = child1;
    }
    dol::RunOutput out;
    if (cell.mix) {
        dol::SimConfig config = runner.config();
        config.mem.dram.arbitration = cell.arbitration;
        out = dol::contentionRunOutput(
            dol::runContentionScenario(config, *cell.mix), *cell.mix);
    } else {
        out = runner.run(cell.spec, cell.prefetcher, cell.options);
    }
    const double wall2 = wallS();
    times.cellChildCpu = childCpuS() - child0;
    times.cellCpu = threadCpuS() - cpu0 + times.cellChildCpu;
    times.cellWall = wall2 - wall0;
    times.end = wall2;
    times.done = true;
    return out;
}

SweepResult
runSweep(const WorkloadDef &def, const std::vector<Cell> &cells,
         unsigned rotation, const CellBody &body,
         const std::function<void()> &on_first, std::atomic<bool> *stop)
{
    dol::SimConfig config;
    config.maxInstrs = def.instrs;

    dol::runner::SweepOptions options;
    options.jobs = 1;
    options.progress = false;
    options.onError = dol::runner::SweepOptions::OnError::kQuarantine;
    // A hung cell fails instead of hanging the benchmark.
    options.cellTimeoutMs = 60000.0;
    options.stopFlag = stop;

    SweepResult result;
    result.jobs.resize(cells.size());
    auto first = std::make_shared<std::atomic<bool>>(false);

    // The sweep is serial: more busy threads than one on a few shared
    // vCPUs measure the neighbours and the scheduler as much as the
    // simulator. A serial sweep would spend a whole run on the one CPU
    // the scheduler picked, and on a shared host CPUs differ in speed
    // by tens of percent for minutes at a time. Its jobs therefore
    // take every allowed CPU in turn; the caller starts each
    // repetition one CPU further on, so each sweep's total, and each
    // cell over the repetitions, sees all of them.
    const std::vector<int> cpus = allowedCpus();

    dol::runner::SweepRunner sweep(config, options);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        JobTimes &times = result.jobs[i];
        const int cpu =
            cpus.size() > 1 ? cpus[(i + rotation) % cpus.size()] : -1;
        sweep.addJob(
            cell.label,
            [&cell, &times, &body, &on_first, first,
             cpu](dol::ExperimentRunner &runner) {
                if (on_first && !first->exchange(true))
                    on_first();
                if (cpu >= 0)
                    pinThread(cpu);
                return std::vector<dol::RunOutput>{
                    body(runner, cell, times)};
            },
            cell.variant);
    }

    const double cpu0 = processCpuS();
    const double child0 = childCpuS();
    result.start = wallS();
    result.report = sweep.run();
    result.wall = wallS() - result.start;
    result.cpu = processCpuS() - cpu0;
    result.childCpu = childCpuS() - child0;

    result.outputs.assign(cells.size(), nullptr);
    result.digests.assign(cells.size(), "");
    result.seeds.assign(cells.size(), 0);
    result.failed = result.report.meta.failedCells;
    // Every job returns one output, so the completed jobs' outputs and
    // rows come in submission order; a failed job has neither.
    const std::vector<dol::runner::MetricsRow> rows =
        result.report.store.rows();
    std::size_t next = 0;
    std::set<std::string> baselines;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!result.jobs[i].done || next >= rows.size() ||
            next >= result.report.outputs.size())
            continue;
        const dol::runner::MetricsRow &row = rows[next];
        const dol::RunOutput &out = result.report.outputs[next++];
        const Cell &cell = cells[i];
        if (row.variant != cell.variant)
            continue; // not this job's row: the cell fails the gate
        result.outputs[i] = &out;
        result.digests[i] = rowDigest(row);
        result.seeds[i] = row.seed;
        result.simInstructions += jobInstructions(out, cell);
        // Each workload's baseline runs once per sweep, with the
        // same budget (and kernel) as its cells.
        if (!cell.mix && baselines.insert(cell.spec.name).second)
            result.simInstructions += out.instructions;
    }
    return result;
}

int
runSetup(const WorkloadDef &def, const Args &args)
{
    // Everything a sweep does before its first job body: suite
    // registry construction, the ChampSim directory scan, grid
    // expansion, and thread-pool start. The first body stops the
    // sweep; the queued jobs drain without running.
    std::atomic<bool> stop{false};
    std::int64_t first_ns = 0;
    const std::vector<Cell> cells = buildCells(def, args.variant);
    runSweep(
        def, cells, 0,
        [](dol::ExperimentRunner &, const Cell &, JobTimes &)
            -> dol::RunOutput { return {}; },
        [&] {
            first_ns = monotonicNs();
            stop.store(true);
        },
        &stop);
    if (first_ns == 0)
        return 1;
    std::printf("%.9f\n",
                static_cast<double>(first_ns - args.t0Ns) * 1e-9);
    return 0;
}

namespace
{

void
writeRep(Json &json, const std::vector<Cell> &cells,
         const SweepResult &rep)
{
    json.beginObject();
    json.field("wall_s", rep.wall);
    json.field("cpu_s", rep.cpu);
    json.field("child_cpu_s", rep.childCpu);
    json.field("sim_instructions", rep.simInstructions);
    json.key("jobs").beginArray();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const JobTimes &t = rep.jobs[i];
        json.beginObject();
        json.field("key", cells[i].pinKey());
        json.field("done", t.done);
        json.field("digest", rep.digests[i]);
        json.field("cell_cpu_s", t.cellCpu);
        json.field("baseline_cpu_s", t.baselineCpu);
        json.field("baseline_wall_s", t.baselineWall);
        json.endObject();
    }
    json.endArray();
    json.key("failed").beginArray();
    for (const auto &cell : rep.failed) {
        json.beginObject();
        json.field("label", cell.label + cell.variant);
        json.field("kind", cell.kind);
        json.field("error", cell.error);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace

int
runMeasure(const WorkloadDef &def, const Args &args)
{
    const std::vector<Cell> cells = buildCells(def, args.variant);
    Json json(0);
    json.beginObject();
    json.field("workload", def.name);
    json.field("instrs", def.instrs);
    json.field("cells", cells.size());
    json.field("build_type", DOLBENCH_BUILD_TYPE);
    json.field("compiler", DOLBENCH_COMPILER);
    json.key("reps").beginArray();

    // Repeat whole sweeps until the measuring time is spent; run.py
    // reports throughput medians and per-cell means over them.
    const double begin = wallS();
    unsigned rep = 0;
    do {
        writeRep(json, cells, runSweep(def, cells, rep++));
    } while (wallS() - begin < args.seconds);

    json.endArray();
    json.field("peak_rss_kb", peakRssKb());
    json.endObject();
    return writeFile(args.out, json.str()) ? 0 : 1;
}

} // namespace dolbench
