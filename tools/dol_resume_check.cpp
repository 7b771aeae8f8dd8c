/**
 * @file
 * Kill-and-resume end-to-end check for the runner's fault tolerance.
 *
 * Drives the real dolsim binary through the failure modes the
 * checkpoint journal must survive, and asserts the resumed sweep's
 * dol-sweep-v1 document is byte-identical (deterministic portion) to
 * an uninterrupted baseline:
 *
 *   1. clean baseline sweep (no checkpoint)
 *   2. hard crash: --fault-plan abort@2 (std::_Exit, no flushing —
 *      SIGKILL semantics) at --jobs 1 and --jobs 4, then --resume
 *   3. SIGTERM mid-sweep: a hang@2 fault parks cell 2, the driver
 *      waits until the journal holds 2 cells, signals, expects the
 *      graceful-drain exit code (143), then resumes
 *   4. SIGKILL mid-sweep: same setup, no chance to drain, then
 *      resumes across the torn process
 *   5. sharded sweep: a 60-cell grid (3 workloads x 2 prefetchers x
 *      10 seed variants) runs as three concurrent `--shard i/3`
 *      processes; an abort fault kills shard 1 mid-range, the same
 *      command re-run with --resume finishes it, and `--merge` of the
 *      three journals must equal plain `--jobs 1` and `--jobs 4`
 *      runs of the grid
 *   6. fuzz campaigns on the same executor: 24-case multicore and
 *      adaptive campaigns at --jobs 4 killed by abort@12 exit 137,
 *      and their --resume runs print the uninterrupted summary; a
 *      throw@3 fault in a differential campaign exits 1 with case 3
 *      and the injected error in the summary
 *
 * "Byte-identical deterministic portion" means every byte up to the
 * documented-nondeterministic "timing" section — schema, config,
 * results (all rows, all digits) — compared with memcmp, not a parsed
 * approximation.
 *
 * Usage: dol_resume_check <path-to-dolsim> <scratch-dir>
 * Exit 0 when every scenario passes. Run by the tier-1 resume_smoke
 * test and the CI kill-and-resume smoke job.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runner/checkpoint.hpp"

namespace
{

int g_failures = 0;

void
fail(const std::string &message)
{
    std::fprintf(stderr, "FAIL: %s\n", message.c_str());
    ++g_failures;
}

struct RunResult
{
    bool ran = false;    ///< fork/exec worked
    bool exited = false; ///< normal exit (vs signal)
    int code = -1;       ///< exit code when exited
    int signal = 0;      ///< terminating signal otherwise
};

/** Run @p exe with stdout and stderr appended to @p log_path, or
 *  stdout written to @p stdout_path when one is given. */
pid_t
spawn(const std::string &exe, const std::vector<std::string> &args,
      const std::string &log_path, const std::string &stdout_path = "")
{
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    const int fd =
        open(log_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
        close(fd);
    }
    if (!stdout_path.empty()) {
        const int out =
            open(stdout_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
        if (out >= 0) {
            dup2(out, 1);
            close(out);
        }
    }
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(exe.c_str()));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    execv(exe.c_str(), argv.data());
    _exit(127);
}

RunResult
await(pid_t pid)
{
    RunResult result;
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return result;
    result.ran = true;
    if (WIFEXITED(status)) {
        result.exited = true;
        result.code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        result.signal = WTERMSIG(status);
    }
    return result;
}

RunResult
run(const std::string &exe, const std::vector<std::string> &args,
    const std::string &log_path, const std::string &stdout_path = "")
{
    return await(spawn(exe, args, log_path, stdout_path));
}

/** Poll until @p path journals at least @p want completed jobs. */
bool
waitForJournaledJobs(const std::string &path, std::size_t want,
                     int timeout_ms)
{
    for (int waited = 0; waited < timeout_ms; waited += 20) {
        const auto loaded = dol::runner::CheckpointJournal::load(path);
        if (loaded.fileExists && loaded.valid &&
            loaded.jobs.size() >= want)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return false;
    out.clear();
    char buffer[1 << 14];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0)
        out.append(buffer, got);
    std::fclose(file);
    return true;
}

/**
 * The document's deterministic portion: every byte before the
 * "timing" key (which is always last and documented as wall-clock
 * dependent). Empty when the marker is missing.
 */
std::string
deterministicPrefix(const std::string &document)
{
    const std::size_t pos = document.find("\"timing\"");
    return pos == std::string::npos ? std::string()
                                    : document.substr(0, pos);
}

bool
exists(const std::string &path)
{
    struct stat st;
    return stat(path.c_str(), &st) == 0;
}

/** Shared sweep grid (6 cells, small budget) + scenario flags. */
std::vector<std::string>
gridArgs(const std::string &json_path,
         const std::vector<std::string> &extra)
{
    std::vector<std::string> args = {
        "--workload",   "libquantum.syn,mcf.syn,omnetpp.syn",
        "--prefetcher", "TPC,SPP",
        "--instrs",     "20000",
        "--quiet",      "--json",
        json_path};
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
}

/** The 60-cell sharding grid + per-run flags. */
std::vector<std::string>
shardGridArgs(const std::vector<std::string> &extra)
{
    std::vector<std::string> args = {
        "--workload",      "libquantum.syn,mcf.syn,omnetpp.syn",
        "--prefetcher",    "TPC,SPP",
        "--instrs",        "5000",
        "--seed-variants", "10",
        "--quiet"};
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
}

void
compareAgainstBaseline(const std::string &scenario,
                       const std::string &baseline_prefix,
                       const std::string &json_path)
{
    std::string document;
    if (!readFile(json_path, document)) {
        fail(scenario + ": resumed run wrote no " + json_path);
        return;
    }
    const std::string prefix = deterministicPrefix(document);
    if (prefix.empty()) {
        fail(scenario + ": no \"timing\" marker in " + json_path);
        return;
    }
    if (prefix != baseline_prefix) {
        fail(scenario + ": resumed document differs from the "
                        "uninterrupted baseline (deterministic "
                        "portion)");
    }
}

/**
 * Scenario 5: three shards, one killed mid-range and resumed, merged
 * and compared with single-process references at two worker counts.
 */
void
checkShards(const std::string &dolsim, const std::string &dir,
            const std::string &log)
{
    std::string reference_prefix;
    for (const std::string jobs : {"1", "4"}) {
        const std::string json = dir + "/grid" + jobs + ".json";
        const RunResult result =
            run(dolsim, shardGridArgs({"--jobs", jobs, "--json", json}),
                log);
        std::string document;
        if (!result.exited || result.code != 0 ||
            !readFile(json, document)) {
            fail("shards: --jobs " + jobs + " reference sweep failed");
            return;
        }
        const std::string prefix = deterministicPrefix(document);
        if (prefix.empty()) {
            fail("shards: no \"timing\" marker in " + json);
            return;
        }
        if (reference_prefix.empty())
            reference_prefix = prefix;
        else if (prefix != reference_prefix)
            fail("shards: --jobs 1 and --jobs 4 references differ");
    }

    // Shard 1 owns cells [20, 40); abort@27 kills it after cells
    // 20..26 journal (serial shard, so the count is exact).
    const auto journal = [&](int shard) {
        return dir + "/shard" + std::to_string(shard) + ".ckpt";
    };
    const auto shardArgs = [&](int shard,
                               std::vector<std::string> extra) {
        extra.insert(extra.begin(),
                     {"--jobs", "1", "--shard",
                      std::to_string(shard) + "/3", "--checkpoint",
                      journal(shard)});
        return shardGridArgs(extra);
    };
    std::vector<pid_t> pids;
    for (int shard = 0; shard < 3; ++shard) {
        std::remove(journal(shard).c_str());
        pids.push_back(spawn(
            dolsim,
            shardArgs(shard, shard == 1
                                 ? std::vector<std::string>{
                                       "--fault-plan", "abort@27"}
                                 : std::vector<std::string>{}),
            log));
    }
    for (int shard = 0; shard < 3; ++shard) {
        const RunResult result = await(pids[shard]);
        const int want = shard == 1 ? 137 : 0;
        if (!result.exited || result.code != want)
            fail("shards: shard " + std::to_string(shard) +
                 " should exit " + std::to_string(want));
    }
    const auto crashed = dol::runner::CheckpointJournal::load(journal(1));
    if (!crashed.valid || crashed.jobs.size() != 7)
        fail("shards: the aborted shard should journal exactly 7 "
             "cells");

    // Merging now must fail: cells 27..39 are in no journal.
    const std::string merged = dir + "/merged.json";
    std::remove(merged.c_str());
    const std::string journals =
        journal(0) + "," + journal(1) + "," + journal(2);
    RunResult result =
        run(dolsim, {"--merge", journals, "--json", merged, "--quiet"},
            log);
    if (!result.exited || result.code != 1 || exists(merged))
        fail("shards: merging an incomplete shard set should fail "
             "and write nothing");

    result = run(dolsim, shardArgs(1, {"--resume"}), log);
    if (!result.exited || result.code != 0)
        fail("shards: resumed shard should exit 0");
    for (int shard = 0; shard < 3; ++shard) {
        if (!exists(journal(shard)))
            fail("shards: shard " + std::to_string(shard) +
                 "'s journal must survive a clean run");
    }

    result =
        run(dolsim, {"--merge", journals, "--json", merged, "--quiet"},
            log);
    if (!result.exited || result.code != 0)
        fail("shards: merge should exit 0");
    compareAgainstBaseline("shards", reference_prefix, merged);
}

/**
 * Scenario 6: fuzz campaigns run as sweep jobs, so a killed campaign
 * resumes like a killed sweep, and a faulted case is a failure.
 */
void
checkCampaigns(const std::string &dolsim, const std::string &dir,
               const std::string &log)
{
    for (const std::string kind : {"multicore", "adaptive"}) {
        const std::string tag = "campaign[" + kind + "]";
        const std::string ckpt = dir + "/" + kind + ".ckpt";
        const std::string base_txt = dir + "/" + kind + "_base.txt";
        const std::string out_txt = dir + "/" + kind + "_resumed.txt";
        const auto campaignArgs = [&](std::vector<std::string> extra) {
            extra.insert(extra.begin(), {"--fuzz-" + kind, "24", "--jobs",
                                         "4", "--quiet"});
            return extra;
        };
        std::string baseline;
        RunResult result = run(dolsim, campaignArgs({}), log, base_txt);
        if (!result.exited || result.code != 0 ||
            !readFile(base_txt, baseline) || baseline.empty()) {
            fail(tag + ": uninterrupted campaign should exit 0");
            continue;
        }
        std::remove(ckpt.c_str());
        result = run(dolsim,
                     campaignArgs({"--checkpoint", ckpt, "--fault-plan",
                                   "abort@12"}),
                     log, out_txt);
        if (!result.exited || result.code != 137)
            fail(tag + ": crashing campaign should exit 137");
        const auto loaded = dol::runner::CheckpointJournal::load(ckpt);
        if (!loaded.valid)
            fail(tag + ": no readable journal after the crash");
        result = run(dolsim, campaignArgs({"--checkpoint", ckpt, "--resume"}),
                     log, out_txt);
        std::string resumed;
        if (!result.exited || result.code != 0 ||
            !readFile(out_txt, resumed) || resumed != baseline)
            fail(tag + ": resumed campaign should print the "
                       "uninterrupted summary");
        if (exists(ckpt))
            fail(tag + ": journal should be removed after a clean "
                       "completed resume");
    }

    const std::string out_txt = dir + "/throw.txt";
    const RunResult result =
        run(dolsim,
            {"--fuzz", "8", "--fuzz-seed", "1", "--fault-plan", "throw@3",
             "--quiet"},
            log, out_txt);
    std::string summary;
    if (!result.exited || result.code != 1 || !readFile(out_txt, summary) ||
        summary.find("1 failure\n  case 3 (seed ") == std::string::npos ||
        summary.find("error: injected fault: throw at job 3") ==
            std::string::npos)
        fail("campaign[throw@3]: should exit 1 naming case 3 and the "
             "injected error");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(
            stderr,
            "usage: dol_resume_check <path-to-dolsim> <scratch-dir>\n");
        return 2;
    }
    const std::string dolsim = argv[1];
    const std::string dir = argv[2];
    mkdir(dir.c_str(), 0755);
    const std::string log = dir + "/dolsim.log";

    // 1. Uninterrupted baseline.
    const std::string base_json = dir + "/base.json";
    {
        const RunResult result =
            run(dolsim, gridArgs(base_json, {"--jobs", "2"}), log);
        if (!result.exited || result.code != 0) {
            fail("baseline sweep did not exit 0");
            return 1;
        }
    }
    std::string baseline_doc;
    if (!readFile(base_json, baseline_doc)) {
        fail("baseline sweep wrote no JSON");
        return 1;
    }
    const std::string baseline_prefix =
        deterministicPrefix(baseline_doc);
    if (baseline_prefix.empty()) {
        fail("baseline document has no \"timing\" marker");
        return 1;
    }

    // 2. Hard crash (abort fault == SIGKILL semantics) + resume, at
    //    one and at four workers.
    for (const std::string jobs : {"1", "4"}) {
        const std::string tag = "abort-resume[jobs=" + jobs + "]";
        const std::string ckpt = dir + "/abort" + jobs + ".ckpt";
        const std::string json = dir + "/abort" + jobs + ".json";
        std::remove(ckpt.c_str());
        std::remove(json.c_str());
        RunResult result =
            run(dolsim,
                gridArgs(json, {"--jobs", jobs, "--checkpoint", ckpt,
                                 "--fault-plan", "abort@2"}),
                log);
        if (!result.exited || result.code != 137)
            fail(tag + ": crashing run should exit 137");
        if (exists(json))
            fail(tag + ": crashed run must not write JSON");
        const auto loaded = dol::runner::CheckpointJournal::load(ckpt);
        if (!loaded.fileExists || !loaded.valid)
            fail(tag + ": no readable journal after the crash");
        // Serial execution reaches the faulting cell only after cells
        // 0 and 1 journal; with 4 workers the abort races the first
        // completions, so an empty (but valid) journal is legal there.
        if (jobs == "1" && loaded.jobs.size() != 2)
            fail(tag + ": expected exactly 2 journaled cells");
        result = run(dolsim,
                     gridArgs(json, {"--jobs", jobs, "--checkpoint",
                                      ckpt, "--resume"}),
                     log);
        if (!result.exited || result.code != 0)
            fail(tag + ": resumed run should exit 0");
        compareAgainstBaseline(tag, baseline_prefix, json);
        if (exists(ckpt))
            fail(tag + ": journal should be removed after a clean "
                       "completed resume");
    }

    // 3. SIGTERM mid-sweep (graceful drain) + resume, and
    // 4. SIGKILL mid-sweep (no drain) + resume.
    for (const int signo : {SIGTERM, SIGKILL}) {
        const std::string name =
            signo == SIGTERM ? "sigterm" : "sigkill";
        const std::string tag = name + "-resume";
        const std::string ckpt = dir + "/" + name + ".ckpt";
        const std::string json = dir + "/" + name + ".json";
        std::remove(ckpt.c_str());
        std::remove(json.c_str());
        // hang@2 parks the third cell forever; by the time the journal
        // holds two cells the process is reliably inside the hang (or
        // about to enter it), so the kill point is deterministic.
        const pid_t pid =
            spawn(dolsim,
                  gridArgs(json, {"--jobs", "1", "--checkpoint",
                                   ckpt, "--fault-plan", "hang@2"}),
                  log);
        if (!waitForJournaledJobs(ckpt, 2, 30000)) {
            fail(tag + ": journal never reached 2 cells");
            kill(pid, SIGKILL);
            await(pid);
            continue;
        }
        kill(pid, signo);
        const RunResult result = await(pid);
        if (signo == SIGTERM) {
            // Graceful drain: the handler raises the stop flag, the
            // hang unwinds, dolsim exits 128+15 on its own.
            if (!result.exited || result.code != 128 + SIGTERM)
                fail(tag + ": drained run should exit 143");
        } else {
            if (result.exited || result.signal != SIGKILL)
                fail(tag + ": run should die by SIGKILL");
        }
        if (exists(json))
            fail(tag + ": killed run must not write JSON");
        const RunResult resumed =
            run(dolsim,
                gridArgs(json, {"--jobs", "1", "--checkpoint", ckpt,
                                 "--resume"}),
                log);
        if (!resumed.exited || resumed.code != 0)
            fail(tag + ": resumed run should exit 0");
        compareAgainstBaseline(tag, baseline_prefix, json);
    }

    // 5. Sharded sweep: kill one shard, resume it, merge all three.
    checkShards(dolsim, dir, log);

    // 6. Fuzz campaigns: kill and resume, and a faulted case.
    checkCampaigns(dolsim, dir, log);

    if (g_failures) {
        std::fprintf(stderr,
                     "dol_resume_check: %d scenario check(s) failed "
                     "(dolsim output: %s)\n",
                     g_failures, log.c_str());
        return 1;
    }
    std::printf("dol_resume_check: all kill-and-resume, shard and "
                "campaign scenarios passed\n");
    return 0;
}
