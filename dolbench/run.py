#!/usr/bin/env python3
"""Repository benchmark of the DoL prefetching simulator.

Builds dolbench/ (the simulator libraries from src/ plus a measuring
program) into $CARGO_TARGET_DIR (default .bench_build), runs one
workload, checks every simulated row against the pins in
dolbench/pins/, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 dolbench/run.py --workload paper_grid --seed 0 --seconds 30 --trace 0
    python3 dolbench/run.py --write-pins            # regenerate the pins

--trace 0 reports the end-to-end metrics; --trace 1 runs the separate
traced run and reports the per-layer metrics. Raw measurements, the
environment, and (traced) the span log land in .bench_out/.
See dolbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("paper_grid", "extras_grid", "contention_mixes")
# The seed picks one of this many variant labels (dolbench kSeedVariants).
VARIANTS = 8
# Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 15
# Every child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "sim_minstr_per_cpu_s": "Minstr/CPU-s",
    "cell_cpu_ms_p50": "ms",
    "cell_cpu_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LOAD_AT_START = os.getloadavg()


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_child(argv, **kwargs):
    """Run a child to completion; its stdout is returned, stderr passes."""
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, **kwargs)
    if done.returncode != 0:
        raise RuntimeError("%s exited with %d" % (argv[0], done.returncode))
    return done.stdout


def build():
    """Configure (once) and build the measuring program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources next to dolbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "dolbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "dolbench"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dolbench")


def child_env():
    env = dict(os.environ)
    # The extras grid's two ChampSim fixtures.
    env["DOL_TRACE_DIR"] = os.path.join(ROOT, "tests", "traces")
    return env


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(base, f) for f in sorted(files)
                         if not f.endswith(".pyc"))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def environment(raw):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": raw.get("compiler"),
        "cmake_build_type": raw.get("build_type"),
        "loadavg_at_start": list(LOAD_AT_START),
    }


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def load_pins(pins_dir, workload):
    path = os.path.join(pins_dir, workload + ".json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def check_rows(jobs_per_pass, pins, variant, instrs):
    """Count attempted and failed cells over the passes given: a cell
    fails if it did not complete or its row digest differs from the pin."""
    attempted = failed = 0
    mismatches = []
    cells = pins.get("cells", {}) if pins else {}
    pins_ok = bool(pins) and pins.get("instrs") == instrs
    for jobs in jobs_per_pass:
        for job in jobs:
            attempted += 1
            pinned = cells.get(job["key"])
            good = (pins_ok and job["done"] and pinned is not None
                    and len(pinned) > variant
                    and pinned[variant] == job["digest"])
            if not good:
                failed += 1
                mismatches.append(job["key"])
    return attempted, failed, mismatches


def check_replays(replays):
    """Count the traced run's cell replays: one fails if its mirror of
    Simulator::run disagreed with the real row, or a replayed memory
    call returned another result than the recording."""
    attempted = failed = 0
    mismatches = []
    for cell in replays:
        attempted += 1
        if (not cell["done"] or cell["mirror_mismatches"]
                or cell["replay_mismatches"]):
            failed += 1
            mismatches.append(cell["key"] + " (replay)")
    return attempted, failed, mismatches


def setup_seconds(binary, workload, variant):
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic_ns()
        out = run_child([binary, "setup", "--workload", workload,
                         "--variant", str(variant), "--t0", str(t0)],
                        env=child_env())
        samples.append(float(out.split()[-1]))
    return samples


def measure(binary, args, variant, stem):
    raw_path = os.path.join(OUT_DIR, stem + ".raw.json")
    run_child([binary, "measure", "--workload", args.workload, "--variant",
               str(variant), "--seconds", str(args.seconds), "--out",
               raw_path], env=child_env())
    with open(raw_path) as handle:
        raw = json.load(handle)
    raw["setup_samples_s"] = setup_seconds(binary, args.workload, variant)

    reps = raw["reps"]
    per_cell = {}
    for rep in reps:
        for job in rep["jobs"]:
            if job["done"]:
                per_cell.setdefault(job["key"], []).append(job["cell_cpu_s"])
    # A cell's mean over repetitions: a serial sweep's jobs rotate over
    # the CPUs, whose speeds differ, and the mean weighs each CPU alike
    # where a median would pick one of them.
    cell_ms = [1000.0 * statistics.mean(v) for v in per_cell.values()]
    # Wall-clock throughput is kept in the output file only: the sweep
    # is serial, so its wall time is its CPU time (the xz decoder's
    # included) plus the time the shared host took the CPU away, which
    # only adds noise.
    raw["sim_minstr_per_wall_s"] = statistics.median(
        r["sim_instructions"] / r["wall_s"] / 1e6 for r in reps)
    metrics = {
        "sim_minstr_per_cpu_s": statistics.median(
            r["sim_instructions"] / (r["cpu_s"] + r["child_cpu_s"]) / 1e6
            for r in reps),
        "cell_cpu_ms_p50": percentile(cell_ms, 50),
        "cell_cpu_ms_p90": percentile(cell_ms, 90),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(raw["setup_samples_s"]),
    }
    raw["samples"] = {"reps": len(reps), "cells": len(cell_ms),
                      "cells_beyond_p90": sum(
                          1 for v in cell_ms
                          if v > metrics["cell_cpu_ms_p90"])}
    units = dict(END_TO_END)
    jobs_per_pass = [rep["jobs"] for rep in reps]
    return raw, metrics, units, jobs_per_pass


def traced(binary, args, variant, stem):
    raw_path = os.path.join(OUT_DIR, stem + ".raw.json")
    spans_path = os.path.join(OUT_DIR, stem + ".spans.json")
    argv = [binary, "trace", "--workload", args.workload, "--variant",
            str(variant), "--out", raw_path, "--spans", spans_path]
    if args.plant_mismatch is not None:
        argv += ["--plant-mismatch", str(args.plant_mismatch)]
    run_child(argv, env=child_env())
    with open(raw_path) as handle:
        raw = json.load(handle)
    metrics = {name: m["value"] for name, m in raw["metrics"].items()}
    units = {name: m["unit"] for name, m in raw["metrics"].items()}
    # Every pass is gated: the untraced references and the traced
    # sweeps must each reproduce the pinned rows.
    jobs_per_pass = [p["jobs"] for p in raw["passes"]]
    return raw, metrics, units, jobs_per_pass


def run_workload(args):
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    variant = args.seed % VARIANTS
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        raw, metrics, units, passes = traced(binary, args, variant, stem)
    else:
        raw, metrics, units, passes = measure(binary, args, variant, stem)
    pins = load_pins(args.pins, args.workload)
    attempted, failed, mismatches = check_rows(passes, pins, variant,
                                               raw["instrs"])
    if args.trace:
        more = check_replays(raw["replays"])
        attempted += more[0]
        failed += more[1]
        mismatches += more[2]
    for key in mismatches[:20]:
        log("row mismatch or failed cell: %s (variant %d)" % (key, variant))
    for rep in raw.get("reps", []):
        for cell in rep["failed"]:
            log("quarantined: %s" % cell)
    env = environment(raw)
    record = {"workload": args.workload, "seed": args.seed,
              "variant": variant, "trace": args.trace,
              "environment": env, "metrics": metrics, "raw": raw}
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)
    for name in sorted(metrics):
        log("%-28s %14.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }))
    return 0


def write_pins(args):
    """Run every variant of each workload once and pin its row digests."""
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(args.pins, exist_ok=True)
    for workload in ([args.workload] if args.workload else WORKLOADS):
        cells = {}
        instrs = None
        for variant in range(VARIANTS):
            raw_path = os.path.join(OUT_DIR, "pins-%s.raw.json" % workload)
            run_child([binary, "measure", "--workload", workload,
                       "--variant", str(variant), "--seconds", "0",
                       "--out", raw_path], env=child_env())
            with open(raw_path) as handle:
                raw = json.load(handle)
            instrs = raw["instrs"]
            for job in raw["reps"][0]["jobs"]:
                if not job["done"]:
                    raise RuntimeError("cell failed: " + job["key"])
                cells.setdefault(job["key"], []).append(job["digest"])
        with open(os.path.join(args.pins, workload + ".json"), "w") as out:
            json.dump({"workload": workload, "instrs": instrs,
                       "variants": VARIANTS, "cells": cells}, out, indent=1)
            out.write("\n")
        log("pinned %d cells x %d variants of %s" % (len(cells), VARIANTS,
                                                     workload))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=os.path.join(HERE, "pins"),
                        help="directory of pinned row digests")
    parser.add_argument("--write-pins", action="store_true")
    parser.add_argument("--plant-mismatch", type=int, metavar="CELL",
                        help="gate self-test: with --trace 1, check cell "
                        "CELL's replay against an altered row")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.write_pins:
            return write_pins(args)
        if not args.workload:
            parser.error("--workload is required")
        return run_workload(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("dolbench: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
