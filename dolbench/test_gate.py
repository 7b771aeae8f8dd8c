#!/usr/bin/env python3
"""Self-tests of the benchmark's row gate.

Runs every workload for one repetition (about two minutes in all) and
checks that:
  * the byte-identical switches DOL_SIMD=scalar and DOL_FASTPATH=0
    still reproduce every pinned row (0 failed cells);
  * an altered pin makes its cell fail, once per repetition;
  * a traced run whose replay disagrees with the real row (a planted
    mirror mismatch) fails that cell.

    python3 dolbench/test_gate.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("paper_grid", "extras_grid", "contention_mixes")


def run_benchmark(workload, env_extra=None, pins=None, seed=0, extra=()):
    env = dict(os.environ)
    env.update(env_extra or {})
    argv = [sys.executable, RUN, "--workload", workload, "--seed",
            str(seed), "--seconds", "0", "--trace", "0"]
    if pins:
        argv += ["--pins", pins]
    argv += list(extra)
    done = subprocess.run(argv, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError("run.py exited with %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


class ByteIdenticalSwitches(unittest.TestCase):
    def check(self, env_extra):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run_benchmark(workload, env_extra)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_scalar_tag_scans_pass_the_gate(self):
        self.check({"DOL_SIMD": "scalar"})

    def test_fastpath_off_passes_the_gate(self):
        self.check({"DOL_FASTPATH": "0"})


class AlteredPin(unittest.TestCase):
    def test_altered_pin_fails_its_cell(self):
        workload = "contention_mixes"
        altered = os.path.join(ROOT, ".bench_out", "altered_pins")
        shutil.rmtree(altered, ignore_errors=True)
        os.makedirs(altered)
        with open(os.path.join(HERE, "pins", workload + ".json")) as handle:
            pins = json.load(handle)
        key = next(iter(pins["cells"]))
        digest = pins["cells"][key][0]
        pins["cells"][key][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
        with open(os.path.join(altered, workload + ".json"), "w") as handle:
            json.dump(pins, handle)

        result = run_benchmark(workload, pins=altered, seed=0)
        self.assertFalse(result["correct"])
        # --seconds 0 runs one repetition: exactly the altered cell fails.
        self.assertEqual(result["failed"], 1)
        # Another seed uses another variant's pins, which are intact.
        other = run_benchmark(workload, pins=altered, seed=1)
        self.assertTrue(other["correct"])


class PlantedReplayMismatch(unittest.TestCase):
    def test_planted_mirror_mismatch_fails_its_cell(self):
        # --trace 1 overrides the --trace 0 above (argparse keeps the
        # last value).
        result = run_benchmark("paper_grid",
                               extra=["--trace", "1", "--plant-mismatch", "0"])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["metrics"]["sim.mirror_mismatches"]["value"],
                         1)


if __name__ == "__main__":
    unittest.main()
