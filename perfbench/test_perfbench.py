#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of esched).

    python3 perfbench/test_perfbench.py

Builds like run.py does (.bench_build/), then checks that workloads are
pure functions of their seed, that the committed digests still hold,
that fleet daemons never outlive a run, and that every metric run.py
prints is declared in BENCHMARK.json. Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def fleet_processes():
    """Live processes running one of the built fleet binaries."""
    targets = {str(p) for p in (run.AGENTD, run.COORDINATOR, run.WORKER)}
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            exe = os.readlink(entry / "exe")
        except OSError:
            continue
        if exe in targets:
            found.append((int(entry.name), exe))
    return found


def run_bench(*args):
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=run.ROOT,
                          timeout=600)
    return done.returncode, done.stdout.strip().splitlines()


class SeedTest(unittest.TestCase):
    def test_same_seed_same_cells_different_seed_different_cells(self):
        for workload in WORKLOADS:
            first = run.cells_of(workload, 7)
            self.assertEqual(first, run.cells_of(workload, 7), workload)
            self.assertNotEqual(first["digest"],
                                run.cells_of(workload, 8)["digest"], workload)

    def test_committed_digests(self):
        committed = json.loads((run.HERE / "digests.json").read_text())
        self.assertEqual(committed["default_seed"], run.DEFAULT_SEED)
        self.assertEqual(committed["heldout_seed"], run.HELDOUT_SEED)
        for workload in WORKLOADS:
            digests = committed["digests"][workload]
            seeds = [run.DEFAULT_SEED, run.HELDOUT_SEED]
            self.assertEqual(sorted(digests), sorted(map(str, seeds)))
            self.assertNotEqual(*(digests[str(s)] for s in seeds))
            for seed in seeds:
                ref = run.run_driver(["reference", "--workload", workload,
                                      "--seed", str(seed)])
                self.assertEqual(ref["digest"], digests[str(seed)],
                                 f"{workload} seed {seed}")


class FleetTest(unittest.TestCase):
    def test_run_leaves_no_process(self):
        code, lines = run_bench("--workload", "fleet-journal",
                                "--seconds", "1")
        self.assertEqual(code, 0)
        self.assertTrue(json.loads(lines[-1])["correct"])
        self.assertEqual(fleet_processes(), [])

    def test_failed_repetition_tears_fleet_down(self):
        reaper = run.Reaper()
        with self.assertRaises(RuntimeError):
            with run.Fleet(reaper, run.BUILD / "fleet" / "selftest"):
                self.assertNotEqual(fleet_processes(), [])
                raise RuntimeError("repetition failed")
        self.assertEqual(fleet_processes(), [])
        self.assertGreater(reaper.cpu_s, 0.0)


class MetricNameTest(unittest.TestCase):
    def check(self, lines, declared):
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})

    def test_end_to_end_names(self):
        code, lines = run_bench("--workload", "fleet-journal",
                                "--seconds", "1")
        self.assertEqual(code, 0)
        self.check(lines, BENCH["end_to_end"])

    def test_per_layer_names(self):
        code, lines = run_bench("--workload", "fleet-journal", "--trace", "1")
        self.assertEqual(code, 0)
        self.check(lines, BENCH["per_layer"])


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        """Holding only BENCHMARK.json and perfbench/, run.py must exit
        nonzero without printing a result."""
        bare = run.BUILD / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    run.build()
    unittest.main()
