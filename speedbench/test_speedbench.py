#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 speedbench/test_speedbench.py

They build the benchmark through run.py (a no-op when it is up to date) and
check: the program's self-test (tail-percentile rule, metric-name grammar,
same seed → same request and trial sequence); that a seed no run used before
still passes every check on every workload, traced and untraced; that the
deterministic counters repeat exactly between two runs; and that the metrics
printed are exactly the ones BENCHMARK.json declares.
"""
import json
import os
import random
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ("flow_table2", "mc_validate", "daemon_sweep", "opt_search")
# Counters that must not depend on timing, per workload.
COUNTERS = {
    "flow_table2": ("map.gates", "masking.cubes", "bdd.ite_recursions",
                    "bdd.peak_live_nodes", "bdd.gc_reclaimed"),
    "mc_validate": ("mc.trials", "mc.violating_trials", "inject.sites",
                    "inject.trials", "sim.words", "sim.lanes"),
    "opt_search": ("opt.evaluations", "opt.spot_checks"),
    "daemon_sweep": ("svc.warm_misses",),
}


def run(workload, seed, trace, seconds=1):
    """Runs one workload; returns (exit code, info metrics, result JSON)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    lines = out.stdout.strip().split("\n")
    info = {}
    for line in lines:
        parts = line.split()
        if parts[0] == "metric":
            info[parts[1]] = float(parts[2])
    return out.returncode, info, json.loads(lines[-1])


class SpeedbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_selftest(self):
        got = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--selftest"],
                             cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=900)
        self.assertEqual(got.returncode, 0, got.stdout)

    def test_declared_names_follow_the_grammar(self):
        for group in ("workloads", "end_to_end", "per_layer"):
            names = [m["name"] for m in self.spec[group]]
            self.assertEqual(len(names), len(set(names)), group)
            for name in names:
                self.assertRegex(name, NAME)

    def test_fresh_seed_passes_every_check(self):
        seed = random.SystemRandom().randrange(1, 2**31)
        end_to_end = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in WORKLOADS:
            for trace, declared in ((0, end_to_end), (1, per_layer)):
                with self.subTest(workload=workload, trace=trace, seed=seed):
                    code, _, result = run(workload, seed, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_counters_repeat_between_runs(self):
        for workload, names in COUNTERS.items():
            with self.subTest(workload=workload):
                first = run(workload, 5, 0)[1]
                second = run(workload, 5, 0)[1]
                for name in names:
                    self.assertEqual(first[name], second[name], name)


if __name__ == "__main__":
    unittest.main()
