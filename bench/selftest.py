#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about ten seconds).

Runs every workload's command shape at two or three small n, untraced and
traced (the traced run includes the counting pass), and checks that the
outputs match their pinned digests and that exactly the metrics listed in
BENCHMARK.json are emitted, each with its unit.  Run from anywhere::

    python3 bench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class TinyRuns(unittest.TestCase):
    def _run(self, name, trace):
        result, problems = run.run(name, seed=7, seconds=0.01, trace=trace, tiny=True)
        self.assertEqual(problems, [])
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        return {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}

    def test_untraced_metrics_match_spec(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                metrics = self._run(name, trace=False)
                self.assertEqual({k: u for k, (_, u) in metrics.items()},
                                 _units("end_to_end"))
                self.assertTrue(all(v > 0 for v, _ in metrics.values()))

    def test_traced_metrics_match_spec(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                metrics = self._run(name, trace=True)
                self.assertEqual({k: u for k, (_, u) in metrics.items()},
                                 _units("per_layer"))
                # every op's root span is cli.main, so layer self times add up to it
                layers_total = sum(metrics[f"{layer}.self_s"][0] for layer in layers.LAYERS)
                self.assertAlmostEqual(layers_total, metrics["cli.main.s"][0], places=6)
                validated = metrics["chars.validate_table.calls"][0]
                self.assertEqual(validated > 0, name == "atlas-cyclic")
                reverified = metrics["gelfand.witness_reverify.s"][0]
                self.assertEqual(reverified > 0, name == "audit-dicyclic")


class Harness(unittest.TestCase):
    def test_spec_lists_the_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_every_op_has_a_pinned_digest(self):
        digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
        for workload in run.WORKLOADS.values():
            for op in workload.ops() + workload.ops(tiny=True):
                self.assertIn(" ".join(op), digests)

    def test_fails_without_the_package(self):
        run.WORK.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.WORK))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, bare / run.BENCH.name,
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "classify-d72",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
