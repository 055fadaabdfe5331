#!/usr/bin/env python3
"""Benchmark of the sgp command line: three workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --pin

A workload is a fixed list of ``sgp`` command lines (see WORKLOADS and
bench/README.md for why each was chosen); the seed only permutes their
order.  Each pass of a workload runs in a fresh child interpreter
(bench/child.py), because a CLI user pays every cold cache on every
invocation; inside it each op is one ``sgp.cli.main(argv)`` call, run one
after another in one thread.  Passes, each in its own seeded order, start
until ``--seconds`` have passed; at least one always runs.

Every op is checked against the sha256 of its stdout (and, for ``atlas``,
of every file written) pinned from the seed code in bench/digests.json; a
nonzero exit code or a different digest counts the op as failed.

``--trace 0`` reports the end-to-end metrics, times at reference speed
(speed.py): ``setup_s`` (median of SETUP_SAMPLES fresh interpreters, from
spawn until ``sgp.cli`` is imported), ``wall_s`` (sum over ops of each
op's median time over the passes), ``op_p50_s`` (median of those op times)
and ``peak_rss_mb`` (median over passes).  ``--trace 1`` adds one traced
pass and one counting pass (see layers.py) and reports the per-layer
metrics instead, plus ``trace.overhead_s``, the traced pass's op time
minus the untraced one, both as measured.  It also fails the run if a
wrapped function could be bypassed or records no call on a workload
predicted to call it.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 2, with no
result, when the package cannot be run at all.  ``--pin`` re-pins the
digests from the current code; use it only when the output bytes are meant
to change.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"
WORK = BENCH / "_work"

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MiB"}

# wrapped names every workload calls; the rest are listed per workload
_ALWAYS = (set(layers.TIMED) | set(layers.COUNTED)) - {
    "gelfand.audit", "gelfand.audit_group", "chars.validate_table",
    "cyclo.weighted_product_sum"}


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]  # argv with "{n}" standing for the group parameter
    full: tuple[int, ...]
    tiny: tuple[int, ...]  # the self-test's sizes
    # wrapped names that must record a call, or per-layer metrics that must be > 0
    expect: frozenset[str]

    def ops(self, tiny: bool = False) -> list[list[str]]:
        return [[a.replace("{n}", str(n)) for a in self.command]
                for n in (self.tiny if tiny else self.full)]


WORKLOADS = {
    # Sizes keep one pass near 5 s at the seed, so a 30 s run takes several
    # passes and each op's median over them is steady.
    # Small-to-mid nonabelian sweep: per-group fixed costs set op_p50_s and
    # every non-strong subgroup's witness is re-verified.
    "audit-dicyclic": Workload(
        ("audit", "dicyclic", "{n}", "--format", "json"),
        tuple(range(2, 15)), (2, 3, 4),
        frozenset(_ALWAYS | {"gelfand.audit", "gelfand.audit_group",
                             "gelfand.witness_reverify.s"})),
    # One large group (order 72, 100 subgroups): enumeration is over 40% of
    # the time, so an enumeration change shows here.
    "classify-d72": Workload(
        ("classify", "dihedral", "{n}", "--format", "json"),
        (36,), (4, 6),
        frozenset(_ALWAYS)),
    # Abelian sweep: enumeration is negligible, the inner product dominates,
    # and only this workload validates tables and writes files.
    "atlas-cyclic": Workload(
        ("atlas", "cyclic", "{n}", "--out", "{out}/{n}"),
        tuple(range(1, 28)), (1, 2, 3),
        frozenset(_ALWAYS | {"gelfand.audit_group", "chars.validate_table",
                             "cyclo.weighted_product_sum"})),
}


class BenchError(Exception):
    """The package could not be run; no result is printed."""


def _child(mode: str, ops, workdir: Path, deadline: float) -> dict:
    job = {"src": str(SRC), "workdir": str(workdir), "mode": mode, "ops": ops}
    env = {k: v for k, v in os.environ.items() if k != "SGP_MAX_ORDER"}
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD)], input=json.dumps(job),
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass did not finish within the run limit") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with code {proc.returncode}")
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{mode} pass printed no report") from exc
    report["setup_s"] = report["ready"] - start
    return report


def _passes(ops, rng, seconds: float, workdir: Path, deadline: float) -> list[dict]:
    """Untraced passes, each in its own op order, until `seconds` have passed."""
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        order = rng.sample(ops, len(ops))
        passes.append(_child("plain", order, workdir / f"pass{len(passes)}", deadline))
    return passes


def _op_times(passes, scaled: bool = True) -> list[float]:
    """Each op's median time over the passes, at reference speed (speed.py)."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            t = speed.at_reference_speed(op["seconds"], op["loop_s"]) if scaled \
                else op["seconds"]
            times.setdefault(" ".join(op["argv"]), []).append(t)
    return [statistics.median(t) for t in times.values()]


def _setup_s(workdir: Path, deadline: float) -> float:
    """Spawn to first op, at reference speed: probe before the spawn and after."""
    loop_before = speed.probe_loop()
    report = _child("setup", [], workdir, deadline)
    return speed.at_reference_speed(report["setup_s"], (loop_before + report["loop_s"]) / 2)


def _op_ok(op: dict, digests: dict) -> bool:
    want = digests.get(" ".join(op["argv"]))
    return op["rc"] == 0 and want == {"stdout": op["stdout"], "files": op["files"]}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """One benchmark run; returns (result object, list of problems found)."""
    if not (SRC / "sgp" / "cli.py").is_file():
        raise BenchError(f"no sgp package under {SRC}")
    workload = WORKLOADS[name]
    ops = workload.ops(tiny)
    rng = random.Random(seed)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setups = [] if trace else [_setup_s(workdir, deadline)
                                   for _ in range(SETUP_SAMPLES)]
        passes = _passes(ops, rng, seconds, workdir, deadline)
        checked = list(passes)
        if trace:
            traced = _child("trace", rng.sample(ops, len(ops)), workdir / "trace", deadline)
            counted = _child("count", rng.sample(ops, len(ops)), workdir / "count", deadline)
            checked += [traced, counted]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [op for p in checked for op in p["ops"] if not _op_ok(op, digests)]
    problems = [f"op failed: {' '.join(op['argv'])}" for op in failures]
    if trace:
        totals = {(n, parent): agg for n, parent, *agg in traced["totals"]}
        metrics = layers.layer_metrics(
            totals, traced["counters"], counted["counts"],
            sum(op["bytes"] for op in traced["ops"]))
        metrics["trace.overhead_s"] = (sum(op["seconds"] for op in traced["ops"])
                                       - sum(_op_times(passes, scaled=False)))
        units = layers.UNITS
        problems += traced["missed"] + counted["missed"]
        calls = {**layers.calls_by_name(totals), **counted["counts"]}
        for expected in sorted(workload.expect):
            value = metrics[expected] if expected in units else calls.get(expected, 0)
            if not value > 0:
                problems.append(f"{expected} recorded nothing on {name}")
    else:
        op_times = _op_times(passes)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(op_times),
            "op_p50_s": statistics.median(op_times),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        }
        units = E2E_UNITS
    result = {
        "correct": not problems,
        "attempted": sum(len(p["ops"]) for p in checked),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, problems


def pin() -> None:
    """Write the digest of every full-size and tiny op from the current code."""
    digests = {}
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for name, workload in WORKLOADS.items():
            ops = sorted(workload.ops() + workload.ops(tiny=True))
            report = _child("plain", ops, workdir / name, time.monotonic() + 600)
            for op in report["ops"]:
                if op["rc"] != 0:
                    raise BenchError(f"cannot pin a failing op: {' '.join(op['argv'])}")
                digests[" ".join(op["argv"])] = {"stdout": op["stdout"],
                                                 "files": op["files"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the output digests from the current code")
    args = parser.parse_args(argv)
    try:
        if args.pin:
            pin()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, problems = run(name, args.seed, args.seconds, bool(args.trace))
            for problem in problems:
                print(f"{name}: {problem}", file=sys.stderr)
            for metric, m in result["metrics"].items():
                print(f"{name:<15} {metric:<34} {m['value']:>14.6f} {m['unit']}")
            print(f"{name:<15} ops attempted {result['attempted']}, failed {result['failed']}")
            results[name] = result
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
