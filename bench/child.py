"""One pass of a benchmark workload, in a fresh interpreter.

Reads a job from stdin as JSON::

    {"src": DIR, "workdir": DIR, "mode": "setup"|"plain"|"trace"|"count",
     "ops": [[argv...], ...]}

imports ``sgp.cli`` from ``src``, then runs each op as one in-process
``sgp.cli.main(argv)`` call with stdout captured, one after another.  The
string ``{out}`` in an argument is replaced by a directory of that op's
own under ``workdir``.  Prints one JSON line: the monotonic time at which
the first op could start, and per op its exit code, seconds, sha256 of
stdout and of every file written.
``plain`` mode samples the machine's speed while the ops run (speed.py)
and adds each op's mean probe loop time; ``setup`` mode runs the probe
loop once after the import.  ``trace`` and ``count`` modes instrument the
package first (see layers.py) and add the per-layer totals.  Exits 2 if
sgp cannot be imported from ``src``.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_op(cli, argv, out_root: Path, probe) -> dict:
    argv = [a.replace("{out}", str(out_root)) for a in argv]
    captured = io.StringIO()
    rc = None
    paused = probe.paused if probe else 0.0
    with contextlib.redirect_stdout(captured):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an op that crashes is a failed op, not a crashed run
            traceback.print_exc()
        t1 = time.perf_counter()
    seconds = t1 - t0 - ((probe.paused - paused) if probe else 0.0)
    loop_s = probe.loop_s(t0, t1) if probe else None
    stdout = captured.getvalue().encode("utf-8")
    files = {}
    written = 0
    for path in sorted(out_root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            files[path.relative_to(out_root).as_posix()] = _sha256(data)
            written += len(data)
    return {"rc": rc, "seconds": seconds, "loop_s": loop_s, "stdout": _sha256(stdout),
            "files": files, "bytes": len(stdout) + written}


def main() -> int:
    job = json.loads(sys.stdin.read())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    try:
        from sgp import cli
    except ImportError as exc:
        print(f"cannot import sgp from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"imported sgp from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    ready = time.monotonic()

    # the harness's own modules load after the set-up time is taken
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    import speed

    mode = job["mode"]
    report = {"ready": ready, "ops": []}
    if mode == "setup":
        report["loop_s"] = speed.probe_loop()
        print(json.dumps(report))
        return 0

    recorder = counter = None
    if mode == "trace":
        recorder = layers.SpanRecorder(layers.OBSERVERS)
        report["missed"] = layers.install(layers.TIMED, recorder.wrap)
    elif mode == "count":
        counter = layers.CallCounter()
        report["missed"] = layers.install(layers.COUNTED, counter.wrap)

    workdir = Path(job["workdir"])
    with speed.SpeedProbe() if mode == "plain" else contextlib.nullcontext() as probe:
        for i, argv in enumerate(job["ops"]):
            # each op writes under its own directory so its files can be hashed alone
            result = _run_op(cli, argv, workdir / f"op{i}", probe)
            result["argv"] = argv
            report["ops"].append(result)

    if recorder is not None:
        report["totals"] = [[name, parent, *agg]
                            for (name, parent), agg in recorder.totals.items()]
        report["counters"] = recorder.counters
    if counter is not None:
        report["counts"] = counter.counts
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
