"""Benchmark of the ``cyclogic`` command, driven in-process.

    python3 perfbench/run.py --workload {experiment,tm-long,exact-core}
                             --seed N --seconds S --trace {0,1}

One process, one closed-loop client: each op is a ``cyclogic`` argv passed
to ``cli.main`` after the previous op returned, with stdout and stderr
captured in memory.  Every op's output is checked against an independent
closed form (``checks.py``).  Ops come in rounds of a fixed mix
(``workloads.py``); a run repeats whole rounds, each pass in a fresh seeded
order, until ``--seconds`` have passed, after one untimed warm-up round.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and traced, and reports the per-layer metrics of the traced
calls plus the tracing overhead (traced minus untraced wall time of the same
ops); its spans go to ``.perfbench/spans-<workload>-<seed>.jsonl.gz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, with sample counts.  The program reads no file and
writes none while an op is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Fresh interpreters timed for ``setup_s``, after one untimed warm start.
SETUP_STARTS = 21


def measure_setup_s() -> tuple[float, int]:
    """Median wall time for a fresh interpreter to import ``cyclogic.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import cyclogic.cli"]
    times = []
    for i in range(SETUP_STARTS + 1):
        start = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        if i:
            times.append(perf_counter() - start)
    return statistics.median(times), len(times)


def invoke(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run one op through ``cli.main``; returns (seconds, exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = None
            err.write(f"raised {exc!r}")
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def check(op, code: int | None, out: str, err: str) -> str | None:
    try:
        return op.check(code, out, err)
    except Exception as exc:  # malformed output fails the op, not the run
        return f"unreadable output: {exc!r}"


def timed_op(cli, op) -> tuple[float, str | None]:
    """Run and check one op; returns (seconds, failure reason or None).

    A full collection first gives every op the same collector state, as a
    fresh ``cyclogic`` process would have, and the op's output is dropped
    before the next op starts.
    """
    gc.collect()
    seconds, code, out, err = invoke(cli, op.argv)
    return seconds, check(op, code, out, err)


def traced_pair(cli, tracer, op, op_id: int) -> tuple[float, float, str | None]:
    """Run an op untraced and traced, alternating which goes first so that
    neither side always finds the other's warm caches.

    Returns (traced seconds, untraced seconds, failure reason or None).
    """
    def traced():
        tracer.install(op_id, "--trace" in op.argv)
        try:
            return timed_op(cli, op)
        finally:
            tracer.uninstall()

    if op_id % 2:
        traced_s, reason = traced()
        untraced_s, untraced_reason = timed_op(cli, op)
    else:
        untraced_s, untraced_reason = timed_op(cli, op)
        traced_s, reason = traced()
    return traced_s, untraced_s, reason or untraced_reason


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run(args) -> dict:
    from cyclogic import cli, harness, logic, radix

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(cli, harness, radix, logic)
    setup = measure_setup_s() if not args.trace else None

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        rounds = workloads.build(args.workload, args.seed, workdir)
        for op in rounds[0]:
            invoke(cli, op.argv)
        gc.collect()
        gc.freeze()  # keeps the per-op collections below cheap

        times: list[float] = []  # wall seconds of every timed op
        latencies: list[float] = []  # the same, with inf for a failed op
        untraced = 0.0
        reasons: Counter[str] = Counter()
        deadline = perf_counter() + args.seconds
        # Each pass over a round takes a fresh seeded order, so that no op
        # always follows the same neighbour (a heavy op leaves freed memory
        # and cold caches behind for the next one).
        order = random.Random(args.seed)
        r = 0
        while r == 0 or perf_counter() < deadline:
            ops = rounds[r % len(rounds)]
            for op in order.sample(ops, len(ops)):
                if tracer is None:
                    seconds, reason = timed_op(cli, op)
                else:
                    seconds, bare, reason = traced_pair(cli, tracer, op, len(times))
                    untraced += bare
                times.append(seconds)
                latencies.append(seconds if reason is None else math.inf)
                if reason is not None:
                    reasons[f"{op.kind}: {reason}"] += 1
            r += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(times)
    failed = sum(reasons.values())
    ok = attempted - failed
    print(f"workload {args.workload}, seed {args.seed}: {r} rounds, "
          f"{attempted} ops, {failed} failed")
    for reason, count in sorted(reasons.items()):
        print(f"  failed x{count}: {reason}")
    # The run stays correct while every failure is the one known defect.
    correct = all(reason.endswith(checks.KNOWN_DEFECT) for reason in reasons)

    if tracer is not None:
        overhead = sum(times) - untraced
        metrics = tracer.layer_metrics()
        metrics["trace.ops"] = (attempted, "count")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (overhead / untraced, "ratio")
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write_spans(str(spans_path))
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        samples = dict.fromkeys(metrics, attempted)
    else:
        ranked = sorted(latencies)
        metrics = {
            "ops_per_s": (ok / sum(times), "1/s"),
            "latency_p50_ms": (nearest_rank(ranked, 0.5) * 1e3, "ms"),
            "latency_p90_ms": (nearest_rank(ranked, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": (ok / attempted, "ratio"),
            "setup_s": (setup[0], "s"),
        }
        samples = dict.fromkeys(metrics, attempted)
        samples["setup_s"] = setup[1]
        samples["peak_rss_mb"] = 1
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  (n={samples[name]})")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cyclogic" / "cli.py").is_file():
        print(f"perfbench: no cyclogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
