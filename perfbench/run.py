#!/usr/bin/env python3
"""martpara benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (ascent-small, suite-quick, mirror-heavy, kernels-large)
in a fresh single-threaded interpreter started from the checkout's ``src``,
checks every output and prints, as the last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A copy
of that object with the round times (traced: also the traced ``wall_s`` and
the recorded spans) goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


#: workload -> how an operation's times over a run's rounds are summarised.
#: The machine is shared: a neighbour's load slows this process by up to
#: about a half on Python-bound code and twice on numpy kernels, in phases
#: from under a second to minutes.  Most passes of an operation are slowed,
#: so the slowed level is the one that recurs from run to run: the slowest
#: time where a run times each operation 1-8 times, and the upper quartile
#: on kernels-large, which times each 20-30 times, so that its slowest time
#: is a one-off spike.
OP_STATISTIC = {"ascent-small": max, "suite-quick": max, "mirror-heavy": max, "kernels-large": upper_quartile}
WORKLOADS = tuple(OP_STATISTIC)
#: workloads whose program state persists between rounds in one process
FRESH_PROCESS_PER_ROUND = ("suite-quick",)
#: set-up is measured this many times per run and reported as the median
SETUP_SAMPLES = 9
#: workers are stopped this long after --seconds have passed; at the
#: benchmark's 25 s a run thus ends within 180 s
RUN_MARGIN_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a worker could start")
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--spawn-time", repr(t0), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def run_workers(args, deadline: float) -> list[dict]:
    """The measured workers: one for the whole run, or one per round.  Rounds
    in their own worker run while the last one would still fit in the run's
    --seconds, and at least once."""
    if args.workload not in FRESH_PROCESS_PER_ROUND:
        return [spawn(args, deadline, "--seconds", str(args.seconds), *trace_file(args, 0))]
    results: list[dict] = []
    start = time.monotonic()
    last = 0.0
    while not results or time.monotonic() - start + last <= args.seconds:
        t0 = time.monotonic()
        results.append(spawn(args, deadline, "--seconds", str(args.seconds), "--one-round",
                             *trace_file(args, len(results))))
        last = time.monotonic() - t0
    return results


def trace_file(args, k: int) -> list[str]:
    if not args.trace:
        return []
    return ["--trace-file", str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}-{k}.json")]


def round_time(results: list[dict], index: int, statistic) -> float:
    """Time of one round: the sum over the round's operations of
    ``statistic`` of each operation's times in the run's rounds (``index``
    0 for wall, 1 for process CPU time)."""
    rounds = [times for r in results for times in r["op_times"]]
    return sum(statistic([times[label][index] for times in rounds]) for label in rounds[0])


def end_to_end(results: list[dict], setups: list[float], statistic) -> dict:
    return {
        "wall_s": {"value": round_time(results, 0, statistic), "unit": "s"},
        "cpu_s": {"value": round_time(results, 1, statistic), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results), "unit": "MB"},
        "norm_lb_sum": {"value": statistics.median(r["norm_lb_sum"] for r in results), "unit": "1"},
    }


def per_layer(results: list[dict]) -> dict:
    """Round-weighted mean over the workers of each per-round layer metric."""
    rounds = [len(r["walls"]) for r in results]
    out = {}
    for name, (_, unit) in results[0]["per_layer"].items():
        total = sum(r["per_layer"][name][0] * n for r, n in zip(results, rounds))
        out[name] = {"value": total / sum(rounds), "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "martpara" / "__init__.py").is_file():
        print(f"error: no martpara sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        results = run_workers(args, deadline)
        if args.trace:
            metrics = per_layer(results)
        else:
            setups = [r["setup_s"] for r in results]
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args, deadline, "--seconds", "0", "--setup-only")["setup_s"])
            metrics = end_to_end(results, setups, OP_STATISTIC[args.workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = [e for r in results for e in r["errors"]]
    for line in errors[:20]:
        print(f"wrong result: {line}", file=sys.stderr)
    payload = {
        "correct": sum(r["error_count"] for r in results) == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    record = dict(payload, round_walls=[r["walls"] for r in results],
                  op_times=[t for r in results for t in r["op_times"]],
                  reference_rss_mb=[r["reference_rss_mb"] for r in results])
    if args.trace:
        # wall time with tracing on; minus the untraced wall_s it is the tracing overhead
        record["traced_wall_s"] = round_time(results, 0, OP_STATISTIC[args.workload])
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n"
    )
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
