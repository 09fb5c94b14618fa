#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and a change, summarised as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent REV [--change REV] --pr N \\
        [--claim WORKLOAD:METRIC] [--trace WORKLOAD:SEED] [--note TEXT]

Both revisions are exported with ``git archive`` into a temporary directory
and each export runs its own, unmodified ``perfbench/run.py`` for the
``run_seconds`` of the change's ``BENCHMARK.json``.  For every workload of
that file the script makes ``PAIRS`` pairs of one parent run and one change
run on the same seed (seeds ``FIRST_SEED``, ``FIRST_SEED`` + 1, ...), one
after the other, and the side that runs first alternates from pair to pair.
The end-to-end metrics and their units and directions come from the same
file.  The summary, written to ``BENCH_<pr>.json`` at the root of the
checkout, gives per metric each side's median, quartiles and runs, the pairs
the change wins and ties, and the ratio of the medians; per workload each
run's ``correct``, ``attempted`` and ``failed``; and, with ``--trace``, the
per-layer metrics of one traced run per side.

To benchmark uncommitted work, pass ``--change $(git stash create)``: a
commit of the working tree's tracked files that leaves the tree and the refs
as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: pairs per workload, and the seed of the first
PAIRS = 10
FIRST_SEED = 101
PROTOCOL = (
    "pairs of one parent run and one change run on the same seed, run one after the other "
    "with nothing else started meanwhile; the side that runs first alternates from pair to pair"
)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The files of ``rev``, written into ``dest`` with ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one run of the checkout's perfbench/run.py."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def first_in_pair(workload_index: int, pair: int) -> str:
    return SIDES[(workload_index + pair) % 2]


def side_summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarise_workload(records: list[dict], spec: list[dict]) -> dict:
    """Summary of one workload's pairs.  ``records`` holds per pair its seed,
    which side ran first and each side's result line; ``spec`` is the
    ``end_to_end`` list of BENCHMARK.json."""
    metrics = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        runs = {side: [r[side]["metrics"][name]["value"] for r in records] for side in SIDES}
        wins = ties = 0
        for parent, change in zip(runs["parent"], runs["change"]):
            ties += change == parent
            wins += change < parent if lower else change > parent
        sides = {side: side_summary(runs[side]) for side in SIDES}
        parent_median = sides["parent"]["median"]
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            **sides,
            "change_wins": wins,
            "ties": ties,
            "median_ratio_change_over_parent":
                sides["change"]["median"] / parent_median if parent_median else None,
        }
    out = {
        "seeds": [r["seed"] for r in records],
        "pairs": len(records),
        "first_in_pair": [r["first"] for r in records],
        "metrics": metrics,
    }
    for side in SIDES:
        out[f"{side}_ops"] = [
            {key: r[side][key] for key in ("correct", "attempted", "failed")} for r in records
        ]
    return out


def per_layer_summary(results: dict) -> dict:
    """Per-layer metrics of one traced run per side."""
    return {
        name: {"unit": value["unit"],
               **{side: results[side]["metrics"][name]["value"] for side in SIDES}}
        for name, value in results["parent"]["metrics"].items()
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "os": platform.platform(),
        "note": "shared virtual machine; neighbours' load is not controlled",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    ap.add_argument("--pr", required=True, type=int, help="number in the output file name")
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--trace", default=None, help="WORKLOAD:SEED of one traced run per side")
    ap.add_argument("--note", default="", help="what the change does")
    args = ap.parse_args(argv)

    revs = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        summary = {
            "change": f"{args.note} (src tree {git('rev-parse', revs['change'] + ':src')})".lstrip(),
            "parent_commit": git("rev-parse", "--short", revs["parent"]),
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                       "--trace 0, unmodified, from a fresh export of each commit",
            "protocol": PROTOCOL,
            "machine": machine(),
        }
        if args.claim:
            workload, metric = args.claim.split(":")
            summary["claimed"] = {"workload": workload, "metric": metric}
        summary["workloads"] = {}
        for w, workload in enumerate(spec["name"] for spec in bench["workloads"]):
            records = []
            for k in range(PAIRS):
                first = first_in_pair(w, k)
                rec = {"seed": FIRST_SEED + k, "first": first}
                for side in (first, SIDES[1 - SIDES.index(first)]):
                    rec[side] = run_bench(trees[side], workload, rec["seed"], seconds, 0)
                records.append(rec)
                print(f"{workload} pair {k + 1}/{PAIRS}: wall_s parent "
                      f"{rec['parent']['metrics']['wall_s']['value']:.3f} change "
                      f"{rec['change']['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
            summary["workloads"][workload] = summarise_workload(records, bench["end_to_end"])
        if args.trace:
            workload, seed = args.trace.split(":")
            results = {side: run_bench(trees[side], workload, int(seed), seconds, 1)
                       for side in SIDES}
            summary[f"per_layer_{workload.replace('-', '_')}_seed{seed}"] = {
                "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                           f"--seconds {seconds:g} --trace 1, one run per side",
                "metrics": per_layer_summary(results),
            }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
