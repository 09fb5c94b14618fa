"""One benchmark process: set up a workload, time its rounds, check them.

``run.py`` starts this script in a fresh single-threaded interpreter and
reads the JSON object printed on its last stdout line.  Set-up (interpreter
start, imports, input generation, warm-up) is timed from ``--spawn-time``,
a ``time.monotonic`` reading taken by the parent just before the start.
Rounds run until ``--seconds`` have passed (the last round may end later),
and only one with ``--one-round``.  Every operation of a round is timed on
its own, wall and process CPU time (``Workload.attempt``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--one-round", action="store_true")
    ap.add_argument("--trace-file")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy  # noqa: F401  (imports are part of set-up)

    import martpara
    import martpara.cli  # noqa: F401
    import martpara.suite  # noqa: F401

    src = (ROOT / "src").resolve()
    if src not in Path(martpara.__file__).resolve().parents:
        print(f"martpara was imported from {martpara.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    t0 = time.perf_counter()
    wl.generate()
    generate_s = time.perf_counter() - t0
    wl.warm_up()
    setup_s = time.monotonic() - args.spawn_time
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ref = wl.reference()
    # the peak so far (set-up and expected values); the rounds should raise it
    reference_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, op_times, errors = [], [], []
    attempted = failed = 0
    lb_sum = None
    start = time.perf_counter()
    while True:
        wl.op_times = {}
        w0 = time.perf_counter()
        out = tracer.span("bench.round", wl.run_round) if tracer else wl.run_round()
        walls.append(time.perf_counter() - w0)
        op_times.append(wl.op_times)
        if len(walls) == 1:
            for label in [k for k, v in out.items() if isinstance(v, workloads.Failure)]:
                print(f"failed operation {label}: {out[label].message}", file=sys.stderr)
        n_failed, wrong = wl.check(out, ref)
        attempted += wl.attempted_per_round
        failed += n_failed
        errors.extend(wrong)
        lb = wl.lower_bounds(out)
        if lb_sum is None:
            lb_sum = lb
        elif lb != lb_sum:
            errors.append(f"norm lower bounds differ between rounds: {lb!r} != {lb_sum!r}")
        # the outputs are checked: free them, so that they do not add to the
        # next round's memory peak
        del out
        if args.one_round or time.perf_counter() - start >= args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "op_times": op_times,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "error_count": len(errors),
        "norm_lb_sum": lb_sum,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_rss_mb": reference_rss_mb,
    }
    if tracer:
        result["per_layer"] = tracer.metrics(len(walls), generate_s)
        if args.trace_file:
            tracer.dump(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
