#!/usr/bin/env python3
"""Compare testing constants with estimated operator norms on random instances.

Usage: python scripts/explore_norms.py [--trials 20] [--p 4] [--q 2] [--seed 0]

Prints one line per instance: both testing constants, the estimated
vector-paraproduct norm, and the two necessity ratios (both should stay at
most 1 up to the 4p/(p-q) factor built into the second).  Flags it cannot
run with (p <= q, an exponent that is not a finite number above 1, a tree
shape ``build_lattice`` refuses, fewer than one trial) print one
``error: ...`` line to stderr and exit 2 before anything is printed.
"""

import argparse
import sys

from martpara import AscentConfig, build_lattice, necessity_report
from martpara.instances import generate_random_instance
from martpara.measure import _check_exponents


def check(args: argparse.Namespace) -> None:
    """Raise ValueError naming the first flag the run cannot take."""
    _check_exponents(args.p, args.q, r=True)
    build_lattice(args.arity, args.depth)
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--p", type=float, default=4.0)
    parser.add_argument("--q", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--arity", type=int, default=2)
    parser.add_argument("--depth", type=int, default=4)
    args = parser.parse_args(argv)
    try:
        check(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    cfg = AscentConfig(starts=8, max_iter=40, ascend_top=4, seed=args.seed)
    print(f"{'seed':>6} {'B':>9} {'B*':>9} {'A_est':>9} {'B/A':>7} {'B*/(cA^q)':>10}")
    for t in range(args.trials):
        seed = args.seed + t
        inst = generate_random_instance(
            args.arity, args.depth, seed=seed, mu_sparsity=0.0
        )
        rep = necessity_report(inst.beta, args.p, args.q, inst.mu, inst.nu, cfg)
        a = rep.norm_estimate.value
        ratio1 = rep.b_direct / a if a > 0 else 0.0
        ratio2 = rep.b_adjoint / (rep.factor * a ** args.q) if a > 0 else 0.0
        print(
            f"{seed:>6} {rep.b_direct:>9.4f} {rep.b_adjoint:>9.4f} {a:>9.4f} "
            f"{ratio1:>7.3f} {ratio2:>10.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
