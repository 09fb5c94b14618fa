"""Command-line front end: instance I/O, seeded generation, experiment suites.

Exit codes: 0 pass, 1 property violation, 2 usage or I/O error.
Reports are CSV for tables and JSON for structured results; floats are
formatted with ``repr`` so identical configurations give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .counterexample import divergence_report
from .instances import (
    Instance,
    InstanceFormatError,
    generate_random_instance,
    load_instance,
    save_instance,
)
from .measure import conjugate, lp_norm
from .normest import KINDS, AscentConfig, OperatorHandle, necessity_report, norm_lower_bound
from .stopping import (
    carleson_constant,
    carleson_embedding_check,
    normalize_for_mirror,
    proof_mirror,
)
from .suite import run_all
from .testing import adjoint_testing, direct_testing


def _fmt(x: float) -> str:
    return repr(float(x))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _get_instance(args: argparse.Namespace, seed_shift: int = 0) -> Instance:
    if args.instance:
        return load_instance(args.instance)
    return generate_random_instance(
        args.arity, args.depth, seed=args.seed + seed_shift, sparsity=args.sparsity
    )


def cmd_testing(args: argparse.Namespace) -> int:
    lines = ["instance,p,q,B,Bstar"]
    for t in range(args.trials):
        inst = _get_instance(args, seed_shift=t)
        label = args.instance or f"seed{args.seed + t}"
        b = direct_testing(inst.beta, args.p, args.q, inst.mu, inst.nu)
        if args.p > args.q:
            b_star = adjoint_testing(inst.beta, args.p, args.q, inst.mu, inst.nu)
            star_txt = _fmt(b_star)
        else:
            star_txt = ""
        lines.append(f"{label},{_fmt(args.p)},{_fmt(args.q)},{_fmt(b)},{star_txt}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    inst = _get_instance(args)
    handle = OperatorHandle.from_beta(args.kind, inst.beta, args.p, args.q, inst.mu, inst.nu)
    est = norm_lower_bound(handle, AscentConfig(seed=args.seed))
    payload = {
        "value": est.value,
        "start_kind": est.start_kind,
        "iterations": est.iterations,
        "converged": est.converged,
    }
    _emit(json.dumps(payload, indent=1) + "\n", args.out)
    return 0


def cmd_necessity(args: argparse.Namespace) -> int:
    cfg = AscentConfig(starts=8, max_iter=40, ascend_top=4, seed=args.seed)
    lines = ["instance,p,q,B,Bstar,A,B/A,Bstar/(cA^q)"]
    for t in range(args.trials):
        seed = args.seed + t
        inst = generate_random_instance(args.arity, args.depth, seed=seed, mu_sparsity=0.0)
        rep = necessity_report(inst.beta, args.p, args.q, inst.mu, inst.nu, cfg)
        a = rep.norm_estimate.value
        ratios = (0.0, 0.0)
        if a > 0:
            ratios = (rep.b_direct / a, rep.b_adjoint / (rep.factor * a ** args.q))
        values = (args.p, args.q, rep.b_direct, rep.b_adjoint, a) + ratios
        lines.append(",".join([f"seed{seed}"] + [_fmt(v) for v in values]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_mirror(args: argparse.Namespace) -> int:
    inst = _get_instance(args)
    lat = inst.lattice
    rng = np.random.default_rng(args.seed + 1)
    alpha = inst.beta.absolute()
    f = inst.f if inst.f is not None else 1.0 - rng.random(lat.n_leaves)
    f = np.abs(f)
    g = 1.0 - rng.random(lat.n_leaves)
    if lp_norm(f, args.p, inst.mu) == 0.0 or lp_norm(g, conjugate(args.p), inst.nu) == 0.0:
        sys.stderr.write("mirror: degenerate instance, zero-norm probe\n")
        return 2
    alpha_n, f_n, g_n = normalize_for_mirror(alpha, f, g, args.p, inst.mu, inst.nu)
    report = proof_mirror(alpha_n, f_n, g_n, args.p, inst.mu, inst.nu)
    _emit(json.dumps(report.as_dicts(), indent=1) + "\n", args.out)
    return 0 if report.passed else 1


def cmd_counterexample(args: argparse.Namespace) -> int:
    rows = divergence_report(args.nmax, args.p, args.r)
    lines = ["n,B,Bstar,Q,L,bound"]
    for row in rows:
        lines.append(
            ",".join(
                [str(row.n)]
                + [_fmt(v) for v in (row.b_direct, row.b_adjoint, row.q_value,
                                     row.lower_bound, row.direct_cap)]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_embedding(args: argparse.Namespace) -> int:
    lines = ["instance,p,carleson,lhs,bound,pass"]
    failures = 0
    for t in range(args.trials):
        inst = _get_instance(args, seed_shift=t)
        rng = np.random.default_rng(args.seed + 1000 + t)
        weights = {atom: float(rng.random()) for atom in inst.lattice.atoms()}
        f = rng.standard_normal(inst.lattice.n_leaves)
        lhs, bound = carleson_embedding_check(weights, f, args.p, inst.mu)
        ok = lhs <= bound * (1.0 + args.tol)
        failures += 0 if ok else 1
        const = carleson_constant(weights, inst.mu)
        label = args.instance or f"seed{args.seed + t}"
        lines.append(
            f"{label},{_fmt(args.p)},{_fmt(const)},{_fmt(lhs)},{_fmt(bound)},{ok}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


def cmd_suite(args: argparse.Namespace) -> int:
    results = run_all(heavy=not args.quick)
    # timings go to stderr only: the CSV must be byte-identical across runs
    lines = ["criterion,name,pass,detail"]
    for res in results:
        detail = res.detail.replace(",", ";")
        lines.append(f"{res.number},{res.name},{res.passed},{detail}")
        sys.stderr.write(res.line() + "\n")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_generate(args: argparse.Namespace) -> int:
    inst = generate_random_instance(args.arity, args.depth, seed=args.seed, sparsity=args.sparsity)
    if not args.out:
        sys.stderr.write("generate: --out is required\n")
        return 2
    save_instance(args.out, inst)
    return 0


def _flag_type(convert, expected: str, low: float = -math.inf):
    """A flag's argparse type: ``convert(text)`` when that is a finite number
    >= ``low``; anything else, nan and +-inf included, exits 2."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_finite_float = _flag_type(float, "a finite number")


# every flag a subcommand may take; each subcommand picks the ones it reads
_FLAGS = {
    "--instance": dict(help="instance JSON file (default: generate)"),
    "--arity": dict(type=int, default=2),
    "--depth": dict(type=int, default=3),
    "--sparsity": dict(type=float, default=0.2),
    "--seed": dict(type=int, default=0),
    "--p": dict(type=_finite_float, default=2.0),
    "--q": dict(type=_finite_float, default=2.0),
    "--tol": dict(type=_flag_type(float, "a finite number >= 0", low=0.0), default=1e-9),
    "--trials": dict(type=_flag_type(int, "an integer >= 1", low=1), default=1),
    "--kind": dict(default="vector_paraproduct", choices=KINDS),
    "--nmax": dict(type=int, default=10),
    "--r": dict(type=float, default=0.3),
    "--quick": dict(action="store_true", help="shrink trial counts"),
    "--out": dict(help="output file (default: stdout)"),
}
_INSTANCE = ("--instance", "--arity", "--depth", "--sparsity", "--seed")
_COMMANDS = {
    "testing": (cmd_testing, "emit testing constants as CSV",
                _INSTANCE + ("--p", "--q", "--trials", "--out")),
    "norm": (cmd_norm, "estimate an operator norm, emit JSON",
             _INSTANCE + ("--p", "--q", "--kind", "--out")),
    "mirror": (cmd_mirror, "replay the bilinear decomposition, emit JSON checks",
               _INSTANCE + ("--p", "--out")),
    "counterexample": (cmd_counterexample, "run the separation experiment, emit CSV",
                       ("--p", "--r", "--nmax", "--out")),
    "embedding": (cmd_embedding, "run embedding trials, emit CSV",
                  _INSTANCE + ("--p", "--tol", "--trials", "--out")),
    "necessity": (cmd_necessity, "compare testing constants with norm estimates, emit CSV",
                  ("--arity", "--depth", "--seed", "--p", "--q", "--trials", "--out")),
    "suite": (cmd_suite, "run the full acceptance battery", ("--quick", "--out")),
    "generate": (cmd_generate, "write a random instance file",
                 ("--arity", "--depth", "--sparsity", "--seed", "--out")),
}
# defaults in place of the shared ones: counterexample needs p > 2 (4 is the
# exponent of criterion 1), necessity p > q
_DEFAULTS = {
    "counterexample": dict(p=4.0),
    "necessity": dict(p=4.0, depth=4, trials=20),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martpara",
        description="Two-weight testing constants and operator experiments on finite trees.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(**_DEFAULTS.get(name, {}))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand][0](args)
    except (InstanceFormatError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
