"""Command-line front end: instance I/O, seeded generation, experiment suites.

Exit codes: 0 pass, 1 property violation, 2 usage or I/O error.
Reports are CSV for tables and JSON for structured results; floats are
formatted with ``repr`` so identical configurations give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
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
from .normest import AscentConfig, OperatorHandle, norm_lower_bound
from .paraproduct import NonnegativeCoefficients, project_mean_zero
from .stopping import carleson_embedding_check, normalize_for_mirror, proof_mirror
from .suite import run_all
from .testing import adjoint_testing, direct_testing


@dataclass
class RunConfig:
    """Parsed invocation; the seed fully determines generated instances and
    the optimizer's behavior."""

    subcommand: str
    instance: Optional[str] = None
    arity: int = 2
    depth: int = 3
    sparsity: float = 0.2
    p: float = 2.0
    q: float = 2.0
    seed: int = 0
    out: Optional[str] = None
    tol: float = 1e-9
    trials: int = 1
    kind: str = "vector_paraproduct"
    nmax: int = 10
    r: float = 0.3
    heavy: bool = True


def _fmt(x: float) -> str:
    return repr(float(x))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _get_instance(cfg: RunConfig, seed_shift: int = 0) -> Instance:
    if cfg.instance:
        return load_instance(cfg.instance)
    return generate_random_instance(
        cfg.arity, cfg.depth, seed=cfg.seed + seed_shift, sparsity=cfg.sparsity
    )


def cmd_testing(cfg: RunConfig) -> int:
    lines = ["instance,p,q,B,Bstar"]
    for t in range(cfg.trials):
        inst = _get_instance(cfg, seed_shift=t)
        label = cfg.instance or f"seed{cfg.seed + t}"
        b = direct_testing(inst.beta, cfg.p, cfg.q, inst.mu, inst.nu)
        if cfg.p > cfg.q:
            b_star = adjoint_testing(inst.beta, cfg.p, cfg.q, inst.mu, inst.nu)
            star_txt = _fmt(b_star)
        else:
            star_txt = ""
        lines.append(f"{label},{_fmt(cfg.p)},{_fmt(cfg.q)},{_fmt(b)},{star_txt}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _build_handle(cfg: RunConfig, inst: Instance) -> OperatorHandle:
    if cfg.kind == "vector_paraproduct":
        return OperatorHandle(
            kind=cfg.kind, p=cfg.p, q=cfg.q, mu=inst.mu, nu=inst.nu, beta=inst.beta
        )
    if cfg.kind == "shifted":
        return OperatorHandle(
            kind=cfg.kind, p=cfg.p / cfg.q, q=cfg.q, mu=inst.mu, nu=inst.nu, beta=inst.beta
        )
    if cfg.kind == "positive":
        lat = inst.lattice
        alpha = NonnegativeCoefficients(
            lat, [np.abs(inst.beta.level(d)) for d in range(lat.depth)]
        )
        return OperatorHandle(kind=cfg.kind, p=cfg.p, mu=inst.mu, nu=inst.nu, alpha=alpha)
    if cfg.kind == "paraproduct":
        symbol = project_mean_zero(inst.beta, inst.nu)
        return OperatorHandle(kind=cfg.kind, p=cfg.p, mu=inst.mu, nu=inst.nu, symbol=symbol)
    raise ValueError(f"unknown operator kind {cfg.kind!r}")


def cmd_norm(cfg: RunConfig) -> int:
    inst = _get_instance(cfg)
    handle = _build_handle(cfg, inst)
    est = norm_lower_bound(handle, AscentConfig(seed=cfg.seed))
    payload = {
        "value": est.value,
        "start_kind": est.start_kind,
        "iterations": est.iterations,
        "converged": est.converged,
    }
    _emit(json.dumps(payload, indent=1) + "\n", cfg.out)
    return 0


def cmd_mirror(cfg: RunConfig) -> int:
    inst = _get_instance(cfg)
    lat = inst.lattice
    rng = np.random.default_rng(cfg.seed + 1)
    alpha = NonnegativeCoefficients(
        lat, [np.abs(inst.beta.level(d)) for d in range(lat.depth)]
    )
    f = inst.f if inst.f is not None else 1.0 - rng.random(lat.n_leaves)
    f = np.abs(f)
    g = 1.0 - rng.random(lat.n_leaves)
    if lp_norm(f, cfg.p, inst.mu) == 0.0 or lp_norm(g, conjugate(cfg.p), inst.nu) == 0.0:
        sys.stderr.write("mirror: degenerate instance, zero-norm probe\n")
        return 2
    alpha_n, f_n, g_n = normalize_for_mirror(alpha, f, g, cfg.p, inst.mu, inst.nu)
    report = proof_mirror(alpha_n, f_n, g_n, cfg.p, inst.mu, inst.nu)
    _emit(json.dumps(report.as_dicts(), indent=1) + "\n", cfg.out)
    return 0 if report.passed else 1


def cmd_counterexample(cfg: RunConfig) -> int:
    rows = divergence_report(cfg.nmax, cfg.p, cfg.r)
    lines = ["n,B,Bstar,Q,L,bound"]
    for row in rows:
        lines.append(
            ",".join(
                [str(row.n)]
                + [_fmt(v) for v in (row.b_direct, row.b_adjoint, row.q_value,
                                     row.lower_bound, row.direct_cap)]
            )
        )
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_embedding(cfg: RunConfig) -> int:
    lines = ["instance,p,carleson,lhs,bound,pass"]
    failures = 0
    for t in range(cfg.trials):
        inst = _get_instance(cfg, seed_shift=t)
        rng = np.random.default_rng(cfg.seed + 1000 + t)
        weights = {atom: float(rng.random()) for atom in inst.lattice.atoms()}
        f = rng.standard_normal(inst.lattice.n_leaves)
        lhs, bound = carleson_embedding_check(weights, f, cfg.p, inst.mu)
        ok = lhs <= bound * (1.0 + cfg.tol)
        failures += 0 if ok else 1
        from .stopping import carleson_constant

        const = carleson_constant(weights, inst.mu)
        label = cfg.instance or f"seed{cfg.seed + t}"
        lines.append(
            f"{label},{_fmt(cfg.p)},{_fmt(const)},{_fmt(lhs)},{_fmt(bound)},{ok}"
        )
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if failures == 0 else 1


def cmd_suite(cfg: RunConfig) -> int:
    results = run_all(heavy=cfg.heavy)
    # timings go to stderr only: the CSV must be byte-identical across runs
    lines = ["criterion,name,pass,detail"]
    for res in results:
        detail = res.detail.replace(",", ";")
        lines.append(f"{res.number},{res.name},{res.passed},{detail}")
        sys.stderr.write(res.line() + "\n")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_generate(cfg: RunConfig) -> int:
    inst = generate_random_instance(cfg.arity, cfg.depth, seed=cfg.seed, sparsity=cfg.sparsity)
    if not cfg.out:
        sys.stderr.write("generate: --out is required\n")
        return 2
    save_instance(cfg.out, inst)
    return 0


_COMMANDS = {
    "testing": cmd_testing,
    "norm": cmd_norm,
    "mirror": cmd_mirror,
    "counterexample": cmd_counterexample,
    "embedding": cmd_embedding,
    "suite": cmd_suite,
    "generate": cmd_generate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martpara",
        description="Two-weight testing constants and operator experiments on finite trees.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("testing", "emit testing constants as CSV"),
        ("norm", "estimate an operator norm, emit JSON"),
        ("mirror", "replay the bilinear decomposition, emit JSON checks"),
        ("counterexample", "run the separation experiment, emit CSV"),
        ("embedding", "run embedding trials, emit CSV"),
        ("suite", "run the full acceptance battery"),
        ("generate", "write a random instance file"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--instance", help="instance JSON file (default: generate)")
        sp.add_argument("--arity", type=int, default=2)
        sp.add_argument("--depth", type=int, default=3)
        sp.add_argument("--sparsity", type=float, default=0.2)
        # the counterexample needs p > 2; 4 is the exponent of criterion 1
        sp.add_argument("--p", type=float, default=4.0 if name == "counterexample" else 2.0)
        sp.add_argument("--q", type=float, default=2.0)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="output file (default: stdout)")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--trials", type=int, default=1)
        sp.add_argument("--kind", default="vector_paraproduct",
                        choices=["vector_paraproduct", "shifted", "positive", "paraproduct"])
        sp.add_argument("--nmax", type=int, default=10)
        sp.add_argument("--r", type=float, default=0.3)
        sp.add_argument("--quick", action="store_true",
                        help="shrink trial counts (suite only)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        subcommand=args.subcommand,
        instance=args.instance,
        arity=args.arity,
        depth=args.depth,
        sparsity=args.sparsity,
        p=args.p,
        q=args.q,
        seed=args.seed,
        out=args.out,
        tol=args.tol,
        trials=args.trials,
        kind=args.kind,
        nmax=args.nmax,
        r=args.r,
        heavy=not args.quick,
    )
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except (InstanceFormatError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
