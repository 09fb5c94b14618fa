"""The acceptance battery: one function per criterion, shared by pytest and
the ``suite`` CLI subcommand.

Every battery is fully seeded; the detail strings carry the measured extremes
so reports stay reproducible byte for byte.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .counterexample import direct_testing_cap, divergence_report
from .instances import generate_random_instance
from .lattice import build_lattice
from .martingale import rubio_de_francia, square_function
from .measure import Measure, atom_averages, average, conjugate, lp_norm
from .normest import (
    _GRID_RESOLUTION,
    KINDS,
    AscentConfig,
    OperatorHandle,
    grid_oracle_norm,
    necessity_report,
    norm_lower_bound,
)
from .paraproduct import EdgeCoefficients
from .stopping import (
    carleson_constant,
    carleson_embedding_check,
    exhausted_members,
    modified_stopping_forest,
    normalize_for_mirror,
    proof_mirror,
    stopping_forest,
)
from .testing import direct_testing, adjoint_testing


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _criterion(number: int, name: str):
    """Report a check that returns ``(passed, detail)`` as criterion
    ``number``, timed, in a :class:`CriterionResult`."""
    def wrap(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check(*args, **kwargs)
            return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)
        return run
    return wrap


# ---------------------------------------------------------------------------
# 1. counterexample separation
# ---------------------------------------------------------------------------

@_criterion(1, "counterexample separation")
def criterion_counterexample(n_max: int = 10) -> tuple[bool, str]:
    t0 = time.perf_counter()
    rows = divergence_report(n_max, p=4.0, r=0.3)
    elapsed = time.perf_counter() - t0
    cap = direct_testing_cap(4.0)
    ok = all(row.b_direct <= cap * (1.0 + 1e-9) for row in rows)
    ok &= all(row.q_value >= row.lower_bound * (1.0 - 1e-9) for row in rows)
    by_n = {row.n: row for row in rows}
    q_ratio = by_n[n_max].q_value / by_n[2].q_value
    ok &= q_ratio >= 2.0
    adj = [row.b_adjoint for row in rows]
    ok &= all(b2 > b1 for b1, b2 in zip(adj, adj[1:]))
    adj_ratio = by_n[n_max].b_adjoint / by_n[2].b_adjoint
    ok &= adj_ratio >= 1.5
    in_budget = elapsed < 30.0
    ok &= in_budget
    detail = (
        f"cap={cap:.4f}, max B={max(r.b_direct for r in rows):.4f}, "
        f"Q({n_max})/Q(2)={q_ratio:.2f}, B*({n_max})/B*(2)={adj_ratio:.2f}, "
        f"under 30s budget={in_budget}"
    )
    return ok, detail


# ---------------------------------------------------------------------------
# 2. Carleson embedding
# ---------------------------------------------------------------------------

@_criterion(2, "martingale Carleson embedding")
def criterion_embedding(trials: int = 500) -> tuple[bool, str]:
    violations = 0
    worst = 0.0
    for i in range(trials):
        arity = 2 + i % 2
        depth = 2 + i % 5
        p = (1.5, 2.0, 3.0)[i % 3]
        inst = generate_random_instance(arity, depth, seed=20_000 + i)
        rng = np.random.default_rng(90_000 + i)
        weights = {}
        for atom in inst.lattice.atoms():
            w = rng.random()
            if rng.random() < 0.2:
                w = 0.0
            weights[atom] = w
        f = rng.standard_normal(inst.lattice.n_leaves)
        lhs, bound = carleson_embedding_check(weights, f, p, inst.mu)
        if lhs > bound * (1.0 + 1e-12):
            violations += 1
        if math.isfinite(bound) and bound > 0:
            worst = max(worst, lhs / bound)
    return violations == 0, f"{trials} trials, violations={violations}, max lhs/bound={worst:.3f}"


# ---------------------------------------------------------------------------
# 3. quadratic identity at p = 2
# ---------------------------------------------------------------------------

@_criterion(3, "quadratic norm identity")
def criterion_quadratic_identity(trials: int = 200) -> tuple[bool, str]:
    worst = 0.0
    for i in range(trials):
        inst = generate_random_instance(2 + i % 2, 2 + i % 4, seed=30_000 + i)
        rng = np.random.default_rng(91_000 + i)
        f = rng.standard_normal(inst.lattice.n_leaves)
        m = inst.mu
        lhs = lp_norm(f, 2.0, m) ** 2
        root_term = average(f, m.lattice.root, m) ** 2 * m.total()
        rhs = root_term + lp_norm(square_function(f, m), 2.0, m) ** 2
        err = abs(lhs - rhs) / max(lhs, rhs, 1e-30)
        worst = max(worst, err)
    return worst <= 1e-10, f"{trials} trials, max relative defect={worst:.2e}"


# ---------------------------------------------------------------------------
# 4. sufficiency of the direct condition for p <= q
# ---------------------------------------------------------------------------

@_criterion(4, "direct condition sufficiency (p <= q)")
def criterion_sufficiency(trials: int = 200) -> tuple[bool, str]:
    pairs = ((1.5, 2.0), (2.0, 2.0), (2.0, 3.0))
    cfg = AscentConfig(starts=6, max_iter=25, ascend_top=4, seed=1)
    violations = 0
    worst = 0.0
    for i in range(trials):
        p, q = pairs[i % 3]
        inst = generate_random_instance(
            2 + i % 2, 2 + i % 3, seed=40_000 + i, mu_sparsity=0.0
        )
        b = direct_testing(inst.beta, p, q, inst.mu, inst.nu)
        bound = 2.0 ** ((p + 1.0) / p) * conjugate(p) * b
        op = OperatorHandle.from_beta("vector_paraproduct", inst.beta, p, q, inst.mu, inst.nu)
        est = norm_lower_bound(op, cfg).value
        if est > bound * (1.0 + 1e-9):
            violations += 1
        if bound > 0:
            worst = max(worst, est / bound)
    return violations == 0, f"{trials} trials, violations={violations}, max est/bound={worst:.3f}"


# ---------------------------------------------------------------------------
# 5. necessity chain for p > q
# ---------------------------------------------------------------------------

@_criterion(5, "necessity chain (p > q)")
def criterion_necessity(trials_per_pair: int = 30) -> tuple[bool, str]:
    pairs = ((4.0, 2.0), (3.0, 2.0), (4.0, 3.0))
    cfg = AscentConfig(starts=6, max_iter=15, ascend_top=3, seed=2)
    violations = 0
    n = 0
    for p, q in pairs:
        for i in range(trials_per_pair):
            inst = generate_random_instance(
                2 + i % 2, 2 + i % 3, seed=50_000 + n, mu_sparsity=0.0
            )
            n += 1
            rep = necessity_report(inst.beta, p, q, inst.mu, inst.nu, cfg)
            for _, lhs, rhs in rep.checks:
                if lhs > rhs * (1.0 + 1e-6):
                    violations += 1
    return violations == 0, f"{n} instances x 2 checks, violations={violations}"


# ---------------------------------------------------------------------------
# 6. two-sided bound for p > q with a generous cap
# ---------------------------------------------------------------------------

@_criterion(6, "two-sided bound (p > q)")
def criterion_two_sided(trials: int = 100) -> tuple[bool, str]:
    p, q, cap = 4.0, 2.0, 50.0
    cfg = AscentConfig(starts=6, max_iter=25, ascend_top=4, seed=3)
    violations = 0
    max_ratio = 0.0
    for i in range(trials):
        inst = generate_random_instance(
            2 + i % 2, 2 + i % 3, seed=60_000 + i, mu_sparsity=0.0
        )
        b = direct_testing(inst.beta, p, q, inst.mu, inst.nu)
        b_star = adjoint_testing(inst.beta, p, q, inst.mu, inst.nu)
        scale = max(b, b_star ** (1.0 / q))
        op = OperatorHandle.from_beta("vector_paraproduct", inst.beta, p, q, inst.mu, inst.nu)
        est = norm_lower_bound(op, cfg).value
        if est > cap * scale * (1.0 + 1e-9):
            violations += 1
        if scale > 0:
            max_ratio = max(max_ratio, est / scale)
    return violations == 0, (
        f"{trials} trials, violations={violations}, empirical max A/max(B,B*^(1/q))={max_ratio:.2f}, cap={cap}"
    )


# ---------------------------------------------------------------------------
# 7 + 11. tiny-instance oracle batteries
# ---------------------------------------------------------------------------

_oracle_cache: dict = {}


def _tiny_instances():
    """Deterministic 2-4 leaf instances with O(1)-scaled coefficients."""
    specs = [
        ("2u", 2, 1, None), ("2a", 2, 1, 7), ("3u", 3, 1, None),
        ("4a", 4, 1, 11), ("2x2u", 2, 2, None), ("2x2z", 2, 2, 13),
    ]
    out = []
    for label, arity, depth, seed in specs:
        lat = build_lattice(arity, depth)
        n = lat.n_leaves
        if seed is None:
            mu = Measure(lat, np.full(n, 1.0 / n))
            nu = Measure(lat, np.full(n, 1.0 / n))
            rng = np.random.default_rng(101)
        else:
            rng = np.random.default_rng(seed)
            mu = Measure(lat, 0.1 + rng.random(n))
            nu_leaf = 0.1 + rng.random(n)
            if label.endswith("z"):
                nu_leaf[0] = 0.0
            nu = Measure(lat, nu_leaf)
        levels = [rng.standard_normal((lat.level_size(d), arity)) for d in range(depth)]
        peak = max(np.abs(lvl).max() for lvl in levels)
        beta = EdgeCoefficients(lat, [0.8 * lvl / peak for lvl in levels])
        out.append((label, lat, mu, nu, beta))
    return out


def _tiny_operators():
    """(label, handle) pairs for every estimator kind on the tiny instances:
    the vector and shifted kinds from (p, q) = (4, 2), the others at p = 2."""
    ops = []
    for label, _, mu, nu, beta in _tiny_instances():
        for kind in KINDS:
            p = 4.0 if kind in ("vector_paraproduct", "shifted") else 2.0
            name = "vector" if kind == "vector_paraproduct" else kind
            ops.append((f"{label}/{name}", OperatorHandle.from_beta(kind, beta, p, 2.0, mu, nu)))
    return ops


def _oracle(label: str, op: OperatorHandle) -> float:
    if label not in _oracle_cache:
        _oracle_cache[label] = grid_oracle_norm(op)
    return _oracle_cache[label]


@_criterion(7, "simultaneous boundedness (oracle)")
def criterion_simultaneous() -> tuple[bool, str]:
    p, q, tol = 4.0, 2.0, 2e-2
    factor = 4.0 * p / (p - q)
    handles = dict(_tiny_operators())
    violations = 0
    n = 0
    for label, *_ in _tiny_instances():
        a1 = _oracle(f"{label}/vector", handles[f"{label}/vector"])
        a2 = _oracle(f"{label}/shifted", handles[f"{label}/shifted"])
        n += 1
        if a1 ** q > a2 + tol:
            violations += 1
        if a2 > factor * a1 ** q + tol:
            violations += 1
    return violations == 0, f"{n} tiny instances, violations={violations}"


@_criterion(11, "ascent matches the grid oracle")
def criterion_oracle_agreement() -> tuple[bool, str]:
    cfg = AscentConfig(starts=24, max_iter=200, ascend_top=8, seed=4)
    tol = max(1e-3, 2.0 * _GRID_RESOLUTION)
    worst = 0.0
    n = 0
    for label, op in _tiny_operators():
        oracle = _oracle(label, op)
        est = norm_lower_bound(op, cfg).value
        worst = max(worst, abs(est - oracle))
        n += 1
    return worst <= tol, f"{n} operators, max |ascent - oracle|={worst:.2e}, tol={tol:.0e}"


# ---------------------------------------------------------------------------
# 8. majorant series properties
# ---------------------------------------------------------------------------

@_criterion(8, "majorant series properties")
def criterion_majorant(trials: int = 200) -> tuple[bool, str]:
    rdf_tol = 1e-12
    violations = 0
    for i in range(trials):
        p = (1.5, 2.0, 3.0)[i % 3]
        inst = generate_random_instance(2 + i % 2, 2 + i % 4, seed=70_000 + i)
        rng = np.random.default_rng(92_000 + i)
        f = np.abs(rng.standard_normal(inst.lattice.n_leaves))
        m = inst.mu
        rf = rubio_de_francia(f, m, p, tol=rdf_tol)
        if np.any(f > rf * (1.0 + 1e-9) + 1e-12):
            violations += 1
        if lp_norm(rf, p, m) > 2.0 * lp_norm(f, p, m) * (1.0 + 1e-9):
            violations += 1
        inv_factor = 1.0 / (2.0 * conjugate(p))
        tail = rdf_tol / (1.0 - inv_factor)
        avgs = atom_averages(rf, m)
        lat = m.lattice
        mins = [rf]
        cur = rf
        for _ in range(lat.depth):
            cur = cur.reshape(-1, lat.arity).min(axis=1)
            mins.append(cur)
        mins = mins[::-1]  # mins[d] = per-atom minimum at generation d
        for d in range(lat.depth + 1):
            mass = m.level_mass[d]
            lhs = mins[d] + tail + 1e-9 * np.maximum(1.0, avgs[d])
            if np.any((mass > 0) & (lhs < inv_factor * avgs[d])):
                violations += 1
    return violations == 0, f"{trials} trials, violations={violations}"


# ---------------------------------------------------------------------------
# 9. stopping constructions
# ---------------------------------------------------------------------------

@_criterion(9, "stopping constructions")
def criterion_stopping(trials: int = 200) -> tuple[bool, str]:
    violations = 0
    carleson_worst = 0.0
    for i in range(trials):
        arity = 2 + i % 2
        depth = 2 + i % 3
        inst = generate_random_instance(arity, depth, seed=80_000 + i)
        lat = inst.lattice
        rng = np.random.default_rng(93_000 + i)
        f = 1.0 - rng.random(lat.n_leaves)  # strictly positive
        root = lat.root
        all_atoms = set(lat.atoms())
        # plain construction: internal guarantees raise on violation
        forest = stopping_forest(all_atoms, f, inst.mu, [root])
        const = carleson_constant(forest.carleson_weights(inst.mu), inst.mu)
        if not const < 2.0:
            violations += 1
        carleson_worst = max(carleson_worst, const)
        # modified construction on a random member set
        members = {a for a in all_atoms if a.depth > 0 and rng.random() < 0.5}
        mforest = modified_stopping_forest(members, f, inst.mu, [root])
        for top in mforest.processed:
            covered = sum(inst.mu.mass(s) for s in mforest.selected[top])
            if covered > 0.5 * inst.mu.mass(top) * (1.0 + 1e-12):
                violations += 1
            thr = 2.0 * average(f, top, inst.mu)
            for a in exhausted_members(lat, members, mforest.selected[top], top):
                if a == top or a.depth == 0:
                    continue
                if average(f, lat.parent(a), inst.mu) > thr * (1.0 + 1e-12):
                    violations += 1
    return violations == 0, (
        f"{trials} trials, violations={violations}, max forest Carleson={carleson_worst:.3f}"
    )


# ---------------------------------------------------------------------------
# 10. decomposition replay
# ---------------------------------------------------------------------------

@_criterion(10, "decomposition replay")
def criterion_mirror(trials: int = 200) -> tuple[bool, str]:
    violations = 0
    worst_identity = 0.0
    min_slack = math.inf
    for i in range(trials):
        p = (1.5, 2.0, 3.0)[i % 3]
        arity = 2 + i % 2
        depth = 3 + i % 2
        inst = generate_random_instance(arity, depth, seed=85_000 + i)
        lat = inst.lattice
        rng = np.random.default_rng(94_000 + i)
        alpha = inst.beta.absolute()
        f = 1.0 - rng.random(lat.n_leaves)
        g = 1.0 - rng.random(lat.n_leaves)
        if lp_norm(f, p, inst.mu) == 0.0 or lp_norm(g, conjugate(p), inst.nu) == 0.0:
            continue  # all-dead measure; nothing to normalize
        alpha_n, f_n, g_n = normalize_for_mirror(alpha, f, g, p, inst.mu, inst.nu)
        report = proof_mirror(alpha_n, f_n, g_n, p, inst.mu, inst.nu)
        ident = abs(report.t1 + report.t2 - report.pairing_value) / max(
            abs(report.pairing_value), 1.0
        )
        worst_identity = max(worst_identity, ident)
        if ident > 1e-10:
            violations += 1
        for check in report.checks:
            if not check.ok:
                violations += 1
            if not check.name.endswith("identity") and check.name != "pairing-identity":
                min_slack = min(min_slack, check.slack)
    return violations == 0, (
        f"{trials} trials, violations={violations}, max identity defect={worst_identity:.1e}, "
        f"min inequality slack={min_slack:.3e}"
    )


# ---------------------------------------------------------------------------

def run_all(heavy: bool = True) -> list[CriterionResult]:
    """Run the full battery in order; ``heavy=False`` shrinks trial counts
    for smoke runs (the acceptance suite itself always runs heavy)."""
    scale = 1 if heavy else 10
    results = [
        criterion_counterexample(10 if heavy else 5),
        criterion_embedding(500 // scale),
        criterion_quadratic_identity(200 // scale),
        criterion_sufficiency(200 // scale),
        criterion_necessity(30 // (1 if heavy else 5)),
        criterion_two_sided(100 // scale),
        criterion_simultaneous(),
        criterion_majorant(200 // scale),
        criterion_stopping(200 // scale),
        criterion_mirror(200 // scale),
        criterion_oracle_agreement(),
    ]
    return sorted(results, key=lambda r: r.number)
