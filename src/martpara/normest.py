"""Lower bounds for operator norms, a brute-force oracle, and equivalence reports.

``norm_lower_bound`` runs projected gradient ascent on the Rayleigh ratio
||T f|| / ||f|| over leaf values.  Every reported value is the ratio of a
concrete function recomputed from scratch, so the estimates are sound lower
bounds; the starting set always contains the indicator of every atom (which
makes the estimate dominate the direct testing constant by construction) plus
seeded random vectors, and callers may inject extra certificate starts.

``grid_oracle_norm`` is the independent desk-scale oracle: a dense angular
grid on the unit sphere, sign patterns included, no optimization.  It ranks
the grid points by the p-th power of the ratio, block by block, and returns
the ratio of the best point recomputed from scratch, so its value too is a
sound lower bound.  At the default resolution the grid of a 4-leaf operator
has 158^3 directions times up to 8 sign patterns, about 0.1-1 s on one core
of a 2-core machine (the 24 operators of the acceptance battery: about 5 s).
A block's arrays have at most 6 rows and max(8192, patterns x angle steps)
columns, so the scan needs a few MB at the default resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .lattice import Atom, Lattice
from .martingale import rubio_de_francia
from .measure import Measure, lp_norm, safe_divide
from .paraproduct import (
    EdgeCoefficients,
    NonnegativeCoefficients,
    Symbol,
    _edge_terms_adjoint,
    paraproduct_apply,
    positive_apply,
    sequence_norm,
    shifted_apply,
    vector_paraproduct,
)
from .testing import adjoint_witness_data, direct_testing

KINDS = ("paraproduct", "vector_paraproduct", "shifted", "positive")


@dataclass(frozen=True)
class OperatorHandle:
    """An operator together with its input/output spaces.

    kind                input space      output norm
    ----                -----------      -----------
    paraproduct         L^p(mu)          L^p(nu)
    vector_paraproduct  L^p(mu)          sequence norm (p, q) w.r.t. nu
    shifted             L^p(mu)          L^p(nu)   (coefficients |b_I|^q)
    positive            L^p(mu)          L^p(nu)
    """

    kind: str
    p: float
    mu: Measure
    nu: Measure
    q: Optional[float] = None
    symbol: Optional[Symbol] = None
    beta: Optional[EdgeCoefficients] = None
    alpha: Optional[NonnegativeCoefficients] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.p <= 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        needed = {
            "paraproduct": self.symbol,
            "vector_paraproduct": self.beta,
            "shifted": self.beta,
            "positive": self.alpha,
        }[self.kind]
        if needed is None:
            raise ValueError(f"kind {self.kind!r} is missing its coefficients")
        if self.kind in ("vector_paraproduct", "shifted") and self.q is None:
            raise ValueError(f"kind {self.kind!r} needs the exponent q")

    @property
    def lattice(self) -> Lattice:
        return self.mu.lattice

    @property
    def positive_only(self) -> bool:
        return self.kind in ("shifted", "positive")

    # -- evaluation ----------------------------------------------------------
    def apply(self, x: np.ndarray):
        if self.kind == "paraproduct":
            return paraproduct_apply(self.symbol, x, self.mu)
        if self.kind == "vector_paraproduct":
            return vector_paraproduct(self.beta, x, self.mu)
        if self.kind == "shifted":
            return shifted_apply(self.beta, x, self.q, self.mu)
        return positive_apply(self.alpha, x, self.mu)

    def output_norm(self, out) -> float:
        if self.kind == "vector_paraproduct":
            return sequence_norm(out, self.p, self.q, self.nu)
        return lp_norm(out, self.p, self.nu)

    def input_norm(self, x: np.ndarray) -> float:
        return lp_norm(x, self.p, self.mu)

    def ratio(self, x: np.ndarray) -> float:
        den = self.input_norm(x)
        if den == 0.0:
            return 0.0
        return self.output_norm(self.apply(x)) / den

    # edge coefficients of the linear map: signed for the paraproduct and the
    # vector kind, |b_I|^q for the shifted kind
    def _edge_levels(self) -> list[np.ndarray]:
        if self.kind == "paraproduct":
            coeffs = self.symbol.beta
        elif self.kind == "positive":
            coeffs = self.alpha
        else:
            coeffs = self.beta
        levels = [coeffs.level(d) for d in range(self.lattice.depth)]
        if self.kind == "shifted":
            return [np.abs(c) ** self.q for c in levels]
        return levels


@dataclass
class AscentConfig:
    """Knobs for the gradient ascent; defaults favor reproducibility."""

    starts: int = 64
    max_iter: int = 500
    step_tol: float = 1e-10
    seed: int = 0
    ascend_top: Optional[int] = None          # ascend only the best k starts
    extra_starts: Sequence[np.ndarray] = field(default_factory=tuple)


@dataclass
class NormEstimate:
    value: float
    argmax: np.ndarray
    starts_used: int
    iterations: int
    converged: bool
    start_kind: str


# ---------------------------------------------------------------------------
# analytic gradient of the log Rayleigh ratio
# ---------------------------------------------------------------------------

def _value_and_grad(op: OperatorHandle, x: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
    """Rayleigh ratio at x and the gradient of its log (``None`` where the
    ratio vanishes).

    The output side is pulled back through the transpose of the edge chain,
    ``_edge_terms_adjoint``, and then through the averaging of x, i.e.
    ``chain_sum`` times the mu leaf masses.
    """
    den = op.input_norm(x)
    if den == 0.0:
        return 0.0, None
    out = op.apply(x)
    val = op.output_norm(out)
    if val == 0.0:
        return 0.0, None
    lat, p, mu = op.lattice, op.p, op.mu
    if op.kind == "vector_paraproduct":
        q = op.q
        chain_q = out.q_power_chain(q)
        # nu-weighted G^{p-q} with a zero guard where the chain vanishes
        with np.errstate(divide="ignore", invalid="ignore"):
            gpq = np.where(chain_q > 0.0, chain_q ** ((p - q) / q), 0.0)
        t_sums = lat.block_sums(op.nu.leaf_mass * gpq)
        psi = [
            np.abs(out.level(d)) ** (q - 1.0) * np.sign(out.level(d)) * t_sums[d]
            for d in range(1, lat.depth + 1)
        ]
        inner = _edge_terms_adjoint(op._edge_levels(), psi)
        per_depth = [safe_divide(v, m) for v, m in zip(inner, mu.level_mass)]
        g_out = mu.leaf_mass * lat.chain_sum(per_depth) / val ** p
    else:
        u = op.nu.leaf_mass * np.abs(out) ** (p - 1.0) * np.sign(out) / val ** p
        per_depth = _edge_terms_adjoint(op._edge_levels(), lat.block_sums(u)[1:])
        if op.kind != "positive":  # the operator reads averages, not integrals
            per_depth = [
                v * safe_divide(np.ones_like(m), m) for v, m in zip(per_depth, mu.level_mass)
            ]
        g_out = mu.leaf_mass * lat.chain_sum(per_depth)
    g_in = mu.leaf_mass * np.abs(x) ** (p - 1.0) * np.sign(x) / den ** p
    return val / den, g_out - g_in


def _project(op: OperatorHandle, x: np.ndarray, alive: np.ndarray) -> np.ndarray:
    x = np.where(alive, x, 0.0)
    if op.positive_only:
        x = np.maximum(x, 0.0)
    return x


def _ascend(
    op: OperatorHandle, x0: np.ndarray, alive: np.ndarray, max_iter: int, step_tol: float
) -> tuple[float, np.ndarray, int, bool]:
    x = _project(op, x0.astype(float), alive)
    den = op.input_norm(x)
    if den == 0.0:
        return 0.0, x, 0, True
    x = x / den
    r, grad = _value_and_grad(op, x)
    if grad is None:
        return r, x, 0, True
    eta = 0.5
    iters = 0
    converged = False
    for _ in range(max_iter):
        iters += 1
        gn = float(np.max(np.abs(grad)))
        if gn < 1e-14:
            converged = True
            break
        improved = False
        while eta > 1e-13:
            cand = _project(op, x + eta * grad / gn, alive)
            den = op.input_norm(cand)
            if den > 0.0:
                cand = cand / den
                rc, gc = _value_and_grad(op, cand)
                if rc > r:
                    gain = rc - r
                    x, r, grad = cand, rc, gc
                    improved = True
                    eta = min(eta * 2.0, 1e3)
                    if gc is None or gain <= step_tol * max(r, 1.0):
                        converged = True
                    break
            eta *= 0.5
        if not improved or converged or grad is None:
            converged = True
            break
    return r, x, iters, converged


def _indicator_starts(lat: Lattice) -> list[tuple[str, np.ndarray]]:
    out = []
    for d in range(lat.depth + 1):
        for i in range(lat.level_size(d)):
            x = np.zeros(lat.n_leaves)
            x[lat.leaf_slice(Atom(d, i))] = 1.0
            out.append((f"indicator({d},{i})", x))
    return out


def norm_lower_bound(op: OperatorHandle, cfg: Optional[AscentConfig] = None) -> NormEstimate:
    """Best Rayleigh ratio over all starts, each improved by gradient ascent.

    Starts: the indicator of every atom, ``cfg.starts`` seeded random vectors,
    and any ``cfg.extra_starts``.  For the positive kinds the search is
    restricted to nonnegative functions.  Deterministic given the seed; the
    returned value is the recomputed ratio of the reported maximizer.
    """
    cfg = cfg or AscentConfig()
    lat = op.lattice
    alive = op.mu.leaf_mass > 0.0
    if not np.any(alive):
        raise ValueError("the input measure is identically zero; no admissible start")

    rng = np.random.default_rng(cfg.seed)
    starts = _indicator_starts(lat)
    for k in range(cfg.starts):
        vec = rng.standard_normal(lat.n_leaves)
        if op.positive_only:
            vec = np.abs(vec)
        starts.append((f"random[{k}]", vec))
    for k, vec in enumerate(cfg.extra_starts):
        starts.append((f"certificate[{k}]", np.asarray(vec, dtype=float)))

    evaluated = []
    for name, vec in starts:
        vec = _project(op, vec, alive)
        evaluated.append((op.ratio(vec), name, vec))
    evaluated.sort(key=lambda t: -t[0])

    n_ascend = len(evaluated) if cfg.ascend_top is None else min(cfg.ascend_top, len(evaluated))
    best_val, best_name, best_x = evaluated[0]
    total_iters = 0
    all_converged = True
    if cfg.max_iter > 0:
        for rank in range(n_ascend):
            _, name, vec = evaluated[rank]
            val, x, iters, conv = _ascend(op, vec, alive, cfg.max_iter, cfg.step_tol)
            total_iters += iters
            all_converged = all_converged and conv
            if val > best_val:
                best_val, best_name, best_x = val, name, x
    final = op.ratio(best_x)
    return NormEstimate(
        value=final,
        argmax=best_x,
        starts_used=len(starts),
        iterations=total_iters,
        converged=all_converged,
        start_kind=best_name,
    )


# ---------------------------------------------------------------------------
# brute-force oracle on tiny instances
# ---------------------------------------------------------------------------

_GRID_BLOCK = 8192  # grid points (directions x sign patterns) per block; a block stays in cache


def _operator_matrix(op: OperatorHandle, alive_idx: np.ndarray):
    """Columns of the linear operator on the alive leaves; for the sequence
    kind also the chain membership matrix of non-root atoms."""
    lat = op.lattice
    cols = []
    for j in alive_idx:
        e = np.zeros(lat.n_leaves)
        e[j] = 1.0
        out = op.apply(e)
        if op.kind == "vector_paraproduct":
            cols.append(np.concatenate([out.level(d) for d in range(1, lat.depth + 1)]))
        else:
            cols.append(out)
    mat = np.stack(cols, axis=1)
    if op.kind != "vector_paraproduct":
        return mat, None
    membership = []
    for d in range(1, lat.depth + 1):
        for i in range(lat.level_size(d)):
            ind = np.zeros(lat.n_leaves)
            ind[lat.leaf_slice(Atom(d, i))] = 1.0
            membership.append(ind)
    return mat, np.stack(membership, axis=1)  # (leaves, n_seq)


def grid_oracle_norm(op: OperatorHandle, resolution: float = 1e-2) -> float:
    """Max Rayleigh ratio over a dense angular grid of directions.

    Directions are hyperspherical angles with step ``resolution`` on the
    nonnegative orthant, combined with all sign patterns (first coordinate
    fixed positive; antipodal points give the same ratio).  Restricted to at
    most 4 leaves because the grid is exhaustive.

    The scan walks blocks of about ``_GRID_BLOCK`` points (directions times
    sign patterns) and ranks them by num^p / den^p, which orders them as the
    ratio does; den^p does not depend on the signs, so a block computes it
    once per direction.  The returned value is the ratio of each block's best
    point, recomputed by ``ratios``, maximised over the blocks.
    """
    lat = op.lattice
    if lat.n_leaves > 4:
        raise ValueError(f"oracle supports at most 4 leaves, got {lat.n_leaves}")
    if resolution > 1e-2:
        raise ValueError(f"resolution must be <= 1e-2, got {resolution}")
    alive_idx = np.nonzero(op.mu.leaf_mass > 0.0)[0]
    k = len(alive_idx)
    if k == 0:
        raise ValueError("the input measure is identically zero")
    mat, membership = _operator_matrix(op, alive_idx)
    w = op.mu.leaf_mass[alive_idx]
    v = op.nu.leaf_mass

    def ratios(X: np.ndarray) -> np.ndarray:
        den = (w[:, None] * np.abs(X) ** op.p).sum(axis=0) ** (1.0 / op.p)
        out = mat @ X
        if op.kind == "vector_paraproduct":
            chain = membership @ np.abs(out) ** op.q
            num = (v[:, None] * chain ** (op.p / op.q)).sum(axis=0) ** (1.0 / op.p)
        else:
            num = (v[:, None] * np.abs(out) ** op.p).sum(axis=0) ** (1.0 / op.p)
        res = np.zeros_like(num)
        np.divide(num, den, out=res, where=den > 0)
        return res

    if k == 1:
        X = np.ones((1, 1))
        return float(ratios(X).max())

    npts = int(np.ceil((np.pi / 2.0) / resolution)) + 1
    theta = np.linspace(0.0, np.pi / 2.0, npts)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    if op.positive_only:
        signs = np.ones((k, 1))
    else:
        patterns = []
        for bits in range(2 ** (k - 1)):
            s = [1.0] + [1.0 if (bits >> b) & 1 == 0 else -1.0 for b in range(k - 1)]
            patterns.append(s)
        signs = np.array(patterns).T  # (k, n_pat)
    n_pat = signs.shape[1]
    # rows pat * n_out ... (pat + 1) * n_out: the operator on sign pattern pat
    signed = (signs.T[:, None, :] * mat).reshape(-1, k)

    # Directions in C order over the k - 1 angles.  A block is a run of
    # prefixes (values of the first k - 2 angles) times every value of the
    # last angle.  Each coordinate is the product of sines and a cosine taken
    # left to right, so a direction does not depend on the block it falls in.
    n_pre = npts ** (k - 2)
    rows = max(1, _GRID_BLOCK // (n_pat * npts))

    best = 0.0
    for lo in range(0, n_pre, rows):
        pre = np.arange(lo, min(lo + rows, n_pre))
        mags = np.empty((k, len(pre), npts))
        sin_prod = np.ones(len(pre))
        for a in range(k - 2):
            i_a = pre // npts ** (k - 3 - a) % npts
            mags[a] = (sin_prod * cos_t[i_a])[:, None]
            sin_prod = sin_prod * sin_t[i_a]
        mags[k - 2] = sin_prod[:, None] * cos_t
        mags[k - 1] = sin_prod[:, None] * sin_t
        mags = mags.reshape(k, -1)
        den_p = w @ mags ** op.p
        out = np.abs(signed @ mags).reshape(n_pat, -1, mags.shape[1])
        if op.kind == "vector_paraproduct":
            num_p = v @ (membership @ out ** op.q) ** (op.p / op.q)
        else:
            num_p = v @ out ** op.p
        score = np.zeros_like(num_p)
        np.divide(num_p, den_p, out=score, where=den_p > 0)
        pat, col = np.unravel_index(score.argmax(), score.shape)
        X = mags[:, col:col + 1] * signs[:, pat][:, None]
        best = max(best, float(ratios(X)[0]))
    return best


# ---------------------------------------------------------------------------
# certificate starts and the equivalence / necessity reports
# ---------------------------------------------------------------------------

def _pi_handle(beta, p, q, mu, nu) -> OperatorHandle:
    return OperatorHandle(kind="vector_paraproduct", p=p, q=q, mu=mu, nu=nu, beta=beta)


def _shifted_handle(beta, p, q, mu, nu) -> OperatorHandle:
    return OperatorHandle(kind="shifted", p=p / q, q=q, mu=mu, nu=nu, beta=beta)


def _adjoint_certificates(
    beta: EdgeCoefficients, p: float, q: float, mu: Measure, nu: Measure
) -> tuple[float, list[np.ndarray]]:
    """Adjoint constant plus starts that certify it against the operator norm.

    For a top atom J of the adjoint ratio with restricted profile u, the
    function (majorant of u^(r'-1))^(1/q) witnesses the chain that bounds the
    adjoint constant by 4r' times the q-th power of the vector-paraproduct
    norm; feeding it to the estimator makes that bound hold for the estimate
    itself, not only for the true norm.
    """
    r = p / q
    r_prime = r / (r - 1.0)
    b_star, witnesses = adjoint_witness_data(beta, p, q, mu, nu)
    starts = []
    if math.isfinite(b_star):
        for _, profile in witnesses:
            h = profile ** (r_prime - 1.0)
            if not np.any(h > 0.0):
                continue
            majorant = rubio_de_francia(h, mu, r, tol=1e-13)
            starts.append(majorant ** (1.0 / q))
    return b_star, starts


@dataclass
class NecessityReport:
    b_direct: float
    b_adjoint: float
    norm_estimate: NormEstimate
    factor: float               # 4p/(p-q)

    def checks(self, q: float) -> list[tuple[str, float, float]]:
        a = self.norm_estimate.value
        return [
            ("direct-below-norm", self.b_direct, a),
            ("adjoint-below-factor", self.b_adjoint, self.factor * a ** q),
        ]


def necessity_report(
    beta: EdgeCoefficients,
    p: float,
    q: float,
    mu: Measure,
    nu: Measure,
    cfg: Optional[AscentConfig] = None,
) -> NecessityReport:
    """Testing constants against the estimated vector-paraproduct norm.

    Indicator starts force  B <= estimate;  adjoint certificate starts force
    B* <= (4p/(p-q)) * estimate^q, realizing the necessity chain with the
    estimate in place of the true norm.
    """
    if q <= 1 or p <= q:
        raise ValueError(f"necessity chain needs p > q > 1, got p={p}, q={q}")
    cfg = cfg or AscentConfig()
    b = direct_testing(beta, p, q, mu, nu)
    b_star, cert = _adjoint_certificates(beta, p, q, mu, nu)
    cfg = replace(cfg, extra_starts=tuple(cfg.extra_starts) + tuple(cert))
    est = norm_lower_bound(_pi_handle(beta, p, q, mu, nu), cfg)
    factor = 4.0 * p / (p - q)  # equals 4r' for r = p/q
    return NecessityReport(b_direct=b, b_adjoint=b_star, norm_estimate=est, factor=factor)


@dataclass
class EquivalenceReport:
    a_vector: float             # estimate of the vector-paraproduct norm
    a_shifted: float            # estimate of the shifted-operator norm
    b_direct: float
    b_adjoint: float
    factor: float               # 4p/(p-q) = 4r'
    checks: list[tuple[str, float, float]]

    @property
    def passed(self) -> bool:
        return all(lhs <= rhs + 1e-9 * max(abs(rhs), 1.0) for _, lhs, rhs in self.checks)


def equivalence_report(
    beta: EdgeCoefficients,
    p: float,
    q: float,
    mu: Measure,
    nu: Measure,
    cfg: Optional[AscentConfig] = None,
    exchange_rounds: int = 6,
) -> EquivalenceReport:
    """Simultaneous-boundedness report for the vector paraproduct and the
    shifted positive operator it induces.

    The two estimates exchange certificates until stable: the q-th power of
    the vector maximizer feeds the shifted estimate, and the reverse-Hoelder
    majorant of the shifted maximizer feeds the vector estimate.  At the fixed
    point both two-sided inequalities hold for the estimates themselves.
    """
    if q <= 1 or p <= q:
        raise ValueError(f"equivalence needs p > q > 1, got p={p}, q={q}")
    cfg = cfg or AscentConfig()
    r = p / q
    factor = 4.0 * p / (p - q)

    b = direct_testing(beta, p, q, mu, nu)
    b_star, cert = _adjoint_certificates(beta, p, q, mu, nu)
    pi_op = _pi_handle(beta, p, q, mu, nu)
    sh_op = _shifted_handle(beta, p, q, mu, nu)

    pi_cfg = replace(cfg, extra_starts=tuple(cfg.extra_starts) + tuple(cert))
    est_pi = norm_lower_bound(pi_op, pi_cfg)
    a1, f1 = est_pi.value, est_pi.argmax

    sh_cfg = replace(cfg, extra_starts=(np.abs(f1) ** q,))
    est_sh = norm_lower_bound(sh_op, sh_cfg)
    a2, f2 = est_sh.value, est_sh.argmax

    for _ in range(exchange_rounds):
        improved = False
        cand2 = sh_op.ratio(np.abs(f1) ** q)
        if cand2 > a2:
            a2, f2 = cand2, np.abs(f1) ** q
            improved = True
        majorant = rubio_de_francia(np.abs(f2), mu, r, tol=1e-13)
        g_cand = majorant ** (1.0 / q)
        cand1 = pi_op.ratio(g_cand)
        if cand1 > a1:
            a1, f1 = cand1, g_cand
            improved = True
        if not improved:
            break

    checks = [
        ("vector^q-below-shifted", a1 ** q, a2),
        ("shifted-below-factor", a2, factor * a1 ** q),
        ("direct-below-vector", b, a1),
        ("adjoint-below-factor", b_star, factor * a1 ** q),
    ]
    return EquivalenceReport(
        a_vector=a1,
        a_shifted=a2,
        b_direct=b,
        b_adjoint=b_star,
        factor=factor,
        checks=checks,
    )
