"""Lower bounds for operator norms, a brute-force oracle, and equivalence reports.

``OperatorHandle.from_beta`` is the one catalogue of the four operators the
paper builds from a symbol beta; the CLI, the acceptance battery and the
reports take their handles from it.  Anything defined per kind from beta,
such as the transpose K^T a certified norm bracket iterates with, goes there.

``norm_lower_bound`` runs projected gradient ascent on the Rayleigh ratio
||T f|| / ||f|| over leaf values.  Every reported value is the ratio of a
concrete function recomputed from scratch, so the estimates are sound lower
bounds; the starting set always contains the indicator of every atom (which
makes the estimate dominate the direct testing constant by construction) plus
seeded random vectors, and callers may inject extra certificate starts.
The starts are written into the rows of one (batch, n_leaves) array: one
batched ratio ranks them all, and the ascended ones climb in lock step, each
evaluation trying up to four line-search candidates of every active row,
eta, eta/2, eta/4 and eta/8, in one batch (``_Rows``, ``_ascend``).  Each row
takes the path, and gives the bytes, it would alone.  An evaluation keeps
every per-atom quantity of the whole batch in one generation-major flat
array (``Lattice.split``), so it makes a fixed number of elementwise numpy
calls whatever the depth; only the block sums and the chain sums loop over
the generations, and the gradient hands ``Lattice.chain_sum`` its flat
internal-atom terms as they are.  On trees of 4-81 leaves an evaluation
still costs mostly Python and numpy call overhead, so trying at once the
halvings a backtracking row would try next more than halves the evaluations
an ascent needs; larger batches, where the cost goes by the values, try
fewer (``_CANDIDATE_VALUES``).

``grid_oracle_norm`` is the independent desk-scale oracle: a dense angular
grid on the unit sphere, sign patterns included, no optimization.  It ranks
the grid points by the p-th power of the ratio and returns the ratio of each
block's best point recomputed from scratch, so its value too is a sound
lower bound.  The ranking is a trig-polynomial scan: with every angle but
the last one (t) fixed, each squared output under each sign pattern is a
quadratic form in (cos t, sin t), so two matrix products score a block of
directions under every pattern.  Where the power after that square is 2
(p = 4; the vector kind at (4, 2) or q = 4; the shifted kind at r = 4) the
forms are squared on their coefficients, into quartic forms, and the nu
weights or the chain membership fold in after it; the 4-leaf vector kind at
(4, 2) then scans one form row per sign pattern instead of six.  At the
fixed resolution, 1e-2, the grid of a 4-leaf operator has 159^3 directions
times up to 8 sign patterns, about 0.03-0.15 s on one core of a 2-core
machine where every power folds in, up to about 2 s where the scan takes a
power of neither 1 nor 2 (the 24 operators of the acceptance battery: about
0.9 s in all).  A block holds at most ``_GRID_VALUES`` = 2^16 values (form
rows times directions), so the scan needs about 1 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .lattice import Lattice
from .martingale import rubio_de_francia
from .measure import Measure, _check_exponents, _per_mass, conjugate, lp_norm
from .paraproduct import (
    EdgeCoefficients,
    NonnegativeCoefficients,
    Symbol,
    _edge_terms_adjoint,
    paraproduct_apply,
    positive_apply,
    project_mean_zero,
    sequence_norm,
    shifted_apply,
    vector_paraproduct,
)
from .testing import adjoint_witness_data, direct_testing

KINDS = ("vector_paraproduct", "shifted", "positive", "paraproduct")

#: most values ``norm_lower_bound`` stacks in its batch of starts (starts
#: times leaves, 8 bytes each); a run's peak resident memory is about 9
#: times the batch, so this caps it near 1.2 GB (binary depth 11 fits)
MAX_START_VALUES = 1 << 24

#: line-search candidates ``_ascend`` tries per row in one evaluation: up to
#: ``_FAN_OUT``, as many as keep the candidate batch (rows times candidates
#: times leaves) within ``_CANDIDATE_VALUES``, at least one.  Fanning out
#: evaluates about twice the rows in half the calls, so it pays only while
#: an evaluation costs mostly per call: a vector-kind evaluation costs about
#: as much per call as per a thousand values (rows times leaves).  So every
#: tiny-tree ascent fans out, while binary trees of 2^5 leaves and more
#: (default starts) take one candidate until few rows are left
_FAN_OUT = 4
_CANDIDATE_VALUES = 1 << 13
_HALVINGS = 0.5 ** np.arange(_FAN_OUT)
#: an ascent stops converged once a step gains at most this times max(ratio, 1)
_STEP_TOL = 1e-10
_EXCHANGE_ROUNDS = 6  # most certificate exchanges in ``equivalence_report``


@dataclass(frozen=True)
class OperatorHandle:
    """An operator on L^p(mu) together with its output space.

    kind                output norm                     ``from_beta`` builds it on
    ----                -----------                     --------------------------
    vector_paraproduct  sequence norm (p, q) w.r.t. nu  beta
    shifted             L^p(nu)                         |beta|^q, at r = p/q
    positive            L^p(nu)                         |beta|
    paraproduct         L^p(nu)                         beta made nu-mean-zero
    """

    kind: str
    p: float
    mu: Measure
    nu: Measure
    q: Optional[float] = None
    symbol: Optional[Symbol] = None
    beta: Optional[EdgeCoefficients] = None
    alpha: Optional[NonnegativeCoefficients] = None

    @classmethod
    def from_beta(
        cls, kind: str, beta: EdgeCoefficients, p: float, q: float, mu: Measure, nu: Measure
    ) -> "OperatorHandle":
        """The operator of ``kind`` that the paper builds from the symbol beta
        (see the table above).  The shifted kind runs at r = p/q, so
        :func:`_check_exponents` asks r > 1 of it; the positive kind and the
        paraproduct ignore q."""
        if kind == "vector_paraproduct":
            return cls(kind=kind, p=p, q=q, mu=mu, nu=nu, beta=beta)
        if kind == "shifted":
            _check_exponents(p, q, r=True)
            return cls(kind=kind, p=p / q, q=q, mu=mu, nu=nu, beta=beta)
        if kind == "positive":
            return cls(kind=kind, p=p, mu=mu, nu=nu, alpha=beta.absolute())
        if kind == "paraproduct":
            return cls(kind=kind, p=p, mu=mu, nu=nu, symbol=project_mean_zero(beta, nu))
        raise ValueError(f"unknown operator kind {kind!r}")

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        _check_exponents(self.p)
        needed = {
            "paraproduct": self.symbol,
            "vector_paraproduct": self.beta,
            "shifted": self.beta,
            "positive": self.alpha,
        }[self.kind]
        if needed is None:
            raise ValueError(f"kind {self.kind!r} is missing its coefficients")
        if self.kind in ("vector_paraproduct", "shifted"):
            if self.q is None:
                raise ValueError(f"kind {self.kind!r} needs the exponent q")
            # the vector kind's output norm is a quasi-norm for q <= 1
            _check_exponents(q=self.q, low=0.0 if self.kind == "vector_paraproduct" else 1.0)

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

    # flat (n_internal, arity) edge coefficients of the linear map: signed
    # for the paraproduct and the vector kind, |b_I|^q for the shifted kind
    def _edge_coefficients(self) -> np.ndarray:
        if self.kind == "paraproduct":
            return self.symbol.beta._flat
        if self.kind == "positive":
            return self.alpha._flat
        if self.kind == "shifted":
            return np.abs(self.beta._flat) ** self.q
        return self.beta._flat


@dataclass
class AscentConfig:
    """Starts and iteration budget of the gradient ascent; defaults favor reproducibility."""

    starts: int = 64
    max_iter: int = 500
    seed: int = 0
    ascend_top: Optional[int] = None          # ascend only the best k starts
    extra_starts: Sequence[np.ndarray] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        counts = {"starts": self.starts, "max_iter": self.max_iter}
        if self.ascend_top is not None:
            counts["ascend_top"] = self.ascend_top
        for name, value in counts.items():
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


@dataclass
class NormEstimate:
    value: float
    argmax: np.ndarray
    starts_used: int
    iterations: int
    converged: bool
    start_kind: str


# ---------------------------------------------------------------------------
# Rayleigh ratios and analytic gradients of their logs, a batch of rows at once
# ---------------------------------------------------------------------------

class _Rows:
    """An operator's Rayleigh ratio and the gradient of its log on a batch of
    leaf functions, shape (batch, n_leaves), one per row.

    Each row gives the bytes of a batch of one: the kernels work along the
    trailing axis, and every scalar power of a norm is taken one row at a
    time (the roots in :func:`lp_norm`, ``val ** p`` and ``den ** p`` here),
    since array powers may round differently.

    Every per-atom quantity of an evaluation is one generation-major flat
    array (``Lattice.split``), so an evaluation makes a fixed number of
    elementwise numpy calls whatever the depth; only the bottom-up block
    sums and the top-down chain sums loop over the generations.  The
    forward map is the operator's own (``op.apply``); the gradient's
    pull-back through its transpose uses the flat edge coefficients and the
    reciprocal mu masses of the internal atoms, built once.
    """

    def __init__(self, op: OperatorHandle) -> None:
        self.op = op
        self.coeffs = op._edge_coefficients()
        self.inv_mass = _per_mass(np.ones(op.lattice.n_internal), op.mu)

    def _forward(self, x: np.ndarray):
        """Input norms, the rows of positive input norm, their outputs, the
        output norms and, for the vector kind, the q-power chains of the
        outputs that the norms are taken from (else None)."""
        op = self.op
        den = op.input_norm(x)
        live = den > 0.0
        out = op.apply(x[live])
        if op.kind != "vector_paraproduct":
            return den, live, out, op.output_norm(out), None
        chain = out.q_power_chain(op.q)  # the bytes of sequence_norm, chain kept
        return den, live, out, lp_norm(chain ** (1.0 / op.q), op.p, op.nu), chain

    def ratios(self, x: np.ndarray) -> np.ndarray:
        """Rayleigh ratio of every row, 0 where the input norm vanishes."""
        den, live, _, val, _ = self._forward(x)
        r = np.zeros(len(x))
        r[live] = val / den[live]
        return r

    def value_and_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ratios, gradients of their logs, and which rows have a gradient:
        those where the ratio's numerator and denominator are positive
        (other rows get a zero row).

        The output side is pulled back through the transpose of the edge
        chain, ``_edge_terms_adjoint``, and then through the averaging of x,
        i.e. ``chain_sum`` of the flat internal-atom terms (generations 0 to
        depth - 1) times the mu leaf masses.
        """
        op, lat, p, mu = self.op, self.op.lattice, self.op.p, self.op.mu
        den, live, out, val, chain_q = self._forward(x)
        ok = val > 0.0
        rows = np.flatnonzero(live)[ok]
        x, den, val = x[rows], den[rows], val[ok]
        val_p = np.array([v ** p for v in val.tolist()])[:, None]
        den_p = np.array([v ** p for v in den.tolist()])[:, None]
        if op.kind == "vector_paraproduct":
            q, s, chain_q = op.q, out._flat[ok], chain_q[ok]
            # nu-weighted G^{p-q} with a zero guard where the chain vanishes,
            # and |s|^(q-1), which is inf at s = 0 for q < 1, with one too
            with np.errstate(divide="ignore", invalid="ignore"):
                gpq = np.where(chain_q > 0.0, chain_q ** ((p - q) / q), 0.0)
                pull = np.where(s != 0.0, np.abs(s) ** (q - 1.0), 0.0)
            t_sums = lat.flat_sums(gpq, op.nu.leaf_mass)
            inner = _edge_terms_adjoint(self.coeffs, pull * np.sign(s) * t_sums[:, 1:])
            g_out = mu.leaf_mass * lat.chain_sum(_per_mass(inner, mu)) / val_p
        else:
            out = out[ok]
            u = op.nu.leaf_mass * np.abs(out) ** (p - 1.0) * np.sign(out) / val_p
            inner = _edge_terms_adjoint(self.coeffs, lat.flat_sums(u)[:, 1:])
            if op.kind != "positive":  # the operator reads averages, not integrals
                inner *= self.inv_mass
            g_out = mu.leaf_mass * lat.chain_sum(inner)
        g_in = mu.leaf_mass * np.abs(x) ** (p - 1.0) * np.sign(x) / den_p
        r = np.zeros(len(live))
        r[rows] = val / den
        grad = np.zeros((len(live), lat.n_leaves))
        grad[rows] = g_out - g_in
        has_grad = np.zeros(len(live), dtype=bool)
        has_grad[rows] = True
        return r, grad, has_grad


def _project(op: OperatorHandle, x: np.ndarray, alive: np.ndarray) -> np.ndarray:
    x = np.where(alive, x, 0.0)
    if op.positive_only:
        x = np.maximum(x, 0.0)
    return x


def _fan_width(n_rows: int, n_leaves: int) -> int:
    """Line-search candidates per row in an evaluation of ``n_rows`` rows."""
    return max(1, min(_FAN_OUT, _CANDIDATE_VALUES // (n_rows * n_leaves)))


def _ascend(
    rows: _Rows, x0: np.ndarray, alive: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient ascent from every row of ``x0``, all rows in lock step.

    Each row climbs on its own: normalised to unit input norm, it steps by
    ``eta`` along grad / max|grad|, halving ``eta`` until the ratio grows and
    then doubling it (capped at 1e3).  It stops converged when ``eta`` falls
    to 1e-13, the gradient to 1e-14 or the gain to ``_STEP_TOL`` times
    max(ratio, 1), and unconverged after ``max_iter`` iterations.

    Every evaluation tries the next ``width`` line-search candidates of each
    active row at once, eta, eta/2, ..., eta/2^(width-1) (those above the
    1e-13 floor), in one batch; ``_fan_width`` gives up to ``_FAN_OUT``, as
    many as keep the batch within ``_CANDIDATE_VALUES`` values, at least
    one.  A row takes its first candidate that wins, the one its
    backtracking reaches alone (halving by powers of two is exact), and
    carries eta/2^width on if none wins; so each row takes the path it would
    take alone.  Returns per row the ratio, the point, the iterations and
    whether it converged.
    """
    op = rows.op
    x = _project(op, x0, alive)
    den = op.input_norm(x)[:, None]
    np.divide(x, den, out=x, where=den > 0.0)
    r, grad, active = rows.value_and_grad(x)
    n, n_leaves = x.shape
    eta, gn = np.full(n, 0.5), np.zeros(n)
    iters = np.zeros(n, dtype=np.int64)
    converged = ~active
    fresh = active.copy()  # rows starting an iteration
    while True:
        if fresh.any():
            out_of_iters = fresh & (iters == max_iter)
            active &= ~out_of_iters
            fresh &= ~out_of_iters
            iters[fresh] += 1
            gn[fresh] = np.abs(grad[fresh]).max(axis=1)
            flat = fresh & (gn < 1e-14)
            converged |= flat
            active &= ~flat
            fresh[:] = False
        spent = active & ~(eta > 1e-13)
        converged |= spent
        active &= ~spent
        idx = np.flatnonzero(active)
        if not idx.size:
            return r, x, iters, converged
        steps = eta[idx, None] * _HALVINGS[:_fan_width(idx.size, n_leaves)]
        row, j = np.nonzero(steps > 1e-13)  # row by row, largest step first
        src = idx[row]
        cand = _project(op, x[src] + steps[row, j, None] * grad[src] / gn[src, None], alive)
        den = op.input_norm(cand)[:, None]
        np.divide(cand, den, out=cand, where=den > 0.0)
        rc, gc, has_grad = rows.value_and_grad(cand)
        up = np.zeros(steps.shape, dtype=bool)
        up[row, j] = rc > r[src]  # a ratio is >= 0, and 0 where the input norm is
        slot = np.zeros(steps.shape, dtype=np.int64)  # each tried step's row of cand
        slot[row, j] = np.arange(row.size)
        hit = up.any(axis=1)
        first = up.argmax(axis=1)[hit]
        pick = slot[hit, first]
        won = idx[hit]
        gain = rc[pick] - r[won]
        x[won], r[won], grad[won] = cand[pick], rc[pick], gc[pick]
        eta[won] = np.minimum(steps[hit, first] * 2.0, 1e3)
        done = ~has_grad[pick] | (gain <= _STEP_TOL * np.maximum(r[won], 1.0))
        stopped = won[done]
        converged[stopped] = True
        active[stopped] = False
        fresh[won[~done]] = True
        eta[idx[~hit]] = steps[~hit, -1] * 0.5


def _write_indicators(lat: Lattice, x: np.ndarray) -> None:
    """Write the indicator of every atom into the first n_atoms rows of the
    zeroed (rows, n_leaves) array ``x``, in flat atom order: the indicators
    of generation d are the diagonal of its rows' (size, size, leaves per
    atom) view."""
    off = lat.offsets
    for d in range(lat.depth + 1):
        size = lat.level_size(d)
        diag = np.arange(size)
        x[off[d]:off[d + 1]].reshape(size, size, -1)[diag, diag] = 1.0


def norm_lower_bound(op: OperatorHandle, cfg: Optional[AscentConfig] = None) -> NormEstimate:
    """Best Rayleigh ratio over all starts, each improved by gradient ascent.

    Starts: the indicator of every atom, ``cfg.starts`` seeded random vectors,
    and any ``cfg.extra_starts``.  For the positive kinds the search is
    restricted to nonnegative functions.  All starts are ranked by one
    batched ratio, and the ascended ones climb together (:func:`_ascend`).
    Deterministic given the seed; the returned value is the recomputed ratio
    of the reported maximizer.
    """
    cfg = cfg or AscentConfig()
    lat = op.lattice
    alive = op.mu.leaf_mass > 0.0
    if not np.any(alive):
        raise ValueError("the input measure is identically zero; no admissible start")
    n_starts = lat.n_atoms + cfg.starts + len(cfg.extra_starts)
    if n_starts * lat.n_leaves > MAX_START_VALUES:
        raise ValueError(
            f"{n_starts} starts on {lat.n_leaves} leaves exceed the batch limit of "
            f"{MAX_START_VALUES} values"
        )

    # every start is written straight into its row of the batch
    x = np.zeros((n_starts, lat.n_leaves))
    _write_indicators(lat, x)
    names = [f"indicator({d},{i})" for d, i in lat.atoms()]
    drawn = slice(len(names), len(names) + cfg.starts)
    np.random.default_rng(cfg.seed).standard_normal(out=x[drawn])  # as drawn one row at a time
    if op.positive_only:
        np.abs(x[drawn], out=x[drawn])
    names += [f"random[{k}]" for k in range(cfg.starts)]
    for k, vec in enumerate(cfg.extra_starts):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (lat.n_leaves,):
            raise ValueError(f"certificate start {k} has shape {vec.shape}, expected ({lat.n_leaves},)")
        x[len(names)] = vec
        names.append(f"certificate[{k}]")

    rows = _Rows(op)
    x = _project(op, x, alive)
    ratios = rows.ratios(x).tolist()
    order = sorted(range(n_starts), key=lambda k: -ratios[k])

    n_ascend = n_starts if cfg.ascend_top is None else min(cfg.ascend_top, n_starts)
    best = order[0]
    best_val, best_name, best_x = ratios[best], names[best], x[best]
    total_iters = 0
    all_converged = True
    if cfg.max_iter > 0 and n_ascend > 0:
        top = order[:n_ascend]
        vals, climbed, iters, conv = _ascend(rows, x[top], alive, cfg.max_iter)
        for j, val in enumerate(vals.tolist()):
            if val > best_val:
                best_val, best_name, best_x = val, names[top[j]], climbed[j]
        total_iters = int(iters.sum())
        all_converged = bool(conv.all())
    best_x = best_x.copy()
    final = op.ratio(best_x)
    return NormEstimate(
        value=final,
        argmax=best_x,
        starts_used=n_starts,
        iterations=total_iters,
        converged=all_converged,
        start_kind=best_name,
    )


# ---------------------------------------------------------------------------
# brute-force oracle on tiny instances
# ---------------------------------------------------------------------------

#: values per block of the grid scan, (form rows + 1 for den^p) x directions,
#: the rows counted after the folds (8 for a 4-leaf vector kind at (4, 2):
#: one per sign pattern, so a block holds 45 prefixes); the scan's buffers
#: take about 1 MB, and the battery's 24 operators scan in about 0.9 s
_GRID_VALUES = 1 << 16
_GRID_RESOLUTION = 1e-2  # angle step of the grid


def _product_fold(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Products of two monomials, as monomials.  For the n monomials whose
    exponents are the rows of ``exps``, returns the (n * n, m) 0/1 matrix that
    adds the product of monomials i and j (row i * n + j) into the monomial of
    their summed exponents, the m summed exponents in the order they first
    appear, and for each the first pair (i, j) that makes it.  On the n
    variables themselves (``exps`` the identity) these are the pairs i <= j
    in row-major order."""
    n = len(exps)
    sums = (exps[:, None, :] + exps[None, :, :]).reshape(n * n, -1)
    _, first, inverse = np.unique(sums, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    fold = np.zeros((n * n, len(first)))
    fold[np.arange(n * n), rank[inverse.reshape(-1)]] = 1.0
    first = np.sort(first)
    return fold, sums[first], first // n, first % n


def _operator_matrix(op: OperatorHandle, alive_idx: np.ndarray):
    """Columns of the linear operator on the alive leaves, one batched apply
    to their indicators; for the sequence kind also the chain membership
    matrix of non-root atoms, (leaves, n_atoms - 1), C-contiguous."""
    lat = op.lattice
    ind = np.zeros((lat.n_atoms, lat.n_leaves))
    _write_indicators(lat, ind)
    out = op.apply(ind[lat.n_internal:][alive_idx])
    if op.kind != "vector_paraproduct":
        return np.ascontiguousarray(out.T), None
    return np.ascontiguousarray(out._flat.T), np.ascontiguousarray(ind[1:].T)


def grid_oracle_norm(op: OperatorHandle) -> float:
    """Max Rayleigh ratio over a dense angular grid of directions.

    Directions are hyperspherical angles with step ``_GRID_RESOLUTION`` on the
    nonnegative orthant, combined with all sign patterns (first coordinate
    fixed positive; antipodal points give the same ratio).  Restricted to at
    most 4 leaves because the grid is exhaustive.

    The scan ranks the grid points by num^p / den^p, which orders them as the
    ratio does.  With the first k - 2 angles (a prefix) fixed and t the last
    one, every squared output under every sign pattern is a form in the trig
    monomials of degree 2 in (1, cos t, sin t) whose coefficients are linear
    in the prefix monomials of degree 2 (u_i u_j, sigma included), the
    square taken on the coefficients (``_product_fold``).  The steps after
    the square, a power and then a linear map (nu weights, or first the
    chain membership for the vector kind), fold into the forms in order
    while the power is 1; the first power 2 squares the forms once more,
    into degree 4 in both sets of monomials, before its map folds in.  The
    steps left act on the scanned values.  A block of prefixes takes one
    product with the forms and one with the trig basis, in a buffer of at
    most ``_GRID_VALUES`` values; den^p is a per-prefix constant plus
    sigma^p (w cos^p t + w' sin^p t).
    The returned value is the ratio of each block's best point, rebuilt from
    the left-to-right direction products and recomputed by ``ratios``,
    maximised over the blocks, so it is a sound lower bound.
    """
    lat = op.lattice
    if lat.n_leaves > 4:
        raise ValueError(f"oracle supports at most 4 leaves, got {lat.n_leaves}")
    alive_idx = np.nonzero(op.mu.leaf_mass > 0.0)[0]
    k = len(alive_idx)
    if k == 0:
        raise ValueError("the input measure is identically zero")
    mat, membership = _operator_matrix(op, alive_idx)
    w = op.mu.leaf_mass[alive_idx]
    v = op.nu.leaf_mass
    p = op.p

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

    npts = int(np.ceil((np.pi / 2.0) / _GRID_RESOLUTION)) + 1
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

    # The forms of every (output, pattern) row, laid out (output, prefix
    # monomial, pattern, trig monomial) so that each linear map over the
    # outputs is one matrix product.  They start linear in the prefix
    # coordinates (u_0, ..., u_{k-3}, sigma) and in (1, cos t, sin t).  The
    # operator is scaled by a power of two so that the squares stay in
    # range, which leaves the order of the points as it is.
    scale = np.ldexp(1.0, -np.frexp(np.abs(mat).max())[1])
    signed = (scale * mat)[:, None, :] * signs.T  # (output, pattern, leaf)
    forms = np.zeros((len(mat), k - 1, n_pat, 3))
    forms[:, :k - 2, :, 0] = signed[:, :, :k - 2].transpose(0, 2, 1)
    forms[:, k - 2, :, 1:] = signed[:, :, k - 2:]
    exps = [np.eye(k - 1, dtype=np.int64), np.eye(3, dtype=np.int64)]
    pairs = [[], []]  # per square and side, the pairs whose products are the new monomials

    def square(forms: np.ndarray) -> np.ndarray:
        """The squares of the forms, on the monomials of twice the degree."""
        n, m, _, t = forms.shape
        folds = []
        for side in (0, 1):
            fold, exps[side], i, j = _product_fold(exps[side])
            folds.append(fold)
            pairs[side].append((i, j))
        outer = forms[:, :, None, :, :, None] * forms[:, None, :, :, None, :]
        outer = (folds[0].T @ outer.reshape(n, m * m, -1)).reshape(-1, t * t) @ folds[1]
        return outer.reshape(n, len(exps[0]), n_pat, len(exps[1]))

    # Square, then fold the steps after the square into the forms in order:
    # a power 1 leaves its linear map to fold in, and the first power 2
    # squares the forms once more before its map folds in.  The steps left
    # act on the scanned values.
    forms = square(forms)
    if op.kind == "vector_paraproduct":
        after = [(op.q / 2.0, membership), (p / op.q, v[None, :])]
    else:
        after = [(p / 2.0, v[None, :])]
    squared = False
    while after and (after[0][0] == 1.0 or (after[0][0] == 2.0 and not squared)):
        power, lin = after.pop(0)
        if power == 2.0:
            forms, squared = square(forms), True
        forms = (lin @ forms.reshape(len(forms), -1)).reshape(len(lin), *forms.shape[1:])
    n_rows = len(forms) * n_pat
    n_terms = len(exps[1])
    forms = forms.reshape(len(forms), len(exps[0]), n_pat * n_terms)
    basis = np.stack([np.ones(npts), cos_t, sin_t])
    for left, right in pairs[1]:
        basis = basis[left] * basis[right]
    den_tail = w[k - 2] * cos_t ** p + w[k - 1] * sin_t ** p

    # Directions in C order over the k - 1 angles.  A block is a run of
    # prefixes times every value of the last angle.  Each coordinate is the
    # product of sines and a cosine taken left to right, so a direction does
    # not depend on the block it falls in.
    n_pre = npts ** (k - 2)
    per_block = min(n_pre, max(1, _GRID_VALUES // ((n_rows + 1) * npts)))
    buf = np.empty(per_block * n_rows * npts)

    best = 0.0
    for lo in range(0, n_pre, per_block):
        pre = np.arange(lo, min(lo + per_block, n_pre))
        u = np.empty((k - 1, len(pre)))  # the prefix coordinates, then sigma
        sin_prod = np.ones(len(pre))
        for a in range(k - 2):
            i_a = pre // npts ** (k - 3 - a) % npts
            u[a] = sin_prod * cos_t[i_a]
            sin_prod = sin_prod * sin_t[i_a]
        u[k - 2] = sin_prod
        mono = u
        for left, right in pairs[0]:
            mono = mono[left] * mono[right]
        vals = buf[:len(pre) * n_rows * npts].reshape(-1, npts)
        np.matmul((mono.T @ forms).reshape(-1, n_terms), basis, out=vals)
        vals = vals.reshape(len(forms), -1)
        for power, lin in after:
            if power == 2.0:  # np.square: about 3x faster than np.power(., 2.0)
                np.square(vals, out=vals)
            else:  # rounding may leave a square below 0: clamp before the power
                np.power(np.maximum(vals, 0.0, out=vals), power, out=vals)
            vals = lin @ vals
        den_p = np.multiply.outer(sin_prod ** p, den_tail)
        den_p += (w[:k - 2] @ u[:k - 2] ** p)[:, None]
        score = vals.reshape(len(pre), n_pat, npts)
        score *= np.divide(1.0, den_p, out=den_p, where=den_p > 0.0)[:, None, :]  # 0 where den = 0
        j, pat, i = np.unravel_index(score.argmax(), score.shape)
        x = np.concatenate([u[:k - 2, j], [sin_prod[j] * cos_t[i], sin_prod[j] * sin_t[i]]])
        best = max(best, float(ratios((x * signs[:, pat])[:, None])[0]))
    return best


# ---------------------------------------------------------------------------
# certificate starts and the equivalence / necessity reports
# ---------------------------------------------------------------------------

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
    b_star, witnesses = adjoint_witness_data(beta, p, q, mu, nu)
    r = p / q
    r_prime = conjugate(r)
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
    checks: list[tuple[str, float, float]]


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
    _check_exponents(p, q, r=True)
    cfg = cfg or AscentConfig()
    b = direct_testing(beta, p, q, mu, nu)
    b_star, cert = _adjoint_certificates(beta, p, q, mu, nu)
    cfg = replace(cfg, extra_starts=tuple(cfg.extra_starts) + tuple(cert))
    est = norm_lower_bound(OperatorHandle.from_beta("vector_paraproduct", beta, p, q, mu, nu), cfg)
    factor = 4.0 * p / (p - q)  # equals 4r' for r = p/q
    checks = [
        ("direct-below-norm", b, est.value),
        ("adjoint-below-factor", b_star, factor * est.value ** q),
    ]
    return NecessityReport(
        b_direct=b, b_adjoint=b_star, norm_estimate=est, factor=factor, checks=checks
    )


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
) -> EquivalenceReport:
    """Simultaneous-boundedness report for the vector paraproduct and the
    shifted positive operator it induces.

    The two estimates exchange certificates until stable (``_EXCHANGE_ROUNDS``
    at most): the q-th power of the vector maximizer feeds the shifted
    estimate, and the reverse-Hoelder majorant of the shifted maximizer feeds
    the vector estimate.  At the fixed point both two-sided inequalities hold
    for the estimates themselves.
    """
    cfg = cfg or AscentConfig()
    nec = necessity_report(beta, p, q, mu, nu, cfg)  # checks p > q > 1
    r = p / q
    a1, f1 = nec.norm_estimate.value, nec.norm_estimate.argmax
    pi_op = OperatorHandle.from_beta("vector_paraproduct", beta, p, q, mu, nu)
    sh_op = OperatorHandle.from_beta("shifted", beta, p, q, mu, nu)

    sh_cfg = replace(cfg, extra_starts=(np.abs(f1) ** q,))
    est_sh = norm_lower_bound(sh_op, sh_cfg)
    a2, f2 = est_sh.value, est_sh.argmax

    for _ in range(_EXCHANGE_ROUNDS):
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

    b, b_star, factor = nec.b_direct, nec.b_adjoint, nec.factor
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
