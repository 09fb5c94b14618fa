"""Operators, testing constants and norms evaluated straight from their definitions.

Nothing here imports martpara: the benchmark compares the program's outputs
with these values.  A tree of arity ``a`` and depth ``n`` has ``a**n`` leaves
and its depth-``d`` atoms are consecutive blocks of ``a**(n-d)`` leaves, so
every per-atom quantity is a reshape of a leaf array to ``(a**d, a**(n-d))``
followed by a row sum, and a per-atom value reaches its leaves by
broadcasting over the same shape.

Coefficients come as the program stores them: level ``d`` has shape
``(a**d, a)`` and row ``i`` holds the weights of the edges from atom
``(d, i)`` to its children, so ``level.reshape(-1)`` is indexed by the
depth-``d+1`` atoms.
"""

from __future__ import annotations

import math

import numpy as np


class Tree:
    """Uniform tree of the given arity and depth, addressed by leaf blocks."""

    def __init__(self, arity: int, depth: int):
        self.a = arity
        self.n = depth
        self.leaves = arity ** depth

    def block(self, x: np.ndarray, d: int) -> np.ndarray:
        """Sum of a leaf array over every depth-``d`` atom."""
        return np.asarray(x, dtype=float).reshape(self.a ** d, -1).sum(axis=1)

    def up(self, values: np.ndarray, d: int) -> np.ndarray:
        """Depth-``d`` atom values copied onto the leaves of each atom."""
        values = np.asarray(values, dtype=float)
        width = self.a ** (self.n - d)
        return np.broadcast_to(values[:, None], (values.size, width)).reshape(-1)

    def to_children(self, parent_values: np.ndarray, level: np.ndarray) -> np.ndarray:
        """``parent value * edge weight`` indexed by the child atoms."""
        return (np.asarray(parent_values, dtype=float)[:, None] * level).reshape(-1)

    def child_mass(self, mass: np.ndarray, d: int) -> np.ndarray:
        """Masses of the children of every depth-``d`` atom, shape (a**d, a)."""
        return self.block(mass, d + 1).reshape(-1, self.a)


def safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den elementwise, 0 where den is not positive."""
    out = np.zeros_like(num, dtype=float)
    np.divide(num, den, out=out, where=den > 0)
    return out


def averages(t: Tree, f, mass) -> list[np.ndarray]:
    """Per-depth averages of ``f`` against the leaf masses, 0 on massless atoms."""
    f = np.asarray(f, dtype=float)
    mass = np.asarray(mass, dtype=float)
    return [safe_ratio(t.block(f * mass, d), t.block(mass, d)) for d in range(t.n + 1)]


def lp_norm(f, p: float, mass) -> float:
    return float(np.sum(np.abs(f) ** p * mass) ** (1.0 / p))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def paraproduct(t: Tree, levels, f, mu) -> np.ndarray:
    """sum over internal atoms I of <f>_I^mu * b_I, evaluated on leaves."""
    avg = averages(t, f, mu)
    out = np.zeros(t.leaves)
    for d in range(t.n):
        out += t.up(t.to_children(avg[d], levels[d]), d + 1)
    return out


def vector_paraproduct(t: Tree, levels, f, mu) -> list[np.ndarray]:
    """s_I = <f>^mu over the parent of I times the edge weight, for depths 1..n."""
    avg = averages(t, f, mu)
    return [t.to_children(avg[d], levels[d]) for d in range(t.n)]


def sequence_norm(t: Tree, seq, p: float, q: float, nu) -> float:
    """L^p(nu) norm of the leafwise l^q size of a sequence over non-root atoms."""
    chain = np.zeros(t.leaves)
    for e in range(1, t.n + 1):
        chain += t.up(np.abs(seq[e - 1]) ** q, e)
    return float(np.sum(np.asarray(nu) * chain ** (p / q)) ** (1.0 / p))


def shifted(t: Tree, levels, g, q: float, mu) -> np.ndarray:
    """sum over internal atoms of <g>_I^mu * |b_I|^q."""
    avg = averages(t, g, mu)
    out = np.zeros(t.leaves)
    for d in range(t.n):
        out += t.up(t.to_children(avg[d], np.abs(levels[d]) ** q), d + 1)
    return out


def positive(t: Tree, alpha_levels, f, mu) -> np.ndarray:
    """sum over internal atoms of (integral of f over I) * a_I."""
    fm = np.asarray(f, dtype=float) * np.asarray(mu, dtype=float)
    out = np.zeros(t.leaves)
    for d in range(t.n):
        out += t.up(t.to_children(t.block(fm, d), alpha_levels[d]), d + 1)
    return out


def project_mean_zero(t: Tree, levels, nu) -> list[np.ndarray]:
    """Subtract from the slots of massed children their nu-weighted mean; an
    atom with a single massed child gets 0 in that slot."""
    out = []
    for d in range(t.n):
        lvl = np.array(levels[d], dtype=float)
        cm = t.child_mass(nu, d)
        active = cm > 0
        n_active = active.sum(axis=1)
        mean = safe_ratio((lvl * cm).sum(axis=1), cm.sum(axis=1))
        lone = active & (n_active == 1)[:, None]
        shared = active & (n_active > 1)[:, None]
        lvl[lone] = 0.0
        lvl[shared] -= np.broadcast_to(mean[:, None], lvl.shape)[shared]
        out.append(lvl)
    return out


def paraproduct_square_sum(t: Tree, sym_levels, f, mu, nu) -> float:
    """sum over internal I of <f>_I^2 * ||b_I||^2 in L^2(nu): the squared
    L^2(nu) norm of the paraproduct when every b_I is nu-mean-zero."""
    avg = averages(t, f, mu)
    total = 0.0
    for d in range(t.n):
        comp = (np.asarray(sym_levels[d]) ** 2 * t.child_mass(nu, d)).sum(axis=1)
        total += float(np.sum(avg[d] ** 2 * comp))
    return total


def maximal(t: Tree, f, mass) -> np.ndarray:
    """Largest |average| over the atoms containing each leaf, leaves included."""
    out = np.zeros(t.leaves)
    for d, a in enumerate(averages(t, f, mass)):
        np.maximum(out, t.up(np.abs(a), d), out=out)
    return out


def rubio_de_francia(t: Tree, f, mass, p: float, tol: float = 1e-12) -> np.ndarray:
    """sum over k >= 0 of (2p')^-k M^k|f|, stopped at the first term whose
    maximum is below ``tol`` (that term is left out)."""
    factor = 1.0 / (2.0 * p / (p - 1.0))
    cur = np.abs(np.asarray(f, dtype=float))
    total = cur.copy()
    scale = 1.0
    while True:
        cur = maximal(t, cur, mass)
        scale *= factor
        term = scale * cur
        if term.size == 0 or float(term.max()) < tol:
            return total
        total = total + term


# ---------------------------------------------------------------------------
# testing constants
# ---------------------------------------------------------------------------

def _sup(nums: list[np.ndarray], dens: list[np.ndarray]) -> float:
    """sup over atoms of num/den; +inf when a massless atom has a positive numerator."""
    best = 0.0
    for num, den in zip(nums, dens):
        if np.any((den == 0.0) & (num > 0.0)):
            return math.inf
        best = max(best, float(safe_ratio(num, den).max()))
    return best


def _below(t: Tree, child_values, power: float, weight) -> list[np.ndarray]:
    """For each atom J: integral over J against ``weight`` of
    (sum of the child-indexed values at depths below J's depth)^power."""
    nums: list[np.ndarray] = [None] * (t.n + 1)  # type: ignore[list-item]
    chain = np.zeros(t.leaves)
    for d in range(t.n, -1, -1):
        nums[d] = t.block(chain ** power * weight, d)
        if d >= 1:
            chain = chain + t.up(child_values[d - 1], d)
    return nums


def _from(t: Tree, atom_values, power: float, weight) -> list[np.ndarray]:
    """For each atom J: integral over J against ``weight`` of
    (sum of the internal-atom values at J's depth and below)^power."""
    nums: list[np.ndarray] = [None] * (t.n + 1)  # type: ignore[list-item]
    chain = np.zeros(t.leaves)
    for d in range(t.n, -1, -1):
        if d < t.n:
            chain = chain + t.up(atom_values[d], d)
        nums[d] = t.block(chain ** power * weight, d)
    return nums


def _root(value: float, power: float) -> float:
    return value ** (1.0 / power) if math.isfinite(value) else math.inf


def direct_testing(t: Tree, levels, p: float, q: float, mu, nu) -> float:
    """B = sup_J [int_J (sum_{I in J internal} |b_I|^q)^(p/q) dnu / mu(J)]^(1/p)."""
    child = [np.abs(lvl.reshape(-1)) ** q for lvl in levels]
    nums = _below(t, child, p / q, nu)
    return _root(_sup(nums, [t.block(mu, d) for d in range(t.n + 1)]), p)


def adjoint_testing(t: Tree, levels, p: float, q: float, mu, nu) -> float:
    """B* with r = p/q: sup_J [int_J (sum_{I in J internal} t_I 1_I)^(r') dmu / nu(J)]^(1/r'),
    t_I = mu(I)^-1 int_I |b_I|^q dnu."""
    r = p / q
    rp = r / (r - 1.0)
    terms = []
    for d in range(t.n):
        integ = (np.abs(levels[d]) ** q * t.child_mass(nu, d)).sum(axis=1)
        mass = t.block(mu, d)
        if np.any((mass == 0.0) & (integ > 0.0)):
            return math.inf
        terms.append(safe_ratio(integ, mass))
    nums = _from(t, terms, rp, mu)
    return _root(_sup(nums, [t.block(nu, d) for d in range(t.n + 1)]), rp)


def positive_testing(t: Tree, alpha_levels, p: float, mu, nu) -> tuple[float, float]:
    """Direct and adjoint constants of the positive operator with weights a:
    B^p = sup_J int_J (sum_{I in J} mu(I) a_I)^p dnu / mu(J),
    B*^p' = sup_J int_J (sum_{I in J} (int_I a_I dnu) 1_I)^p' dmu / nu(J)."""
    pp = p / (p - 1.0)
    mu_levels = [t.block(mu, d) for d in range(t.n + 1)]
    nu_levels = [t.block(nu, d) for d in range(t.n + 1)]
    child = [t.to_children(mu_levels[d], alpha_levels[d]) for d in range(t.n)]
    direct = _sup(_below(t, child, p, nu), mu_levels)
    atom_vals = [(alpha_levels[d] * t.child_mass(nu, d)).sum(axis=1) for d in range(t.n)]
    adjoint = _sup(_from(t, atom_vals, pp, mu), nu_levels)
    return _root(direct, p), _root(adjoint, pp)


# ---------------------------------------------------------------------------
# norms of linear operators at exponent 2
# ---------------------------------------------------------------------------

def weighted_two_norm(columns: list[np.ndarray], out_weight, in_weight) -> float:
    """Norm of the linear map with the given columns from L^2(in_weight) to
    L^2(out_weight): the largest singular value of
    diag(sqrt(out_weight)) M diag(in_weight^-1/2)."""
    mat = np.stack(columns, axis=1)
    scaled = np.sqrt(np.asarray(out_weight))[:, None] * mat / np.sqrt(np.asarray(in_weight))[None, :]
    return float(np.linalg.norm(scaled, 2))


def pairing_sum(t: Tree, alpha_levels, f, g, mu, nu) -> float:
    """<T f, g>_nu for the positive operator, as a sum over non-root atoms I of
    a(parent -> I) * (int over the parent of f dmu) * (int over I of g dnu)."""
    fm = np.asarray(f) * np.asarray(mu)
    gn = np.asarray(g) * np.asarray(nu)
    total = 0.0
    for d in range(t.n):
        total += float(np.sum(t.to_children(t.block(fm, d), alpha_levels[d]) * t.block(gn, d + 1)))
    return total
