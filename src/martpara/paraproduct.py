"""Paraproduct-type operators on a two-weight lattice.

The operators come in four flavours, all evaluated in O(atoms) by one
bottom-up integral pass plus one top-down accumulation pass.  The latter is
one kernel, ``_edge_chain``: each child atom's edge coefficient times its
parent's value (``_edge_terms``), summed along every leaf's ancestor chain.
Its transpose, ``_edge_terms_adjoint``, contracts child values with the
coefficients back onto the parents; the norm gradients, the adjoint testing
terms and the lemma weights of the decomposition replay all go through it.

* ``paraproduct_apply``     -- sum over internal atoms of (mu-average of f) * b_I,
  where b_I are the mean-zero components of a :class:`Symbol`;
* ``vector_paraproduct``    -- the sequence-valued version, one number per
  non-root atom;
* ``power_apply`` / ``shifted_apply`` -- the nonlinear q-power majorant and the
  positive linear operator that dominates it;
* ``positive_apply``        -- the general shifted positive operator driven by
  nonnegative edge coefficients.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .lattice import Atom, Lattice
from .measure import Measure, atom_averages, atom_integrals, leaf_function, lp_norm, safe_divide


class EdgeCoefficients:
    """One real coefficient per parent->child edge of the lattice.

    Stored per generation: ``level(d)`` has shape ``(arity**d, arity)`` and
    row ``i`` holds the coefficients from internal atom ``(d, i)`` to its
    children, in child-slot order.  Missing entries default to 0.
    """

    def __init__(self, lattice: Lattice, levels: Optional[Sequence[np.ndarray]] = None):
        self.lattice = lattice
        if levels is None:
            self._levels = [
                np.zeros((lattice.level_size(d), lattice.arity))
                for d in range(lattice.depth)
            ]
        else:
            if len(levels) != lattice.depth:
                raise ValueError(f"expected {lattice.depth} coefficient levels")
            self._levels = []
            for d, lvl in enumerate(levels):
                arr = np.array(lvl, dtype=float)
                if arr.shape != (lattice.level_size(d), lattice.arity):
                    raise ValueError(f"level {d} has shape {arr.shape}")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"level {d} has non-finite entries")
                self._levels.append(arr)

    @classmethod
    def from_dict(cls, lattice: Lattice, entries: Mapping[tuple[int, int, int], float]):
        """Build from a sparse map {(depth, index, child_slot): value}."""
        levels = [
            np.zeros((lattice.level_size(d), lattice.arity)) for d in range(lattice.depth)
        ]
        for (d, i, k), v in entries.items():
            atom = lattice.check_atom(Atom(d, i))
            if lattice.is_leaf(atom):
                raise ValueError(f"edge coefficient attached to leaf {atom!r}")
            if not 0 <= k < lattice.arity:
                raise ValueError(f"child slot {k} out of range")
            levels[d][i, k] = float(v)
        return cls(lattice, levels)

    def level(self, d: int) -> np.ndarray:
        return self._levels[d]

    def child_values(self, e: int) -> np.ndarray:
        """Coefficients re-indexed by the child atoms at generation ``e`` (1..depth)."""
        return self._levels[e - 1].reshape(-1)

    def component(self, atom: Atom) -> np.ndarray:
        """The step function b_I = sum of coefficient * child indicator, as leaves."""
        atom = self.lattice.check_atom(atom)
        if self.lattice.is_leaf(atom):
            raise ValueError(f"component requires an internal atom, got leaf {atom!r}")
        out = np.zeros(self.lattice.n_leaves)
        for k, child in enumerate(self.lattice.children(atom)):
            out[self.lattice.leaf_slice(child)] = self._levels[atom.depth][atom.index, k]
        return out

    def scaled(self, t: float) -> "EdgeCoefficients":
        return type(self)(self.lattice, [t * lvl for lvl in self._levels])

    def to_dict(self) -> dict[tuple[int, int, int], float]:
        out = {}
        for d, lvl in enumerate(self._levels):
            for i, k in zip(*np.nonzero(lvl)):
                out[(d, int(i), int(k))] = float(lvl[i, k])
        return out


class NonnegativeCoefficients(EdgeCoefficients):
    """Edge coefficients constrained to be >= 0 (shifted positive operators)."""

    def __init__(self, lattice: Lattice, levels: Optional[Sequence[np.ndarray]] = None):
        super().__init__(lattice, levels)
        for d, lvl in enumerate(self._levels):
            if np.any(lvl < 0):
                raise ValueError(f"negative coefficient at level {d}")


_MEAN_ZERO_RTOL = 1e-9  # default tolerance of the Symbol check, relative to sum |b| nu


def _mean_zero_excess(lvl: np.ndarray, child_mass: np.ndarray, rel_tol: float):
    """Per-atom integral of the component, its tolerance, and where the
    integral exceeds the tolerance (the check :class:`Symbol` applies)."""
    sums = (lvl * child_mass).sum(axis=1)
    caps = rel_tol * (np.abs(lvl) * child_mass).sum(axis=1)
    return sums, caps, np.abs(sums) > caps


class Symbol:
    """Edge coefficients whose components are martingale differences w.r.t. nu.

    The defining constraint -- each component integrates to zero against the
    reference measure -- is validated here once; the apply routines then treat
    the symbol as plain coefficients.
    """

    def __init__(self, beta: EdgeCoefficients, nu: Measure, rel_tol: float = _MEAN_ZERO_RTOL):
        if beta.lattice is not nu.lattice and beta.lattice != nu.lattice:
            raise ValueError("coefficients and reference measure live on different lattices")
        self.beta = beta
        self.nu = nu
        lat = beta.lattice
        for d in range(lat.depth):
            child_mass = nu.level_mass[d + 1].reshape(-1, lat.arity)
            sums, caps, bad = _mean_zero_excess(beta.level(d), child_mass, rel_tol)
            if np.any(bad):
                i = int(np.nonzero(bad)[0][0])
                raise ValueError(
                    f"symbol is not mean-zero at atom ({d}, {i}): "
                    f"integral {sums[i]:.3e} exceeds tolerance {caps[i]:.3e}"
                )

    @property
    def lattice(self) -> Lattice:
        return self.beta.lattice

    def component(self, atom: Atom) -> np.ndarray:
        return self.beta.component(atom)


class SequenceField:
    """One real number per non-root atom; output space of the vector paraproduct.

    Leading axes of the levels, the same on every level, are a batch of
    fields (the vector paraproduct of a batch of leaf functions).
    """

    def __init__(self, lattice: Lattice, levels: Optional[Sequence[np.ndarray]] = None):
        self.lattice = lattice
        if levels is None:
            self._levels = [np.zeros(lattice.level_size(d)) for d in range(1, lattice.depth + 1)]
        else:
            if len(levels) != lattice.depth:
                raise ValueError(f"expected {lattice.depth} sequence levels")
            self._levels = []
            for j, lvl in enumerate(levels):
                arr = np.array(lvl, dtype=float)
                lead = self._levels[0].shape[:-1] if self._levels else arr.shape[:-1]
                if arr.shape != (*lead, lattice.level_size(j + 1)):
                    raise ValueError(f"sequence level {j + 1} has shape {arr.shape}")
                self._levels.append(arr)

    def level(self, d: int) -> np.ndarray:
        """Values at generation ``d`` (1..depth)."""
        if not 1 <= d <= self.lattice.depth:
            raise ValueError(f"sequence levels span 1..{self.lattice.depth}, got {d}")
        return self._levels[d - 1]

    def value(self, atom: Atom) -> float:
        atom = self.lattice.check_atom(atom)
        if atom.depth == 0:
            raise ValueError("sequence fields are indexed by non-root atoms")
        return float(self._levels[atom.depth - 1][atom.index])

    def q_power_chain(self, q: float) -> np.ndarray:
        """Leaf array of sum over the ancestor chain of |value|^q."""
        per_depth: list[Optional[np.ndarray]] = [None]
        per_depth += [np.abs(lvl) ** q for lvl in self._levels]
        return self.lattice.chain_sum(per_depth)


def _edge_terms(
    levels: Sequence[np.ndarray], parent_vals: Sequence[np.ndarray]
) -> list[Optional[np.ndarray]]:
    """Per generation (None at the root), each child atom's edge coefficient
    times the value attached to its parent.  Leading axes of the values are
    a batch."""
    return [None] + [
        (c * v[..., None]).reshape(*v.shape[:-1], c.size) for c, v in zip(levels, parent_vals)
    ]


def _edge_terms_adjoint(
    levels: Sequence[np.ndarray], child_vals: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Transpose of :func:`_edge_terms`: per internal generation, each atom's
    edge coefficients times the values attached to its children, summed over
    the children (``child_vals[d]`` lives at generation d + 1).  Leading axes
    of the values are a batch."""
    return [
        (c * w.reshape(*w.shape[:-1], *c.shape)).sum(axis=-1) for c, w in zip(levels, child_vals)
    ]


def _edge_chain(
    lat: Lattice, levels: Sequence[np.ndarray], parent_vals: Sequence[np.ndarray]
) -> np.ndarray:
    """Leaf array of the edge terms summed along each leaf's ancestor chain."""
    return lat.chain_sum(_edge_terms(levels, parent_vals))


def paraproduct_apply(symbol: Symbol, f, mu: Measure) -> np.ndarray:
    """Two-weight paraproduct: sum over internal atoms of (mu-average of f)
    times the symbol component, evaluated pointwise on leaves."""
    return _edge_chain(symbol.lattice, symbol.beta._levels, atom_averages(f, mu))


def vector_paraproduct(beta: EdgeCoefficients, f, mu: Measure) -> SequenceField:
    """Sequence field s_I = (mu-average of f over parent of I) * coefficient."""
    return SequenceField(beta.lattice, _edge_terms(beta._levels, atom_averages(f, mu))[1:])


def sequence_norm(s: SequenceField, p: float, q: float, nu: Measure) -> float:
    """Triebel-Lizorkin style norm: L^p(nu) norm of the pointwise l^q size
    of the field along ancestor chains."""
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    chain = s.q_power_chain(q)
    return lp_norm(chain ** (1.0 / q), p, nu)


def power_apply(beta: EdgeCoefficients, f, q: float, mu: Measure) -> np.ndarray:
    """Nonlinear majorant: sum over internal atoms of |average|^q |b_I|^q."""
    if q <= 1:
        raise ValueError(f"q must be > 1, got {q}")
    levels = [np.abs(c) ** q for c in beta._levels]
    avg_q = [np.abs(a) ** q for a in atom_averages(f, mu)[:-1]]
    return _edge_chain(beta.lattice, levels, avg_q)


def shifted_apply(beta: EdgeCoefficients, g, q: float, mu: Measure) -> np.ndarray:
    """Shifted positive operator with coefficient functions |b_I|^q:
    sum over internal atoms of (mu-average of g) * |b_I|^q."""
    if q <= 1:
        raise ValueError(f"q must be > 1, got {q}")
    levels = [np.abs(c) ** q for c in beta._levels]
    return _edge_chain(beta.lattice, levels, atom_averages(g, mu))


def positive_apply(alpha: NonnegativeCoefficients, f, mu: Measure) -> np.ndarray:
    """General shifted positive operator: sum over internal atoms of
    (integral of f over the atom) * coefficient step function."""
    return _edge_chain(alpha.lattice, alpha._levels, atom_integrals(f, mu))


def bilinear_form(beta: EdgeCoefficients, f, g, mu: Measure) -> np.ndarray:
    """Bilinear version of the q=2 majorant: sum of (avg f)(avg g)|b_I|^2."""
    products = [a * b for a, b in zip(atom_averages(f, mu)[:-1], atom_averages(g, mu))]
    return _edge_chain(beta.lattice, [c ** 2 for c in beta._levels], products)


def pairing(h, g, nu: Measure) -> float:
    """Bilinear pairing of two leaf functions against nu."""
    h = leaf_function(nu.lattice, h)
    g = leaf_function(nu.lattice, g)
    return float(np.sum(h * g * nu.leaf_mass))


def project_mean_zero(beta: EdgeCoefficients, nu: Measure) -> Symbol:
    """Smallest correction of the coefficients making every component
    nu-mean-zero; slots under massless children are left untouched (they do
    not enter the constraint).  An atom with a single massed child gets 0
    there.

    Where sibling coefficients nearly agree, the corrected values are tiny
    while the rounding error of ``c - mean`` is that of the original values,
    so :class:`Symbol` would reject the result.  At those atoms only, the
    correction is recomputed from the differences to the coefficient of the
    heaviest child: those are exact for nearby values, so the rounding error
    scales with the corrected values (and equal siblings give exactly 0).
    """
    lat = beta.lattice
    levels = []
    for d in range(lat.depth):
        lvl = beta.level(d)
        child_mass = nu.level_mass[d + 1].reshape(-1, lat.arity)
        active = child_mass > 0
        n_active = active.sum(axis=1, keepdims=True)
        totals = child_mass.sum(axis=1)
        means = safe_divide((lvl * child_mass).sum(axis=1), totals)
        out = np.where(active & (n_active > 1), lvl - means[:, None], lvl)
        out[active & (n_active == 1)] = 0.0
        bad = _mean_zero_excess(out, child_mass, _MEAN_ZERO_RTOL)[2]
        if np.any(bad):
            rows = np.nonzero(bad)[0]
            c, m, act = lvl[rows], child_mass[rows], active[rows]
            ref = c[np.arange(len(rows)), m.argmax(axis=1)]
            dev = np.where(act, c - ref[:, None], 0.0)
            dbar = (dev * m).sum(axis=1) / totals[rows]
            out[rows] = np.where(act, dev - dbar[:, None], c)
        levels.append(out)
    return Symbol(EdgeCoefficients(lat, levels), nu)


def positive_from_symbol(beta: EdgeCoefficients, q: float, mu: Measure) -> NonnegativeCoefficients:
    """Edge coefficients mass(I)^(-1) |beta|^q turning the shifted operator
    into an instance of :func:`positive_apply` (zero on massless parents)."""
    lat = beta.lattice
    levels = []
    for d in range(lat.depth):
        inv = safe_divide(np.ones_like(mu.level_mass[d]), mu.level_mass[d])
        levels.append(np.abs(beta.level(d)) ** q * inv[:, None])
    return NonnegativeCoefficients(lat, levels)
