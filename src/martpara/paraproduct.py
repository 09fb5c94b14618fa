"""Paraproduct-type operators on a two-weight lattice.

The operators come in four flavours, all evaluated in O(atoms) by one
bottom-up integral pass plus one top-down accumulation pass.  The latter is
one kernel, ``_edge_chain``: each child atom's edge coefficient times its
parent's value (``_edge_terms``), summed along every leaf's ancestor chain.
Its transpose, ``_edge_terms_adjoint``, contracts child values with the
coefficients back onto the parents; the norm gradients, the adjoint testing
terms and the lemma weights of the decomposition replay all go through it.

Coefficients, averages and sequence fields are generation-major flat arrays
(``Lattice.split``): the coefficients of the internal atoms form one
(n_internal, arity) array whose rows' children are the non-root atoms in
flat order, so each kernel is one elementwise numpy call over every
generation at once, not one per generation.  The edge terms are flat over
the non-root atoms, and ``Lattice.chain_sum(terms, 1)`` adds them along
the chains; ``EdgeCoefficients.level`` and ``SequenceField.level`` are
views of the flat arrays.

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

from .lattice import Atom, Lattice, sibling_sums
from .measure import (
    Measure, _check_exponents, _leaf_rows, _parent_averages, _parent_integrals, _per_mass,
    leaf_function, lp_norm, safe_divide,
)


class EdgeCoefficients:
    """One real coefficient per parent->child edge of the lattice.

    Stored as one flat array of shape ``(n_internal, arity)``, generation
    0 first: row ``offsets[d] + i`` holds the coefficients from internal atom
    ``(d, i)`` to its children, in child-slot order, and ``level(d)`` is the
    view of generation ``d``, shape ``(arity**d, arity)``.  Missing entries
    default to 0.
    """

    def __init__(self, lattice: Lattice, levels: Optional[Sequence[np.ndarray]] = None):
        self.lattice = lattice
        self._flat = np.zeros((lattice.n_internal, lattice.arity))
        if levels is not None:
            if len(levels) != lattice.depth:
                raise ValueError(f"expected {lattice.depth} coefficient levels")
            for d, lvl in enumerate(levels):
                arr = np.asarray(lvl, dtype=float)
                if arr.shape != (lattice.level_size(d), lattice.arity):
                    raise ValueError(f"level {d} has shape {arr.shape}")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"level {d} has non-finite entries")
                self.level(d)[...] = arr

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
        """Writable view of the generation-``d`` rows of the flat array."""
        off = self.lattice.offsets
        return self._flat[off[d]:off[d + 1]]

    def component(self, atom: Atom) -> np.ndarray:
        """The step function b_I = sum of coefficient * child indicator, as leaves."""
        atom = self.lattice.check_atom(atom)
        if self.lattice.is_leaf(atom):
            raise ValueError(f"component requires an internal atom, got leaf {atom!r}")
        out = np.zeros(self.lattice.n_leaves)
        for k, child in enumerate(self.lattice.children(atom)):
            out[self.lattice.leaf_slice(child)] = self.level(atom.depth)[atom.index, k]
        return out

    def scaled(self, t: float) -> "EdgeCoefficients":
        return type(self)(self.lattice, [t * self.level(d) for d in range(self.lattice.depth)])

    def absolute(self) -> "NonnegativeCoefficients":
        """The coefficients |b|: those of the positive operator on |beta|."""
        levels = [np.abs(self.level(d)) for d in range(self.lattice.depth)]
        return NonnegativeCoefficients(self.lattice, levels)

    def to_dict(self) -> dict[tuple[int, int, int], float]:
        out = {}
        for d in range(self.lattice.depth):
            lvl = self.level(d)
            for i, k in zip(*np.nonzero(lvl)):
                out[(d, int(i), int(k))] = float(lvl[i, k])
        return out


class NonnegativeCoefficients(EdgeCoefficients):
    """Edge coefficients constrained to be >= 0 (shifted positive operators)."""

    def __init__(self, lattice: Lattice, levels: Optional[Sequence[np.ndarray]] = None):
        super().__init__(lattice, levels)
        for d in range(lattice.depth):
            if np.any(self.level(d) < 0):
                raise ValueError(f"negative coefficient at level {d}")


_MEAN_ZERO_RTOL = 1e-9  # tolerance of the Symbol check, relative to sum |b| nu


def _mean_zero_excess(lvl: np.ndarray, child_mass: np.ndarray):
    """Per-atom integral of the component, its tolerance, and where the
    integral exceeds the tolerance (the check :class:`Symbol` applies)."""
    arity = lvl.shape[-1]
    sums = sibling_sums((lvl * child_mass).reshape(-1), arity)
    caps = _MEAN_ZERO_RTOL * sibling_sums((np.abs(lvl) * child_mass).reshape(-1), arity)
    return sums, caps, np.abs(sums) > caps


class Symbol:
    """Edge coefficients whose components are martingale differences w.r.t. nu.

    The defining constraint -- each component integrates to zero against the
    reference measure -- is validated here once; the apply routines then treat
    the symbol as plain coefficients.
    """

    def __init__(self, beta: EdgeCoefficients, nu: Measure):
        if beta.lattice is not nu.lattice and beta.lattice != nu.lattice:
            raise ValueError("coefficients and reference measure live on different lattices")
        self.beta = beta
        self.nu = nu
        lat = beta.lattice
        for d in range(lat.depth):
            child_mass = nu.level_mass[d + 1].reshape(-1, lat.arity)
            sums, caps, bad = _mean_zero_excess(beta.level(d), child_mass)
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

    Wraps one flat array over the non-root atoms, generation 1 first
    (``Lattice.split`` from generation 1), whose levels are views.  Leading
    axes are a batch of fields (the vector paraproduct of a batch of leaf
    functions).
    """

    def __init__(self, lattice: Lattice, flat: np.ndarray):
        flat = np.asarray(flat, dtype=float)
        if flat.shape[-1:] != (lattice.n_atoms - 1,):
            raise ValueError(
                f"expected {lattice.n_atoms - 1} sequence values, got shape {flat.shape}"
            )
        self.lattice = lattice
        self._flat = flat

    def level(self, d: int) -> np.ndarray:
        """Values at generation ``d`` (1..depth), a view of the flat array."""
        if not 1 <= d <= self.lattice.depth:
            raise ValueError(f"sequence levels span 1..{self.lattice.depth}, got {d}")
        off = self.lattice.offsets
        return self._flat[..., off[d] - 1:off[d + 1] - 1]

    def q_power_chain(self, q: float) -> np.ndarray:
        """Leaf array of sum over the ancestor chain of |value|^q."""
        return self.lattice.chain_sum(np.abs(self._flat) ** q, 1)


def _edge_terms(coeffs: np.ndarray, parent_vals: np.ndarray) -> np.ndarray:
    """Each non-root atom's edge coefficient times the value attached to its
    parent, flat over the non-root atoms, from the flat coefficients
    (n_internal, arity) and flat values (..., n_internal) of the internal
    atoms.  Leading axes of the values are a batch."""
    return (coeffs * parent_vals[..., None]).reshape(*parent_vals.shape[:-1], coeffs.size)


def _edge_terms_adjoint(coeffs: np.ndarray, child_vals: np.ndarray) -> np.ndarray:
    """Transpose of :func:`_edge_terms`: each internal atom's edge
    coefficients times the values attached to its children, summed over the
    children, flat (..., n_internal) from the flat values (..., n_atoms - 1)
    of the non-root atoms.  Leading axes of the values are a batch."""
    return sibling_sums(coeffs.reshape(-1) * child_vals, coeffs.shape[-1])


def _edge_chain(lat: Lattice, coeffs: np.ndarray, parent_vals: np.ndarray) -> np.ndarray:
    """Leaf array of the edge terms summed along each leaf's ancestor chain."""
    terms = _edge_terms(coeffs, parent_vals)
    del parent_vals  # a temporary argument (the caller's averages) is freed here
    return lat.chain_sum(terms, 1)


def paraproduct_apply(symbol: Symbol, f, mu: Measure) -> np.ndarray:
    """Two-weight paraproduct: sum over internal atoms of (mu-average of f)
    times the symbol component, evaluated pointwise on leaves."""
    f = _leaf_rows(mu.lattice, f)
    return _edge_chain(symbol.lattice, symbol.beta._flat, _parent_averages(f, mu))


def vector_paraproduct(beta: EdgeCoefficients, f, mu: Measure) -> SequenceField:
    """Sequence field s_I = (mu-average of f over parent of I) * coefficient."""
    f = _leaf_rows(mu.lattice, f)
    return SequenceField(beta.lattice, _edge_terms(beta._flat, _parent_averages(f, mu)))


def sequence_norm(s: SequenceField, p: float, q: float, nu: Measure) -> float:
    """Triebel-Lizorkin style norm: L^p(nu) norm of the pointwise l^q size
    of the field along ancestor chains."""
    _check_exponents(p, q, low=0.0)
    chain = s.q_power_chain(q)
    return lp_norm(chain ** (1.0 / q), p, nu)


def power_apply(beta: EdgeCoefficients, f, q: float, mu: Measure) -> np.ndarray:
    """Nonlinear majorant: sum over internal atoms of |average|^q |b_I|^q."""
    _check_exponents(q=q)
    f = _leaf_rows(mu.lattice, f)
    avg_q = np.abs(_parent_averages(f, mu)) ** q
    return _edge_chain(beta.lattice, np.abs(beta._flat) ** q, avg_q)


def shifted_apply(beta: EdgeCoefficients, g, q: float, mu: Measure) -> np.ndarray:
    """Shifted positive operator with coefficient functions |b_I|^q:
    sum over internal atoms of (mu-average of g) * |b_I|^q."""
    _check_exponents(q=q)
    g = _leaf_rows(mu.lattice, g)
    return _edge_chain(beta.lattice, np.abs(beta._flat) ** q, _parent_averages(g, mu))


def positive_apply(alpha: NonnegativeCoefficients, f, mu: Measure) -> np.ndarray:
    """General shifted positive operator: sum over internal atoms of
    (integral of f over the atom) * coefficient step function."""
    f = _leaf_rows(mu.lattice, f)
    return _edge_chain(alpha.lattice, alpha._flat, _parent_integrals(f, mu))


def bilinear_form(beta: EdgeCoefficients, f, g, mu: Measure) -> np.ndarray:
    """Bilinear version of the q=2 majorant: sum of (avg f)(avg g)|b_I|^2."""
    avg_f = _parent_averages(_leaf_rows(mu.lattice, f), mu)
    products = avg_f * _parent_averages(_leaf_rows(mu.lattice, g), mu)
    return _edge_chain(beta.lattice, beta._flat ** 2, products)


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
        n_active = sibling_sums(active.reshape(-1).astype(np.intp), lat.arity)[:, None]
        totals = nu.level_mass[d]  # the sibling sums of the child masses
        means = safe_divide(sibling_sums((lvl * child_mass).reshape(-1), lat.arity), totals)
        out = np.where(active & (n_active > 1), lvl - means[:, None], lvl)
        out[active & (n_active == 1)] = 0.0
        bad = _mean_zero_excess(out, child_mass)[2]
        if np.any(bad):
            rows = np.nonzero(bad)[0]
            c, m, act = lvl[rows], child_mass[rows], active[rows]
            ref = c[np.arange(len(rows)), m.argmax(axis=1)]
            dev = np.where(act, c - ref[:, None], 0.0)
            dbar = sibling_sums((dev * m).reshape(-1), lat.arity) / totals[rows]
            out[rows] = np.where(act, dev - dbar[:, None], c)
        levels.append(out)
    return Symbol(EdgeCoefficients(lat, levels), nu)


def positive_from_symbol(beta: EdgeCoefficients, q: float, mu: Measure) -> NonnegativeCoefficients:
    """Edge coefficients mass(I)^(-1) |beta|^q turning the shifted operator
    into an instance of :func:`positive_apply` (zero on massless parents)."""
    _check_exponents(q=q)
    lat, off = beta.lattice, beta.lattice.offsets
    coeffs = np.abs(beta._flat)
    coeffs **= q
    coeffs *= _per_mass(np.ones(lat.n_internal), mu)[:, None]
    return NonnegativeCoefficients(lat, [coeffs[off[d]:off[d + 1]] for d in range(lat.depth)])
