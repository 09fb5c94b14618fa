"""Paraproduct-type operators on a two-weight lattice.

The operators come in four flavours, all evaluated in O(atoms) by one
bottom-up integral pass plus one top-down accumulation pass.  The latter is
one kernel, ``_edge_chain``: each child atom's edge coefficient times its
parent's value (``_edge_terms``), summed along every leaf's ancestor chain.
Its transpose, ``_edge_terms_adjoint``, serves the norm gradients, the
adjoint testing terms and the lemma weights of the decomposition replay.

Everything is a generation-major flat array (``Lattice.split``).  The
coefficients are one (n_internal, arity) array whose rows' children are the
non-root atoms in flat order, validated once (``EdgeCoefficients._adopt``);
the mean-zero check of :class:`Symbol` and the correction of
:func:`project_mean_zero` are one pass over all its rows.  The only loop
over the generations is the shape check of a caller's list of levels.  The
package's one lattice check, ``_check_lattices``, guards every function
here and in :mod:`martpara.testing` that takes coefficients and measures."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .lattice import Atom, Lattice, sibling_sums
from .measure import (
    Measure, _check_exponents, _leaf_rows, _parent_averages, _parent_integrals, _per_mass,
    leaf_function, lp_norm, safe_divide,
)


def _check_lattices(**parts) -> None:
    """Raise a ValueError naming each part's lattice unless the parts given
    (None skips one) live on one lattice: the same object, or equal ones."""
    lats = {name: part.lattice for name, part in parts.items() if part is not None}
    if len({id(lat) for lat in lats.values()}) > 1 and len(set(lats.values())) > 1:
        where = ", ".join(f"{name} on {lat}" for name, lat in lats.items())
        raise ValueError(f"the operator's parts live on different lattices: {where}")


def _generation(lat: Lattice, pos):
    """Generation of the atom at each flat position of ``pos``."""
    return np.searchsorted(lat.offsets, pos, side="right") - 1


class EdgeCoefficients:
    """One real coefficient per parent->child edge of the lattice.

    Stored as one flat array of shape ``(n_internal, arity)``, generation
    0 first: row ``offsets[d] + i`` holds the coefficients from internal atom
    ``(d, i)`` to its children, in child-slot order, and ``level(d)`` is the
    view of generation ``d``, shape ``(arity**d, arity)``.  Missing entries
    default to 0.  Every constructor ends in the one validation, ``_adopt``.
    """

    def __init__(self, lattice: Lattice, levels: Optional[Sequence[np.ndarray]] = None):
        flat = np.zeros((lattice.n_internal, lattice.arity))
        if levels is not None:
            if len(levels) != lattice.depth:
                raise ValueError(f"expected {lattice.depth} coefficient levels")
            for d, lvl in enumerate(levels):
                arr = np.asarray(lvl, dtype=float)
                if arr.shape != (lattice.level_size(d), lattice.arity):
                    raise ValueError(f"level {d} has shape {arr.shape}")
                flat[lattice.offsets[d]:lattice.offsets[d + 1]] = arr
        self._adopt(lattice, flat)

    @classmethod
    def _of(cls, lattice: Lattice, flat: np.ndarray):
        """Coefficients that keep a new flat (n_internal, arity) float array."""
        return cls.__new__(cls)._adopt(lattice, flat)

    def _adopt(self, lattice: Lattice, flat: np.ndarray) -> "EdgeCoefficients":
        """Keep ``flat`` after the one validation: finite entries, and no
        negative ones in :class:`NonnegativeCoefficients`; a fault names its
        first level."""
        nonnegative = isinstance(self, NonnegativeCoefficients)
        for bad, fault in ((~np.isfinite(flat), "level {} has non-finite entries"),
                           (nonnegative and flat < 0, "negative coefficient at level {}")):
            if np.any(bad):
                raise ValueError(fault.format(_generation(lattice, np.argmax(np.any(bad, axis=1)))))
        self.lattice, self._flat = lattice, flat
        return self

    @classmethod
    def from_dict(cls, lattice: Lattice, entries: Mapping[tuple[int, int, int], float]):
        """Build from a sparse map {(depth, index, child_slot): value}."""
        flat = np.zeros((lattice.n_internal, lattice.arity))
        for (d, i, k), v in entries.items():
            atom = lattice.check_atom(Atom(d, i))
            if lattice.is_leaf(atom):
                raise ValueError(f"edge coefficient attached to leaf {atom!r}")
            if not 0 <= k < lattice.arity:
                raise ValueError(f"child slot {k} out of range")
            flat[lattice.offsets[d] + i, k] = float(v)
        return cls._of(lattice, flat)

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
        return type(self)._of(self.lattice, t * self._flat)

    def absolute(self) -> "NonnegativeCoefficients":
        """The coefficients |b|: those of the positive operator on |beta|."""
        return NonnegativeCoefficients._of(self.lattice, np.abs(self._flat))

    def to_dict(self) -> dict[tuple[int, int, int], float]:
        """The sparse map of :meth:`from_dict`: every entry but +0.0, so a
        -0.0 survives a round trip."""
        rows, slots = np.nonzero((self._flat != 0.0) | np.signbit(self._flat))
        depths = _generation(self.lattice, rows)
        index = rows - np.take(self.lattice.offsets, depths)
        keys = zip(depths.tolist(), index.tolist(), slots.tolist())
        return dict(zip(keys, self._flat[rows, slots].tolist()))


class NonnegativeCoefficients(EdgeCoefficients):
    """Edge coefficients constrained to be >= 0 (shifted positive operators)."""


_MEAN_ZERO_RTOL = 1e-9  # tolerance of the Symbol check, relative to sum |b| nu


def _mean_zero_excess(coeffs: np.ndarray, child_mass: np.ndarray):
    """Per-row integral of the component, its tolerance, and where the
    integral exceeds it (the check :class:`Symbol` applies)."""
    arity = coeffs.shape[-1]
    sums = sibling_sums((coeffs * child_mass).reshape(-1), arity)
    caps = np.abs(coeffs)
    caps *= child_mass
    caps = sibling_sums(caps.reshape(-1), arity)
    caps *= _MEAN_ZERO_RTOL
    return sums, caps, np.abs(sums) > caps


class Symbol:
    """Edge coefficients whose components are martingale differences w.r.t. nu.

    The defining constraint -- each component integrates to zero against the
    reference measure -- is validated here once, in one pass over all atoms.
    """

    def __init__(self, beta: EdgeCoefficients, nu: Measure):
        _check_lattices(beta=beta, nu=nu)
        self.beta, self.nu = beta, nu
        self._check(slice(None))

    @classmethod
    def _rechecked(cls, beta: EdgeCoefficients, nu: Measure, rows: np.ndarray) -> "Symbol":
        """The symbol of ``beta``, on nu's lattice, whose internal atoms
        outside ``rows`` already passed the check (``project_mean_zero``'s
        plain correction): only ``rows`` are checked again."""
        symbol = cls.__new__(cls)
        symbol.beta, symbol.nu = beta, nu
        symbol._check(rows)
        return symbol

    def _check(self, rows) -> None:
        """Raise, naming the first, where an internal atom of ``rows`` (an
        index into the flat rows) is not nu-mean-zero."""
        lat = self.beta.lattice
        child_mass = self.nu.flat_mass[1:].reshape(-1, lat.arity)
        sums, caps, bad = _mean_zero_excess(self.beta._flat[rows], child_mass[rows])
        if bad.any():
            at = int(np.argmax(bad))
            row = int(np.arange(lat.n_internal)[rows][at])
            d = _generation(lat, row)
            raise ValueError(f"symbol is not mean-zero at atom ({d}, {row - lat.offsets[d]}): "
                             f"integral {sums[at]:.3e} exceeds tolerance {caps[at]:.3e}")

    @property
    def lattice(self) -> Lattice:
        return self.beta.lattice

    def component(self, atom: Atom) -> np.ndarray:
        return self.beta.component(atom)


class SequenceField:
    """One real number per non-root atom, the output of the vector
    paraproduct: one flat array, generation 1 first, whose levels are views.
    Leading axes are a batch of fields (of a batch of leaf functions)."""

    def __init__(self, lattice: Lattice, flat: np.ndarray):
        flat = np.asarray(flat, dtype=float)
        if flat.shape[-1:] != (lattice.n_atoms - 1,):
            raise ValueError(f"expected {lattice.n_atoms - 1} sequence values, "
                             f"got shape {flat.shape}")
        self.lattice, self._flat = lattice, flat

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


def _parent_values(f, mu: Measure, kernel=_parent_averages, **parts) -> np.ndarray:
    """The flat parent averages (or ``kernel``'s values) of leaf rows f
    w.r.t. mu, once the coefficient ``parts`` pass the lattice check."""
    _check_lattices(**parts, mu=mu)
    return kernel(_leaf_rows(mu.lattice, f), mu)


def paraproduct_apply(symbol: Symbol, f, mu: Measure) -> np.ndarray:
    """Two-weight paraproduct: sum over internal atoms of (mu-average of f)
    times the symbol component, evaluated pointwise on leaves."""
    return _edge_chain(symbol.lattice, symbol.beta._flat, _parent_values(f, mu, symbol=symbol))


def vector_paraproduct(beta: EdgeCoefficients, f, mu: Measure) -> SequenceField:
    """Sequence field s_I = (mu-average of f over parent of I) * coefficient."""
    return SequenceField(beta.lattice, _edge_terms(beta._flat, _parent_values(f, mu, beta=beta)))


def sequence_norm(s: SequenceField, p: float, q: float, nu: Measure) -> float:
    """Triebel-Lizorkin style norm: L^p(nu) norm of the pointwise l^q size
    of the field along ancestor chains."""
    _check_exponents(p, q, low=0.0)
    _check_lattices(s=s, nu=nu)
    return lp_norm(s.q_power_chain(q) ** (1.0 / q), p, nu)


def power_apply(beta: EdgeCoefficients, f, q: float, mu: Measure) -> np.ndarray:
    """Nonlinear majorant: sum over internal atoms of |average|^q |b_I|^q."""
    _check_exponents(q=q)
    avg_q = np.abs(_parent_values(f, mu, beta=beta)) ** q
    return _edge_chain(beta.lattice, np.abs(beta._flat) ** q, avg_q)


def shifted_apply(beta: EdgeCoefficients, g, q: float, mu: Measure) -> np.ndarray:
    """Shifted positive operator with coefficient functions |b_I|^q:
    sum over internal atoms of (mu-average of g) * |b_I|^q."""
    _check_exponents(q=q)
    return _edge_chain(beta.lattice, np.abs(beta._flat) ** q, _parent_values(g, mu, beta=beta))


def positive_apply(alpha: NonnegativeCoefficients, f, mu: Measure) -> np.ndarray:
    """General shifted positive operator: sum over internal atoms of
    (integral of f over the atom) * coefficient step function."""
    integrals = _parent_values(f, mu, _parent_integrals, alpha=alpha)
    return _edge_chain(alpha.lattice, alpha._flat, integrals)


def bilinear_form(beta: EdgeCoefficients, f, g, mu: Measure) -> np.ndarray:
    """Bilinear version of the q=2 majorant: sum of (avg f)(avg g)|b_I|^2."""
    products = _parent_values(f, mu, beta=beta) * _parent_values(g, mu)
    return _edge_chain(beta.lattice, beta._flat ** 2, products)


def pairing(h, g, nu: Measure) -> float:
    """Bilinear pairing of two leaf functions against nu."""
    return float(np.sum(leaf_function(nu.lattice, h) * leaf_function(nu.lattice, g) * nu.leaf_mass))


def project_mean_zero(beta: EdgeCoefficients, nu: Measure) -> Symbol:
    """Smallest correction of the coefficients making every component
    nu-mean-zero; slots under massless children are left untouched (they do
    not enter the constraint).  An atom with a single massed child gets 0
    there.

    Where sibling coefficients nearly agree, the corrected values are tiny
    while the rounding error of ``c - mean`` is that of the original values,
    so :class:`Symbol` would reject the result.  At those atoms only (of
    every generation at once) the correction is recomputed from the
    differences to the coefficient of the heaviest child, exact for nearby
    values: the rounding error scales with the corrected values (and equal
    siblings give exactly 0).
    """
    _check_lattices(beta=beta, nu=nu)
    lat, c = beta.lattice, beta._flat
    child_mass = nu.flat_mass[1:].reshape(-1, lat.arity)
    active = child_mass > 0
    n_active = sibling_sums(active.reshape(-1).astype(np.intp), lat.arity)[:, None]
    totals = nu.flat_mass[:lat.n_internal]  # the sibling sums of the child masses
    out = c - safe_divide(sibling_sums((c * child_mass).reshape(-1), lat.arity), totals)[:, None]
    np.copyto(out, c, where=~(active & (n_active > 1)))
    out[active & (n_active == 1)] = 0.0
    del n_active  # freed before the check
    rows = np.nonzero(_mean_zero_excess(out, child_mass)[2])[0]
    if len(rows):
        out[rows] = _exact_corrections(c[rows], child_mass[rows], active[rows], totals[rows])
    # the other rows passed the check just now
    return Symbol._rechecked(EdgeCoefficients._of(lat, out), nu, rows)


def _exact_corrections(c: np.ndarray, m: np.ndarray, act: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``project_mean_zero``'s correction of the rows ``c`` (child masses
    ``m``, massed children ``act``, their sums ``totals``) from the
    differences to the coefficient of the heaviest child."""
    ref = c[np.arange(len(c)), m.argmax(axis=1)]
    dev = np.where(act, c - ref[:, None], 0.0)
    dbar = sibling_sums((dev * m).reshape(-1), c.shape[-1]) / totals
    return np.where(act, dev - dbar[:, None], c)


def positive_from_symbol(beta: EdgeCoefficients, q: float, mu: Measure) -> NonnegativeCoefficients:
    """Edge coefficients mass(I)^(-1) |beta|^q turning the shifted operator
    into an instance of :func:`positive_apply` (zero on massless parents)."""
    _check_exponents(q=q)
    _check_lattices(beta=beta, mu=mu)
    coeffs = np.abs(beta._flat)
    coeffs **= q
    coeffs *= _per_mass(np.ones(beta.lattice.n_internal), mu)[:, None]
    return NonnegativeCoefficients._of(beta.lattice, coeffs)
