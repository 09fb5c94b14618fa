"""Nonnegative measures given by leaf masses, with averages and L^p norms.

Degenerate conventions are centralized here: an average over a zero-mass atom
is 0, and every operator downstream inherits that choice through
:func:`_per_mass`, which :func:`atom_averages`, the operators' averages
and the maximal function share.  So is the one exponent check,
:func:`_check_exponents`: every public function that takes p or q calls
it, directly or through :func:`conjugate` or :func:`lp_norm`.  Atom masses, integrals and averages
are generation-major flat arrays (``Lattice.split``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lattice import Atom, Lattice

#: relative tolerance used for testing-constant comparisons throughout
REL_TOL = 1e-9


class Measure:
    """Locally finite measure on a lattice, stored as leaf masses.

    Atom masses for every generation are cached at construction (one bottom-up
    pass); instances are immutable afterwards.
    """

    def __init__(self, lattice: Lattice, leaf_mass) -> None:
        arr = np.asarray(leaf_mass, dtype=float)
        if arr.shape != (lattice.n_leaves,):
            raise ValueError(
                f"expected {lattice.n_leaves} leaf masses, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf masses must be finite")
        if np.any(arr < 0):
            raise ValueError("leaf masses must be nonnegative")
        # every atom's mass, in one generation-major flat array (see
        # ``Lattice.split``); masses are nonnegative, so each is at most the total
        with np.errstate(over="ignore"):
            flat = lattice.flat_sums(arr)
        if not np.isfinite(flat[0]):
            raise ValueError("leaf masses must have a finite total")
        self.lattice = lattice
        flat.setflags(write=False)
        self.flat_mass = flat
        self.leaf_mass = flat[lattice.n_internal:]
        self.level_mass = lattice.split(flat)
        #: whether some atom has mass 0 (or -0.0), where averages are 0
        self.has_massless_atom = not bool((flat > 0.0).all())

    @functools.cached_property
    def _mass_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat boolean masks of the atoms with mass > 0 and of the rest,
        formed on first use by :func:`_per_mass`."""
        positive = self.flat_mass > 0.0
        return positive, ~positive

    def mass(self, atom: Atom) -> float:
        atom = self.lattice.check_atom(atom)
        return float(self.level_mass[atom.depth][atom.index])

    def total(self) -> float:
        return float(self.level_mass[0][0])

    def __repr__(self) -> str:
        return (
            f"Measure(arity={self.lattice.arity}, depth={self.lattice.depth}, "
            f"total={self.total():.6g})"
        )


def leaf_function(lattice: Lattice, values) -> np.ndarray:
    """Validate and return a leaf function as a float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected {lattice.n_leaves} leaf values, got shape {arr.shape}")
    return _leaf_rows(lattice, arr)


def _leaf_rows(lattice: Lattice, values) -> np.ndarray:
    """Validate a leaf function, or a batch of them along leading axes."""
    arr = np.asarray(values, dtype=float)
    if arr.shape[-1:] != (lattice.n_leaves,):
        raise ValueError(f"expected {lattice.n_leaves} leaf values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("leaf function entries must be finite")
    return arr


def safe_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise num/den with 0 wherever den == 0."""
    out = np.zeros_like(np.asarray(num, dtype=float))
    np.divide(num, den, out=out, where=np.asarray(den) > 0)
    return out


def _integrals(f: np.ndarray, m: Measure) -> np.ndarray:
    """Flat (..., n_atoms) integrals of validated leaf rows over every atom;
    the leaf generation holds f times the leaf masses."""
    return m.lattice.flat_sums(f, m.leaf_mass)


def _per_mass(vals: np.ndarray, m: Measure, out: np.ndarray | None = None) -> np.ndarray:
    """Flat values divided by the masses of their atoms, 0.0 on zero-mass
    atoms, in ``out`` (which may be ``vals``) or a new array: the trailing
    axis starts at the root and may stop at any atom."""
    k = vals.shape[-1]
    mass = m.flat_mass[:k]
    if not m.has_massless_atom:
        return np.divide(vals, mass, out=out)
    positive, massless = m._mass_masks
    if out is None:
        out = np.zeros(vals.shape)
    else:  # the divide leaves the massless atoms alone
        np.copyto(out, 0.0, where=massless[:k])
    np.divide(vals, mass, out=out, where=positive[:k])
    return out


def _averages(f: np.ndarray, m: Measure) -> np.ndarray:
    """Flat (..., n_atoms) averages of validated leaf rows over every atom,
    0 on zero-mass atoms."""
    return _per_mass(_integrals(f, m), m)


def _parent_integrals(f: np.ndarray, m: Measure) -> np.ndarray:
    """Flat (..., n_internal) integrals of validated leaf rows over the
    internal atoms, the ones an operator reads.  Unlike a slice of
    :func:`_integrals` it holds no leaf generation, which would stay alive
    while the operator forms its edge terms (on a batch of starts that
    raises the peak by about half the batch)."""
    internal = np.empty((*f.shape[:-1], m.lattice.n_internal))
    m.lattice.sum_up(internal, f * m.leaf_mass)
    return internal


def _parent_averages(f: np.ndarray, m: Measure) -> np.ndarray:
    """Flat (..., n_internal) averages of validated leaf rows over the
    internal atoms, 0 on zero-mass atoms."""
    return _per_mass(_parent_integrals(f, m), m)


def atom_integrals(f, m: Measure) -> list[np.ndarray]:
    """Per-generation arrays of integrals of ``f`` over every atom; a batch
    of leaf functions along leading axes gives batched arrays."""
    return m.lattice.split(_integrals(_leaf_rows(m.lattice, f), m))


def atom_averages(f, m: Measure) -> list[np.ndarray]:
    """Per-generation arrays of averages, 0 on zero-mass atoms."""
    return m.lattice.split(_averages(_leaf_rows(m.lattice, f), m))


def average(f, atom: Atom, m: Measure) -> float:
    """Average of ``f`` over ``atom`` w.r.t. ``m``; 0 when the atom has zero mass."""
    atom = m.lattice.check_atom(atom)
    mass = m.mass(atom)
    if mass == 0.0:
        return 0.0
    f = leaf_function(m.lattice, f)
    sl = m.lattice.leaf_slice(atom)
    return float(np.dot(f[sl], m.leaf_mass[sl]) / mass)


def lp_norm(f, p: float, m: Measure):
    """(sum |f|^p dm)^(1/p).  Accepts any p > 0 (quasi-norms included).

    A batch of leaf functions, shape (..., n_leaves), gives an array of
    norms.  The root is taken one scalar power per row: array powers may
    round differently from scalar ones, and each row must equal its 1-D norm.
    """
    _check_exponents(p, low=0.0)
    f = _leaf_rows(m.lattice, f)
    sums = np.add.reduce(np.abs(f) ** p * m.leaf_mass, axis=-1)
    if sums.ndim == 0:
        return float(sums ** (1.0 / p))
    return np.array([s ** (1.0 / p) for s in sums.flat]).reshape(sums.shape)


def _check_exponents(p=None, q=None, low: float = 1.0, *, r: bool = False) -> None:
    """The package's one exponent check.

    Raises ValueError unless each exponent given is a finite number above
    ``low`` (1 for the paper's exponents, 0 for the quasi-norms of
    :func:`lp_norm` and :func:`sequence_norm`) and, with ``r``, unless
    r = p/q > 1 too.  nan fails every comparison, so it is rejected with
    +-inf.  The message names the failing exponent and every value given.
    """
    if p is not None and not low < p < math.inf:
        bad = "p"
    elif q is not None and not low < q < math.inf:
        bad = "q"
    elif r and not p > q:  # for finite p, q > 0, p > q is exactly p/q > 1
        bad = "r = p/q"
    else:
        return
    got = ", ".join(f"{name}={v}" for name, v in (("p", p), ("q", q)) if v is not None)
    raise ValueError(f"{bad} must be a finite number > {low:g}, got {got}")


def conjugate(p: float) -> float:
    _check_exponents(p)
    return p / (p - 1.0)
