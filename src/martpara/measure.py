"""Nonnegative measures given by leaf masses, with averages and L^p norms.

Degenerate conventions are centralized here: an average over a zero-mass atom
is 0, and every operator downstream inherits that choice through
:func:`atom_averages`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        arr = np.array(leaf_mass, dtype=float)
        if arr.shape != (lattice.n_leaves,):
            raise ValueError(
                f"expected {lattice.n_leaves} leaf masses, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf masses must be finite")
        if np.any(arr < 0):
            raise ValueError("leaf masses must be nonnegative")
        # masses are nonnegative, so every atom's mass is at most the total
        with np.errstate(over="ignore"):
            level_mass = lattice.block_sums(arr)
        if not np.isfinite(level_mass[0][0]):
            raise ValueError("leaf masses must have a finite total")
        self.lattice = lattice
        self.leaf_mass = arr
        self.level_mass = level_mass
        arr.setflags(write=False)
        for lvl in self.level_mass:
            lvl.setflags(write=False)

    def mass(self, atom: Atom) -> float:
        atom = self.lattice.check_atom(atom)
        return float(self.level_mass[atom.depth][atom.index])

    def total(self) -> float:
        return float(self.level_mass[0][0])

    def check_additivity(self, rel: float = 1e-12) -> bool:
        """Re-verify mass(I) = sum of child masses for every internal atom."""
        for d in range(self.lattice.depth):
            parents = self.level_mass[d]
            kids = self.level_mass[d + 1].reshape(-1, self.lattice.arity).sum(axis=1)
            if not np.allclose(parents, kids, rtol=rel, atol=0.0):
                return False
        return True

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
    if not np.all(np.isfinite(arr)):
        raise ValueError("leaf function entries must be finite")
    return arr


def safe_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise num/den with 0 wherever den == 0."""
    out = np.zeros_like(np.asarray(num, dtype=float))
    np.divide(num, den, out=out, where=np.asarray(den) > 0)
    return out


def atom_integrals(f, m: Measure) -> list[np.ndarray]:
    """Per-generation arrays of integrals of ``f`` over every atom; a batch
    of leaf functions along leading axes gives batched arrays."""
    f = _leaf_rows(m.lattice, f)
    return m.lattice.block_sums(f * m.leaf_mass)


def atom_averages(f, m: Measure) -> list[np.ndarray]:
    """Per-generation arrays of averages, 0 on zero-mass atoms."""
    ints = atom_integrals(f, m)
    return [safe_divide(ints[d], m.level_mass[d]) for d in range(m.lattice.depth + 1)]


def average(f, atom: Atom, m: Measure) -> float:
    """Average of ``f`` over ``atom`` w.r.t. ``m``; 0 when the atom has zero mass."""
    atom = m.lattice.check_atom(atom)
    mass = m.mass(atom)
    if mass == 0.0:
        return 0.0
    f = leaf_function(m.lattice, f)
    sl = m.lattice.leaf_slice(atom)
    return float(np.dot(f[sl], m.leaf_mass[sl]) / mass)


def integral(f, atom: Atom, m: Measure) -> float:
    atom = m.lattice.check_atom(atom)
    f = leaf_function(m.lattice, f)
    sl = m.lattice.leaf_slice(atom)
    return float(np.dot(f[sl], m.leaf_mass[sl]))


def lp_norm(f, p: float, m: Measure):
    """(sum |f|^p dm)^(1/p).  Accepts any p > 0 (quasi-norms included).

    A batch of leaf functions, shape (..., n_leaves), gives an array of
    norms.  The root is taken one scalar power per row: array powers may
    round differently from scalar ones, and each row must equal its 1-D norm.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    f = _leaf_rows(m.lattice, f)
    sums = np.sum(np.abs(f) ** p * m.leaf_mass, axis=-1)
    if sums.ndim == 0:
        return float(sums ** (1.0 / p))
    return np.array([s ** (1.0 / p) for s in sums.flat]).reshape(sums.shape)


@dataclass(frozen=True)
class Exponents:
    """Integrability exponents with the derived conjugates.

    ``r_prime`` exists only when r = p/q > 1.
    """

    p: float
    q: float = 2.0

    def __post_init__(self) -> None:
        if not (1.0 < self.p < np.inf):
            raise ValueError(f"p must be in (1, inf), got {self.p}")
        if not (1.0 < self.q < np.inf):
            raise ValueError(f"q must be in (1, inf), got {self.q}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def r(self) -> float:
        return self.p / self.q

    @property
    def r_prime(self) -> float:
        r = self.r
        if r <= 1.0:
            raise ValueError(f"r' requires p > q, got p={self.p}, q={self.q}")
        return r / (r - 1.0)


def conjugate(p: float) -> float:
    if p <= 1.0:
        raise ValueError(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1.0)
