"""Averaging and difference operators, square/maximal functions, majorant series.

All operators act on leaf functions and respect the zero-mass convention of
:mod:`martpara.measure` (averages over massless atoms are 0).
"""

from __future__ import annotations

import numpy as np

from .lattice import Atom
from .measure import Measure, atom_averages, average, conjugate, leaf_function


def expectation(f, atom: Atom, m: Measure) -> np.ndarray:
    """Conditional expectation on one atom: average(f) * indicator(atom)."""
    atom = m.lattice.check_atom(atom)
    out = np.zeros(m.lattice.n_leaves)
    out[m.lattice.leaf_slice(atom)] = average(f, atom, m)
    return out


def martingale_difference(f, atom: Atom, m: Measure) -> np.ndarray:
    """Jump of conditional averages at ``atom``: sum of child expectations minus
    the atom expectation.  Supported on the atom, constant on its children."""
    atom = m.lattice.check_atom(atom)
    if m.lattice.is_leaf(atom):
        raise ValueError(f"martingale difference needs an internal atom, got leaf {atom!r}")
    out = np.zeros(m.lattice.n_leaves)
    base = average(f, atom, m)
    for child in m.lattice.children(atom):
        out[m.lattice.leaf_slice(child)] = average(f, child, m) - base
    return out


def _child_jumps(avg: list[np.ndarray], arity: int) -> list[np.ndarray]:
    """Per-generation arrays (d = 1..depth) of the difference value taken on
    each atom by its parent's martingale difference, from the averages."""
    return [avg[d] - np.repeat(avg[d - 1], arity) for d in range(1, len(avg))]


def square_function(f, m: Measure) -> np.ndarray:
    """Pointwise l2 size of all martingale differences: (sum over internal
    atoms of |difference|^2)^(1/2), evaluated on leaves."""
    jumps = _child_jumps(atom_averages(f, m), m.lattice.arity)
    return np.sqrt(m.lattice.chain_sum([None] + [j ** 2 for j in jumps]))


def reconstruct(f, m: Measure) -> np.ndarray:
    """Root expectation plus all martingale differences (telescoping sum).

    Agrees with ``f`` on every positive-mass leaf.
    """
    avg = atom_averages(f, m)
    return m.lattice.chain_sum([avg[0]] + _child_jumps(avg, m.lattice.arity))


def maximal_function(f, m: Measure) -> np.ndarray:
    """At each leaf, the largest |average| over all atoms containing it
    (leaf atoms included)."""
    lat = m.lattice
    avg = atom_averages(f, m)
    cur = np.abs(avg[0])
    for d in range(1, lat.depth + 1):
        cur = np.maximum(np.repeat(cur, lat.arity), np.abs(avg[d]))
    return cur


def rubio_de_francia(f, m: Measure, p: float, tol: float = 1e-12) -> np.ndarray:
    """Geometric series of iterated maximal functions.

    Returns sum over n >= 0 of (2p')^(-n) M^n |f|, truncated at the first term
    whose sup-norm drops below ``tol``.  Terms decay geometrically because
    M^n f <= sup|f|, so the discarded tail is at most tol * 2p'/(2p'-1).
    """
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    factor = 1.0 / (2.0 * conjugate(p))
    cur = np.abs(leaf_function(m.lattice, f))
    total = cur.copy()
    scale = 1.0
    # geometric decay guarantees termination; the cap is a safety net only
    for _ in range(100_000):
        cur = maximal_function(cur, m)
        scale *= factor
        term = scale * cur
        if term.size == 0 or float(term.max(initial=0.0)) < tol:
            break
        total += term
    return total
