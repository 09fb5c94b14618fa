"""Averaging and difference operators, square/maximal functions, majorant series.

All operators act on leaf functions and respect the zero-mass convention of
:mod:`martpara.measure` (averages over massless atoms are 0).  The square,
maximal and reconstruction functions read the generation-major flat averages
(``Lattice.split``): the jump of every non-root atom is its average minus
its parent's, one subtraction over the whole tree.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import Atom
from .measure import Measure, _averages, average, conjugate, leaf_function


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


def square_function(f, m: Measure) -> np.ndarray:
    """Pointwise l2 size of all martingale differences: (sum over internal
    atoms of |difference|^2)^(1/2), evaluated on leaves."""
    lat = m.lattice
    avg = _averages(leaf_function(lat, f), m)
    avg[1:] -= np.repeat(avg[:lat.n_internal], lat.arity)  # the jumps
    return np.sqrt(lat.chain_sum(np.square(avg[1:], out=avg[1:]), 1))


def reconstruct(f, m: Measure) -> np.ndarray:
    """Root expectation plus all martingale differences (telescoping sum).

    Agrees with ``f`` on every positive-mass leaf.
    """
    lat = m.lattice
    avg = _averages(leaf_function(lat, f), m)
    avg[1:] -= np.repeat(avg[:lat.n_internal], lat.arity)  # the jumps
    return lat.chain_sum(avg)


def maximal_function(f, m: Measure) -> np.ndarray:
    """At each leaf, the largest |average| over all atoms containing it
    (leaf atoms included)."""
    lat, off = m.lattice, m.lattice.offsets
    avg = _averages(leaf_function(lat, f), m)
    np.abs(avg, out=avg)
    for d in range(1, lat.depth + 1):  # top-down: each atom takes its parent's max
        children = avg[off[d]:off[d + 1]].reshape(-1, lat.arity)
        np.maximum(avg[off[d - 1]:off[d], None], children, out=children)
    return avg[off[lat.depth]:]


def rubio_de_francia(f, m: Measure, p: float, tol: float = 1e-12) -> np.ndarray:
    """Geometric series of iterated maximal functions.

    Returns sum over n >= 0 of (2p')^(-n) M^n |f|, truncated at the first term
    whose sup-norm drops below ``tol``.  Terms decay geometrically because
    M^n f <= sup|f|, so the discarded tail is at most tol * 2p'/(2p'-1).
    """
    factor = 1.0 / (2.0 * conjugate(p))  # checks p
    if not 0.0 < tol < math.inf:  # nan fails too
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
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
