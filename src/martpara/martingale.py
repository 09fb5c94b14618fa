"""Averaging and difference operators, square/maximal functions, majorant series.

All operators act on leaf functions and respect the zero-mass convention of
:mod:`martpara.measure` (averages over massless atoms are 0).  The square,
maximal and reconstruction functions read the generation-major flat averages
(``Lattice.split``): the jump of every non-root atom is its average minus
its parent's, one subtraction over the whole tree.

The maximal function and the Rubio de Francia series share one kernel
(``_maximal_into``), which overwrites a flat (n_atoms,) buffer in place:
the leaf generation takes f times the leaf masses, ``Lattice.sum_up``
fills the generations above, a divide by the masses and an abs make them
|averages|, and a top-down max raises every atom to its parent's value
(strided on generations of ``STRIDED_MAX_PARENTS`` parents or more,
broadcast on smaller ones).
``maximal_function`` hands it a fresh buffer per call;
``rubio_de_francia`` allocates one buffer and one leaf-length term buffer
per call and feeds each iterate back from the buffer's own leaf
generation, so its iterations allocate nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import Atom
from .measure import Measure, _averages, _per_mass, average, conjugate, leaf_function


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


#: the top-down max runs as ``arity`` strided maxima, one per child
#: position, on a generation of at least this many parents; on smaller ones
#: it broadcasts each parent over its run of children, in fewer calls
STRIDED_MAX_PARENTS = 512


def _maximal_into(flat: np.ndarray, f: np.ndarray, m: Measure) -> np.ndarray:
    """Overwrite the flat (n_atoms,) buffer ``flat`` with every atom's
    largest |average| of the leaf function ``f`` over the atoms containing
    it, and return its leaf generation, the maximal function.  ``f`` may be
    that leaf generation itself.

    The sums and divides are those of ``_averages`` and the max is exact, so
    the bytes are those of the per-generation running max.
    """
    lat, off, arity = m.lattice, m.lattice.offsets, m.lattice.arity
    leaves = flat[lat.n_internal:]
    np.multiply(f, m.leaf_mass, out=leaves)
    lat.sum_up(flat[:lat.n_internal], leaves)
    _per_mass(flat, m, out=flat)
    np.abs(flat, out=flat)
    for d in range(1, lat.depth + 1):  # top-down: each atom takes its parent's max
        parents, children = flat[off[d - 1]:off[d]], flat[off[d]:off[d + 1]]
        if parents.size < STRIDED_MAX_PARENTS:
            runs = children.reshape(-1, arity)
            np.maximum(parents[:, None], runs, out=runs)
        else:
            for k in range(arity):
                np.maximum(parents, children[k::arity], out=children[k::arity])
    return leaves


def maximal_function(f, m: Measure) -> np.ndarray:
    """At each leaf, the largest |average| over all atoms containing it
    (leaf atoms included): one ``_maximal_into`` pass over a fresh flat
    buffer, whose leaf generation is returned."""
    f = leaf_function(m.lattice, f)
    return _maximal_into(np.empty(m.lattice.n_atoms), f, m)


def rubio_de_francia(f, m: Measure, p: float, tol: float = 1e-12) -> np.ndarray:
    """Geometric series of iterated maximal functions.

    Returns sum over n >= 0 of (2p')^(-n) M^n |f|, truncated at the first term
    whose sup-norm drops below ``tol``.  Terms decay geometrically because
    M^n f <= sup|f|, so the discarded tail is at most tol * 2p'/(2p'-1).

    The iterates live in one flat (n_atoms,) buffer and the terms in one
    leaf-length buffer, both allocated once per call: each ``_maximal_into``
    pass reads M^(n-1)|f| from the buffer's leaf generation and leaves M^n|f|
    there, with the bytes of ``maximal_function``.  An iterate that
    overflows raises the ValueError that ``maximal_function`` raises on it.
    """
    factor = 1.0 / (2.0 * conjugate(p))  # checks p
    if not 0.0 < tol < math.inf:  # nan fails too
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    cur = np.abs(leaf_function(m.lattice, f))
    total = cur.copy()
    flat, term = np.empty(m.lattice.n_atoms), np.empty_like(total)
    scale = 1.0
    # geometric decay guarantees termination; the cap is a safety net only
    for _ in range(100_000):
        cur = _maximal_into(flat, cur, m)
        scale *= factor
        top = float(np.multiply(cur, scale, out=term).max())
        if top < tol:
            break
        if not math.isfinite(top):  # scale <= 1/2, so cur holds an inf
            raise ValueError("leaf function entries must be finite")
        total += term
    return total
