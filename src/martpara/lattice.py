"""Finite uniform-arity trees of atoms ("intervals") with arithmetic navigation.

An atom is addressed by ``(depth, index)``; children of ``(d, i)`` are
``(d+1, i*arity + k)`` for ``k = 0..arity-1``.  Nothing is stored per node, so
navigation is O(1) and leaf data lives in flat numpy arrays of length
``arity**depth``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

MAX_DEPTH = 16
#: largest arity**depth accepted; leaf arrays are allocated at this length
MAX_LEAVES = 2 ** 24
#: smallest arity at which ``np.add.reduce`` sums siblings pairwise
PAIRWISE_ARITY = 8


class Atom(NamedTuple):
    """Address of one atom: generation index and position inside it."""

    depth: int
    index: int


@dataclass(frozen=True)
class Lattice:
    """Uniform tree with ``arity**d`` atoms at generation ``d`` for d = 0..depth."""

    arity: int
    depth: int

    # -- sizes ---------------------------------------------------------------
    def level_size(self, d: int) -> int:
        return self.arity ** d

    @property
    def n_leaves(self) -> int:
        return self.arity ** self.depth

    @property
    def n_atoms(self) -> int:
        return (self.arity ** (self.depth + 1) - 1) // (self.arity - 1)

    # -- validation ----------------------------------------------------------
    def is_valid(self, atom: Atom) -> bool:
        d, i = atom
        return 0 <= d <= self.depth and 0 <= i < self.level_size(d)

    def check_atom(self, atom: Atom) -> Atom:
        atom = Atom(*atom)
        if not self.is_valid(atom):
            raise ValueError(f"atom {atom!r} not in lattice arity={self.arity} depth={self.depth}")
        return atom

    def is_leaf(self, atom: Atom) -> bool:
        return atom[0] == self.depth

    # -- navigation ----------------------------------------------------------
    @property
    def root(self) -> Atom:
        return Atom(0, 0)

    def parent(self, atom: Atom) -> Optional[Atom]:
        atom = self.check_atom(atom)
        if atom.depth == 0:
            return None
        return Atom(atom.depth - 1, atom.index // self.arity)

    def children(self, atom: Atom) -> list[Atom]:
        atom = self.check_atom(atom)
        if atom.depth == self.depth:
            return []
        base = atom.index * self.arity
        return [Atom(atom.depth + 1, base + k) for k in range(self.arity)]

    def atoms(self) -> Iterator[Atom]:
        for d in range(self.depth + 1):
            for i in range(self.level_size(d)):
                yield Atom(d, i)

    def leaf_slice(self, atom: Atom) -> slice:
        """Range of leaf positions covered by ``atom``."""
        atom = self.check_atom(atom)
        width = self.arity ** (self.depth - atom.depth)
        return slice(atom.index * width, (atom.index + 1) * width)

    def contains(self, outer: Atom, inner: Atom) -> bool:
        if inner.depth < outer.depth:
            return False
        return inner.index // self.arity ** (inner.depth - outer.depth) == outer.index

    # -- array kernels ---------------------------------------------------------
    # Per-generation data lives in one generation-major flat array: generation
    # 0 first, atom (d, i) at ``offsets[d] + i``, and each generation is a
    # view of it (``split``).  The children of the flat internal atoms are the
    # flat non-root atoms in order, so every atom's children are one run of
    # ``arity`` adjacent entries of the non-root part.
    # The kernels take and return flat arrays: ``sum_up`` fills the internal
    # generations bottom-up, and ``chain_sum`` adds a flat array of terms
    # from any first generation top-down along every leaf's ancestor chain.
    # Every sibling sum goes through ``sibling_sums`` (``sum_up`` through
    # ``_add_runs``) and has the bytes of ``np.add.reduce`` over a trailing
    # axis of length arity.  Below arity 8 it adds the runs' k-th entries with
    # arity - 1 strided ``np.add`` calls, at memory speed, where the reduce
    # runs a short loop per run.  Both add left to right, but the reduce
    # starts from +0.0, so siblings that are all -0.0 sum to 0.0: one
    # ``+= 0.0`` per call gives that (in ``sum_up`` once over all the
    # generations it filled, as a -0.0 sum changes no sum above it but its
    # sign).  From arity 8 up the reduce sums pairwise, which strided adds do
    # not reproduce, so it stays there.
    # Every kernel works on the trailing axis: leading axes are a batch of
    # independent rows, each row giving the same bytes as the call on it alone.
    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Start of every generation in the flat layout, and the total, n_atoms."""
        return tuple((self.arity ** d - 1) // (self.arity - 1) for d in range(self.depth + 2))

    @cached_property
    def flat_atoms(self) -> tuple[Atom, ...]:
        """Every atom in the flat layout, one ``Atom`` per position, made on
        first use so that code turning flat positions into atoms reuses them."""
        return tuple(self.atoms())

    @property
    def n_internal(self) -> int:
        return self.offsets[self.depth]

    def split(self, flat: np.ndarray, first: int = 0) -> list[np.ndarray]:
        """Views of the generations ``first``, ``first`` + 1, ... of a flat
        array whose trailing axis starts at generation ``first``, as many as
        its length holds."""
        off = self.offsets
        base, end = off[first], off[first] + flat.shape[-1]
        return [
            flat[..., off[d] - base:off[d + 1] - base]
            for d in range(first, self.depth + 1) if off[d + 1] <= end
        ]

    def sum_up(self, internal: np.ndarray, leaves: np.ndarray, stop: int = 0) -> None:
        """Fill ``internal`` (..., n_internal) with the sums of ``leaves`` over
        the leaf block of every internal atom at generation ``stop`` or
        deeper, bottom-up, each generation the sibling sums of the one below;
        the generations above ``stop`` are left as they are.

        Below arity 8 the sums are strided adds and one ``+= 0.0`` over all
        the generations filled gives them ``np.add.reduce``'s start from
        +0.0 (a block of -0.0 sums to 0.0); from arity 8 up they are
        ``np.add.reduce``'s pairwise sums.
        """
        off, src = self.offsets, leaves
        for d in range(self.depth - 1, stop - 1, -1):
            dst = internal[..., off[d]:off[d + 1]]
            _add_runs(src, self.arity, dst)
            src = dst
        if self.arity < PAIRWISE_ARITY:
            internal[..., off[stop]:off[self.depth]] += 0.0

    def flat_sums(self, values: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Flat (..., n_atoms) sums over every atom's leaf block of the leaf
        values, times ``weights`` if given; the leaf generation holds the
        (weighted) values, written straight into the flat array."""
        flat = np.empty((*values.shape[:-1], self.n_atoms))
        leaves = flat[..., self.n_internal:]
        if weights is None:
            leaves[...] = values
        else:
            np.multiply(values, weights, out=leaves)
        self.sum_up(flat[..., :self.n_internal], leaves)
        return flat

    def block_sums(self, leaf_values: np.ndarray) -> list[np.ndarray]:
        """Sums of a leaf array over every atom's leaf block, per generation:
        views of one flat array, and the leaf array itself at the leaves."""
        cur = np.asarray(leaf_values, dtype=float)
        if cur.shape[-1:] != (self.n_leaves,):
            raise ValueError("leaf array has wrong length")
        internal = np.empty((*cur.shape[:-1], self.n_internal))
        self.sum_up(internal, cur)
        return self.split(internal) + [cur]

    def spread(self, values: np.ndarray, d: int) -> np.ndarray:
        """Broadcast per-atom values at generation ``d`` to the leaf array."""
        return np.repeat(np.asarray(values, dtype=float), self.arity ** (self.depth - d), axis=-1)

    def chain_sum(self, terms: np.ndarray, first: int = 0) -> np.ndarray:
        """Leaf array of sums over each leaf's ancestor chain of a flat array
        of per-atom terms whose trailing axis starts at generation ``first``
        and holds whole generations, as many as its length holds (``split``).

        The sums run from 0.0 in generation order, so a chain of -0.0 terms
        gives 0.0.
        """
        off, base = self.offsets, self.offsets[first]
        run = np.zeros(self.level_size(first))
        for d in range(first, self.depth + 1):
            if d > first:
                run = run.repeat(self.arity, axis=-1)
            if off[d + 1] - base <= terms.shape[-1]:
                vals = terms[..., off[d] - base:off[d + 1] - base]
                run = np.add(run, vals, out=run if d > first else None)
        return run


def _add_runs(values: np.ndarray, arity: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sums of every run of ``arity`` adjacent entries along the trailing
    axis of ``values``, into ``out`` if given: strided adds left to right
    below arity 8, which may leave -0.0 where ``np.add.reduce`` gives 0.0,
    and ``np.add.reduce`` from arity 8 up."""
    if arity >= PAIRWISE_ARITY:
        runs = values.reshape(*values.shape[:-1], values.shape[-1] // arity, arity)
        return np.add.reduce(runs, axis=-1, out=out)
    out = np.add(values[..., 0::arity], values[..., 1::arity], out=out)
    for k in range(2, arity):
        out += values[..., k::arity]
    return out


def sibling_sums(values: np.ndarray, arity: int) -> np.ndarray:
    """Sums of every run of ``arity`` adjacent entries along the trailing
    axis of ``values`` (every atom's children, in the flat layout), with the
    bytes of ``np.add.reduce`` over a trailing axis of length ``arity``.
    Float sums start from +0.0, so a run of -0.0 sums to 0.0; integer sums
    are exact."""
    out = _add_runs(values, arity)
    if arity < PAIRWISE_ARITY and out.dtype.kind == "f":
        out += 0.0
    return out


def build_lattice(arity: int, depth: int) -> Lattice:
    """Construct a lattice, rejecting unusable sizes."""
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {depth}")
    if arity ** depth > MAX_LEAVES:
        raise ValueError(f"arity**depth = {arity}**{depth} exceeds {MAX_LEAVES} leaves")
    return Lattice(arity=arity, depth=depth)
