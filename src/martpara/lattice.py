"""Finite uniform-arity trees of atoms ("intervals") with arithmetic navigation.

An atom is addressed by ``(depth, index)``; children of ``(d, i)`` are
``(d+1, i*arity + k)`` for ``k = 0..arity-1``.  Nothing is stored per node, so
navigation is O(1) and leaf data lives in flat numpy arrays of length
``arity**depth``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

MAX_DEPTH = 16
#: largest arity**depth accepted; leaf arrays are allocated at this length
MAX_LEAVES = 2 ** 24


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

    def parent_children(self, atom: Atom) -> tuple[Optional[Atom], list[Atom]]:
        """Parent (absent for the root) and the ordered child list (empty for leaves)."""
        return self.parent(atom), self.children(atom)

    def subtree(self, top: Atom) -> list[Atom]:
        """All atoms contained in ``top`` (itself included), depth-then-index order."""
        top = self.check_atom(top)
        out = []
        lo, hi = top.index, top.index + 1
        for d in range(top.depth, self.depth + 1):
            out.extend(Atom(d, i) for i in range(lo, hi))
            lo, hi = lo * self.arity, hi * self.arity
        return out

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
    # Per-generation data is a list indexed by depth; entry d has length arity**d.
    # Every kernel works on the trailing axis: leading axes are a batch of
    # independent rows, each row giving the same bytes as the call on it alone.
    def block_sums(self, leaf_values: np.ndarray) -> list[np.ndarray]:
        """Sums of a leaf array over every atom's leaf block, per generation."""
        cur = np.asarray(leaf_values, dtype=float)
        if cur.shape[-1:] != (self.n_leaves,):
            raise ValueError("leaf array has wrong length")
        lead = cur.shape[:-1]
        out: list[np.ndarray] = [None] * (self.depth + 1)  # type: ignore[list-item]
        out[self.depth] = cur
        for d in range(self.depth - 1, -1, -1):
            cur = cur.reshape(*lead, self.level_size(d), self.arity).sum(axis=-1)
            out[d] = cur
        return out

    def spread(self, values: np.ndarray, d: int) -> np.ndarray:
        """Broadcast per-atom values at generation ``d`` to the leaf array."""
        return np.repeat(np.asarray(values, dtype=float), self.arity ** (self.depth - d), axis=-1)

    def chain_sum(self, per_depth: Sequence[Optional[np.ndarray]]) -> np.ndarray:
        """Leaf array of sums over each leaf's ancestor chain.

        ``per_depth[d]`` holds the value attached to every generation-``d`` atom
        (``None`` entries are skipped).
        """
        run = np.zeros(1)
        for d in range(self.depth + 1):
            if d > 0:
                run = np.repeat(run, self.arity, axis=-1)
            vals = per_depth[d] if d < len(per_depth) else None
            if vals is not None:
                run = run + vals
        return run


def build_lattice(arity: int, depth: int, max_depth: int = MAX_DEPTH) -> Lattice:
    """Construct a lattice, rejecting unusable sizes."""
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    if not 1 <= depth <= max_depth:
        raise ValueError(f"depth must be in [1, {max_depth}], got {depth}")
    if arity ** depth > MAX_LEAVES:
        raise ValueError(f"arity**depth = {arity}**{depth} exceeds {MAX_LEAVES} leaves")
    return Lattice(arity=arity, depth=depth)
