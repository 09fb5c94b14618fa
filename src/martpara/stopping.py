"""Stopping-time constructions, Carleson constants and the decomposition replay.

Two constructions are implemented:

* the plain one selects maximal atoms of a collection whose running average
  strictly exceeds twice the reference average (criterion checked on the atom
  itself);
* the modified one selects members of a collection sitting below maximal
  internal atoms whose average weakly exceeds twice the reference average
  (criterion checked on parents, always against the original top atom).

Both run as one top-down sweep over one flat owner array (generation-major,
see ``Lattice.offsets``; the parent of flat atom k > 0 is (k - 1) // arity):
every atom inherits its parent's owner, the smallest processed atom
containing it, and a selected atom becomes the owner of its subtree.  The
members, the averages and the masses the constructions read are flat
arrays too, so every check runs as one array test over all atoms.  A
step's exhausted members come from the same sweep, and atoms or plain
(depth, index) pairs become flat positions through one checked converter.

``proof_mirror`` replays the bilinear estimate of the shifted positive
operator as a ledger of checkable identities and inequalities with explicit
constants.  Its two halves run through one per-half routine that reads
every per-atom quantity from flat edge terms built once: coefficient x
f-integral over the parent (``_edge_terms``), coefficient x g-integral over
the atom, and their product, the pairing term.  The local functions of all
processed atoms come from one top-down chain of these terms that restarts
from 0.0 under every processed atom, so each one is known on its own leaves
only: on those it owns the chain, on those of a processed atom selected
under it the chain at that atom.  Its norm and pairings are sums over
leaf-length rows, filled with the zero function's elements outside the
atom and reduced in blocks along the last axis, which gives the bytes of
the full-length ``lp_norm`` and ``np.sum`` (``_local_sums``).  The ledger's
order-pinned sums read flat positions sorted by numpy, the order of sorted
atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .lattice import Atom, Lattice, sibling_sums
from .measure import (
    Measure,
    REL_TOL,
    _averages,
    _integrals,
    _parent_integrals,
    _check_exponents,
    conjugate,
    leaf_function,
    lp_norm,
    safe_divide,
)
from .paraproduct import (
    NonnegativeCoefficients,
    _edge_terms,
    _edge_terms_adjoint,
    pairing,
    positive_apply,
)
from .testing import positive_operator_testing

#: leaf values in one block of ledger rows (one leaf-length row per top), and
#: the entries a ledger half builds at once: its scratch stays bounded however
#: many tops it has
_LEDGER_BLOCK = 1 << 13


def _check_nonnegative(lat: Lattice, f) -> np.ndarray:
    f = leaf_function(lat, f)
    if np.any(f < 0):
        raise ValueError("stopping constructions require a nonnegative function")
    return f


def _positions(lat: Lattice, atoms: Iterable[Atom]) -> np.ndarray:
    """Flat positions of atoms, in the order given, checked in one array
    test on their numbers (numpy would copy each namedtuple into a list);
    the first atom outside the lattice, in input order, fails ``Lattice.check_atom``."""
    atoms = list(atoms)
    if not atoms:
        return np.zeros(0, dtype=np.int64)
    try:
        pairs = np.array([x for a in atoms for x in a] if set(map(len, atoms)) == {2} else [])
    except (TypeError, ValueError):
        pairs = np.zeros(0)
    if pairs.dtype.kind not in "biu" or pairs.shape != (2 * len(atoms),):
        for a in atoms:
            lat.check_atom(a)
        raise TypeError("atoms must be (depth, index) pairs of integers")
    depth, index = pairs.astype(np.int64).reshape(-1, 2).T
    valid = (depth >= 0) & (depth <= lat.depth)
    sizes = np.diff(lat.offsets)
    valid &= (index >= 0) & (index < sizes[np.where(valid, depth, 0)])
    if not valid.all():
        lat.check_atom(atoms[int(np.argmin(valid))])
    return np.asarray(lat.offsets)[depth] + index


def _atoms(lat: Lattice, positions: np.ndarray) -> list[Atom]:
    """The atoms at flat positions, in the order given."""
    table = lat.flat_atoms
    return [table[k] for k in positions.tolist()]


# ---------------------------------------------------------------------------
# one generation
# ---------------------------------------------------------------------------

def stopping_generation(
    collection: Iterable[Atom], f, mu: Measure, top: Atom
) -> tuple[set[Atom], set[Atom]]:
    """One stopping generation below ``top``.

    Returns the maximal atoms of the collection inside ``top`` whose average
    strictly exceeds twice the average over ``top``, together with the
    exhausted part of the collection (members inside ``top`` not lying inside
    any selected atom).  The construction guarantees are checked: exhausted
    members stay below the threshold and the selected atoms cover less than
    half of ``top``'s mass.  This is the first step of
    ``stopping_forest(collection, f, mu, [top])``.
    """
    lat = mu.lattice
    _check_nonnegative(lat, f)  # a bad f is reported before a bad top
    top = lat.check_atom(top)
    members = list(collection)
    selected = _grow_forest(False, members, f, mu, [top]).selected[top]
    return selected, exhausted_members(lat, members, selected, top)


def modified_stopping_generation(
    members: Iterable[Atom], f, mu: Measure, top: Atom
) -> set[Atom]:
    """Stopping atoms below ``top`` for the modified construction.

    Scans top-down for maximal internal atoms with a child in the collection
    whose average weakly exceeds twice the average over the *original* ``top``;
    the children of such an atom that belong to the collection stop, the other
    children are scanned further (still against the original threshold).
    This is the first step of ``modified_stopping_forest(members, f, mu, [top])``.

    A top atom carrying no f-mass yields an empty set: zero averages make the
    weak criterion vacuous and the corresponding bilinear terms vanish anyway.
    """
    _check_nonnegative(mu.lattice, f)  # a bad f is reported before a bad top
    top = mu.lattice.check_atom(top)
    return _grow_forest(True, members, f, mu, [top]).selected[top]


def exhausted_members(
    lat: Lattice, members: Iterable[Atom], selected: Iterable[Atom], top: Atom
) -> set[Atom]:
    """Members inside ``top`` not contained in any selected atom: those the
    owner sweep from ``top`` reaches and the one from the selected atoms
    leaves without an owner."""
    at = _positions(lat, members)
    free = ((_sweep(lat, _positions(lat, [top]))[0][at] >= 0)
            & (_sweep(lat, _positions(lat, selected))[0][at] < 0))
    return set(_atoms(lat, at[free]))


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------

@dataclass
class StoppingForest:
    """Stopping atoms of all generations below a disjoint root collection.

    ``selected[J]`` records one construction step for every processed atom J
    (roots and stopping atoms); the members J's step exhausts are
    :func:`exhausted_members` of J and ``selected[J]``.
    """

    lattice: Lattice
    roots: set[Atom]
    generations: list[set[Atom]] = field(default_factory=list)
    selected: dict[Atom, set[Atom]] = field(default_factory=dict)

    @property
    def stopping_atoms(self) -> set[Atom]:
        return set().union(*self.generations)

    @property
    def processed(self) -> set[Atom]:
        return self.roots | self.stopping_atoms

    def carleson_weights(self, m: Measure) -> dict[Atom, float]:
        return {a: m.mass(a) for a in self.stopping_atoms}


# ---------------------------------------------------------------------------
# the owner sweep
# ---------------------------------------------------------------------------

def _sweep(lat: Lattice, seeds: np.ndarray, avgs=None, pick=None):
    """One top-down pass giving every atom its owner.

    Each atom inherits its parent's owner, the smallest processed atom
    containing it, and becomes its own owner when it is a seed (given by
    flat position) or when ``pick(d, owner_avg)`` selects it among the
    depth-``d`` atoms that have an owner (``owner_avg``: the average of each
    one's inherited owner, from the flat ``avgs``).  Owners are numbered:
    the seeds in the given order, then the picked atoms in (depth, index)
    order.  Returns the flat owner ids (-1 outside every seed), the owners'
    flat positions, per owner the owner it inherited (-1 for seeds) and,
    when ``avgs`` is given, per owner its average.
    """
    off, arity = lat.offsets, lat.arity
    owner = np.full(lat.n_atoms, -1)
    owner[seeds] = np.arange(len(seeds))
    tops = [seeds]
    count = len(seeds)
    source = [np.full(count, -1)]
    top_avg = None if avgs is None else avgs[seeds]
    for d in range(1, lat.depth + 1):
        inherited = np.repeat(owner[off[d - 1]:off[d]], arity)
        own = owner[off[d]:off[d + 1]]
        np.copyto(own, inherited, where=own < 0)
        if pick is not None:
            inside = inherited >= 0
            picked = np.flatnonzero(inside & pick(d, top_avg[np.where(inside, inherited, 0)]))
            own[picked] = np.arange(count, count + picked.size)
            count += picked.size
            source.append(inherited[picked])
            top_avg = np.concatenate([top_avg, avgs[off[d] + picked]])
            tops.append(off[d] + picked)
    return owner, np.concatenate(tops), np.concatenate(source), top_avg


def _check_disjoint_roots(lat: Lattice, ordered: list[Atom], at: np.ndarray) -> None:
    """A root inside another inherits an owner; name the first such pair in
    sorted order, as a pairwise scan would.  ``at``: the roots' flat positions."""
    owner, *_ = _sweep(lat, at)
    inside = np.where(at > 0, owner[(at - 1) // lat.arity], -1)  # the parent's owner
    pairs = [(ordered[k], r) for k, r in zip(inside.tolist(), ordered) if k >= 0]
    if pairs:
        a, b = min(pairs)
        raise ValueError(f"roots {a!r} and {b!r} overlap")


def _scan_positions(lat: Lattice, flipped: np.ndarray) -> np.ndarray:
    """Flat, a sort key for each atom in a depth-first scan that visits the
    children of the ``flipped`` internal atoms (a flat mask) last to first:
    the index of its leftmost leaf once those children are numbered in
    reverse.  An ancestor shares its key with the descendants the scan
    meets first, so sorting by (key, depth) gives the scan order."""
    off, arity = lat.offsets, lat.arity
    slot = np.tile(np.arange(arity), lat.n_internal)
    slot = np.where(np.repeat(flipped, arity), arity - 1 - slot, slot)
    pos = np.zeros(lat.n_atoms, dtype=np.int64)
    for d in range(1, lat.depth + 1):
        width = arity ** (lat.depth - d)
        pos[off[d]:off[d + 1]] = (np.repeat(pos[off[d - 1]:off[d]], arity)
                                  + slot[off[d] - 1:off[d + 1] - 1] * width)
    return pos


def _grow_forest(modified: bool, members: Iterable[Atom], f, mu: Measure,
                 roots: Iterable[Atom]) -> StoppingForest:
    """Both constructions in one sweep from a disjoint root collection.

    A member becomes a stopping atom, the owner of what lies below it, when
    (plain) its own average strictly exceeds twice its owner's, or
    (modified) its parent's average weakly exceeds twice its owner's, a
    nonzero one.  ``selected[J]`` are the atoms whose parent's owner is J;
    the guarantees are checked on them and on the members owned by J (the
    exhausted ones) all at once.  Generations and set contents are then
    filled in the order in which scanning top after top (sorted, generation
    by generation) from each top down would find them; the ledger sums of
    :func:`proof_mirror` add in that order.
    """
    lat = mu.lattice
    roots = {lat.check_atom(r) for r in roots}
    ordered = sorted(roots)
    root_at = _positions(lat, ordered)
    _check_disjoint_roots(lat, ordered, root_at)
    forest = StoppingForest(lattice=lat, roots=roots)
    if not roots:
        return forest
    f = _check_nonnegative(lat, f)
    # flat over the non-root atoms, atom k at k - 1: membership, and the
    # averages compared with twice the owner's
    member = np.bincount(_positions(lat, members), minlength=lat.n_atoms)[1:] > 0
    off, arity = lat.offsets, lat.arity
    avgs = _averages(f, mu)
    value = np.repeat(avgs[:lat.n_internal], arity) if modified else avgs[1:]

    def pick(d: int, owner_avg: np.ndarray) -> np.ndarray:
        gen = slice(off[d] - 1, off[d + 1] - 1)
        if modified:
            return member[gen] & (value[gen] >= 2.0 * owner_avg) & (owner_avg != 0.0)
        return member[gen] & (value[gen] > 2.0 * owner_avg)

    owner, top_at, source, top_avg = _sweep(lat, root_at, avgs, pick)
    n_roots = len(ordered)

    # members that stay with their owner stay below its threshold
    inherited = np.repeat(owner[:lat.n_internal], arity)
    owner_avg = top_avg[np.where(inherited >= 0, inherited, 0)]
    stays = member & (inherited >= 0) & (owner[1:] == inherited)
    if modified:
        stays &= owner_avg != 0.0
    over = np.flatnonzero(stays & (value > 2.0 * owner_avg * (1.0 + 1e-12)))
    if over.size:
        a = _atoms(lat, over[:1] + 1)[0]
        raise RuntimeError(
            f"parent of exhausted atom {a!r} exceeds the threshold" if modified
            else f"exhausted atom {a!r} exceeds the stopping threshold"
        )
    # the atoms selected under a top cover at most half of its mass
    top_mass = mu.flat_mass[top_at]
    covered = np.bincount(source[n_roots:], weights=top_mass[n_roots:], minlength=top_at.size)
    if np.any((top_mass > 0.0) & (covered > 0.5 * top_mass * (1.0 + 1e-12))):
        raise RuntimeError(
            "stopping atoms cover more than half of the top atom" if modified
            else "selected atoms cover at least half of the top atom"
        )

    # scan order: the plain scan meets a stopping atom itself, in leaf order;
    # the modified one adds the member children of a stopping parent in index
    # order when it meets the parent and then visits the other children last
    # to first
    picked = top_at[n_roots:]  # flat order is (depth, index) order
    key_at = (picked - 1) // arity if modified else picked
    flipped = np.zeros(lat.n_internal, dtype=bool)
    if modified:
        flipped[key_at] = True
    order = np.lexsort((picked, _scan_positions(lat, flipped)[key_at], source[n_roots:]))

    tops = _atoms(lat, top_at)
    found: list[list[Atom]] = [[] for _ in tops]
    for i in order.tolist():
        found[source[n_roots + i]].append(tops[n_roots + i])
    id_of = {t: k for k, t in enumerate(tops)}
    queue = ordered
    while queue:
        next_gen: list[Atom] = []
        for top in queue:
            selected = set(found[id_of[top]])
            forest.selected[top] = selected
            next_gen.extend(selected)
        if next_gen:
            forest.generations.append(set(next_gen))
        queue = sorted(set(next_gen))
    return forest


def stopping_forest(
    collection: Iterable[Atom], f, mu: Measure, roots: Iterable[Atom]
) -> StoppingForest:
    """Iterate the plain construction from a disjoint root collection.

    The stopping family satisfies the Carleson condition with constant 2
    (strictly below 2 on positive-mass atoms); re-check with
    :func:`carleson_constant` on ``forest.carleson_weights(mu)``.
    """
    return _grow_forest(False, set(collection), f, mu, roots)


def modified_stopping_forest(
    members: Iterable[Atom], f, mu: Measure, roots: Iterable[Atom]
) -> StoppingForest:
    """Iterate the modified construction from a disjoint root collection."""
    return _grow_forest(True, set(members), f, mu, roots)


# ---------------------------------------------------------------------------
# Carleson machinery
# ---------------------------------------------------------------------------

def carleson_constant(weights: Mapping[Atom, float], mu: Measure) -> float:
    """sup over atoms J with mu(J) > 0 of (sum of weights inside J) / mu(J);
    +inf when positive weight sits under a massless atom.  Weights must be
    nonnegative, +inf allowed (it gives +inf); nan is rejected."""
    lat = mu.lattice
    flat = np.zeros(lat.n_atoms)
    for atom, w in weights.items():
        atom = lat.check_atom(atom)
        w = float(w)
        if not w >= 0:
            raise ValueError(f"{'negative' if w < 0 else 'nan'} weight at {atom!r}")
        flat[lat.offsets[atom.depth] + atom.index] += w
    return _carleson_sup(flat, mu)


def _carleson_sup(weights: np.ndarray, mu: Measure) -> float:
    """:func:`carleson_constant` of nonnegative weights on the flat atoms
    from the root on, as many as given; the others weigh 0."""
    lat = mu.lattice
    off = lat.offsets
    totals = np.zeros(lat.n_atoms)
    totals[:weights.size] = weights
    for d in range(lat.depth - 1, -1, -1):
        totals[off[d]:off[d + 1]] += sibling_sums(totals[off[d + 1]:off[d + 2]], lat.arity)
    mass = mu.flat_mass
    if np.any((mass == 0.0) & (totals > 0.0)):
        return math.inf
    return float(safe_divide(totals, mass).max())


def carleson_embedding_check(
    weights: Mapping[Atom, float], f, p: float, mu: Measure
) -> tuple[float, float]:
    """Left side and guaranteed bound of the embedding inequality

        sum_I w_I |avg_I f|^p   <=   C * (p')^p * ||f||_p^p,

    with C the measured Carleson constant of the weights.  Returns
    (lhs, bound); the caller asserts lhs <= bound.  Overflowing p-th powers
    raise a ValueError that names p.
    """
    _check_exponents(p)
    lat = mu.lattice
    avgs = _averages(leaf_function(lat, f), mu)
    const = carleson_constant(weights, mu)
    try:
        with np.errstate(over="raise"):
            lhs = 0.0
            for w, avg in zip(weights.values(), avgs[_positions(lat, weights)].tolist()):
                lhs += float(w) * abs(avg) ** p
            bound = const * conjugate(p) ** p * lp_norm(f, p, mu) ** p
    except (FloatingPointError, OverflowError):
        raise ValueError(f"p={p} is too large: the p-th powers overflow") from None
    return lhs, bound


# ---------------------------------------------------------------------------
# the ledger's local functions
# ---------------------------------------------------------------------------

def _ledger_chain(lat: Lattice, local_terms: np.ndarray, is_top: np.ndarray,
                  on_parent: bool) -> np.ndarray:
    """Flat, the local terms (flat from generation 1) added top-down along
    every atom's ancestors, from 0.0 again under every processed atom (the
    flat mask ``is_top``).  At atom a it is the run of the processed atom J
    above a: ``(0.0 + t_1) + t_2 + ...`` over the atoms from J's child down to
    a, or with ``on_parent`` the sum at a's parent, ``((run + t_c0) + t_c1) +
    ...`` one child slot at a time; either is what J's local function holds
    on a's leaves when a is J's."""
    off, arity = lat.offsets, lat.arity
    chain = np.zeros(lat.n_atoms)
    for d in range(1, lat.depth + 1):
        run = np.where(is_top[off[d - 1]:off[d]], 0.0, chain[off[d - 1]:off[d]])
        gen = chain[off[d]:off[d + 1]]
        if on_parent:
            for j in range(arity):
                run += local_terms[off[d] - 1 + j:off[d + 1] - 1:arity]
            gen[:] = np.repeat(run, arity)
        else:
            np.add(np.repeat(run, arity), local_terms[off[d] - 1:off[d + 1] - 1], out=gen)
    return chain


def _local_sums(lat: Lattice, top_at: np.ndarray, local_terms: np.ndarray, on_parent: bool,
                fn: np.ndarray, m: Measure, e: float) -> np.ndarray:
    """Per processed atom J (flat positions ``top_at``, ascending): the sum of
    |local|^e dm, the one of local fn dm, and the latter over the leaves of
    the processed atoms selected under J, with J's local function ``local``
    built from the flat ``local_terms`` of the atoms J owns; shape (3, tops).

    J's local function is :func:`_ledger_chain` on the leaves J owns, and on
    the leaves of each processed atom J' selected under J the chain at J'
    (the run at J''s parent plus J''s own term, 0.0): J's entries sit on J's
    own leaves only.  Each row of a block starts as the elements the zero
    function gives, ``|0.0|^e m`` and ``0.0 fn m`` with their signed zeros,
    takes its top's entries, and is reduced along the last axis: a full
    leaf-length row summed in numpy's pairwise order, the bytes ``lp_norm``
    and ``np.sum`` give for the leaf-length local function.  A block holds at
    most ``_LEDGER_BLOCK`` values (or one row) and the entries are built for
    runs of at most ``_LEDGER_BLOCK`` of them (or one top) at a time.
    """
    off, arity, n = lat.offsets, lat.arity, lat.n_leaves
    n_tops = top_at.size
    is_top = np.zeros(lat.n_atoms, dtype=bool)
    is_top[top_at] = True
    chain = _ledger_chain(lat, local_terms, is_top, on_parent)
    handed = chain[top_at]  # what a top's parent top holds on the top's leaves
    chain[top_at] = 0.0  # a leaf top owns no term
    own_leaf = chain[lat.n_internal:]

    # each top's leaves, lo[k] + range(size[k]), and the top it is selected under
    depth_of = np.searchsorted(off, top_at, side="right") - 1
    size = arity ** (lat.depth - depth_of)
    lo = (top_at - np.asarray(off)[depth_of]) * size
    owner = _sweep(lat, top_at)[0]
    parent_top = np.full(n_tops, -1)
    below = top_at > 0
    parent_top[below] = owner[(top_at[below] - 1) // arity]
    ends = np.cumsum(size)

    zero_norm = np.abs(0.0) ** e * m.leaf_mass
    zero_pair = 0.0 * fn * m.leaf_mass
    zero_union = zero_pair * 0.0
    rows = min(n_tops, max(1, _LEDGER_BLOCK // n))
    block = np.empty((rows, n))
    sums = np.zeros((3, n_tops))
    c0 = 0
    while c0 < n_tops:
        # the entries of tops c0..c1-1 in row order, row r from first[r]
        before = int(ends[c0 - 1]) if c0 else 0
        c1 = max(c0 + 1, int(np.searchsorted(ends, before + _LEDGER_BLOCK, side="right")))
        span = size[c0:c1]
        first = ends[c0:c1] - span - before
        count = int(ends[c1 - 1]) - before
        leaf = np.arange(count) + np.repeat(lo[c0:c1] - first, span)
        vals = own_leaf[leaf]
        union = np.zeros(count, dtype=bool)
        sub = np.flatnonzero((parent_top >= c0) & (parent_top < c1))
        if sub.size:
            up, width = parent_top[sub], size[sub]
            at = np.arange(width.sum()) + np.repeat(
                first[up - c0] + lo[sub] - lo[up] - (np.cumsum(width) - width), width)
            vals[at] = np.repeat(handed[sub], width)
            union[at] = True
        mass = m.leaf_mass[leaf]
        weighted = vals * fn[leaf] * mass
        parts = ((zero_norm, np.abs(vals) ** e * mass), (zero_pair, weighted),
                 (zero_union, weighted * union))
        dest = np.repeat(np.arange(c1 - c0) % rows * n, span) + leaf
        for b0 in range(c0, c1, rows):
            b1 = min(b0 + rows, c1)
            e0 = first[b0 - c0]
            e1 = first[b1 - c0] if b1 < c1 else count
            rows_b = block[:b1 - b0]
            for k, (zero, entries) in enumerate(parts):
                rows_b[...] = zero
                np.put(rows_b, dest[e0:e1], entries[e0:e1])
                sums[k, b0:b1] = np.add.reduce(rows_b, axis=-1)
        c0 = c1
    return sums


# ---------------------------------------------------------------------------
# splitting and the decomposition replay
# ---------------------------------------------------------------------------

def split_collections(
    f, g, p: float, mu: Measure, nu: Measure
) -> tuple[set[Atom], set[Atom]]:
    """Partition all atoms by comparing avg(f)^p mu(I) against avg(g)^{p'} nu(I);
    ties go to the first collection."""
    _check_exponents(p)
    lat = mu.lattice
    f = _check_nonnegative(lat, f)
    g = _check_nonnegative(lat, g)
    in_first = _first_collection(_averages(f, mu), _averages(g, nu), p, mu, nu)
    return (set(_atoms(lat, np.flatnonzero(in_first))),
            set(_atoms(lat, np.flatnonzero(~in_first))))


def _first_collection(avg_f: np.ndarray, avg_g: np.ndarray, p: float, mu: Measure,
                      nu: Measure) -> np.ndarray:
    """Flat mask of :func:`split_collections`' first collection, from the
    flat averages of f w.r.t. mu and of g w.r.t. nu."""
    return avg_f ** p * mu.flat_mass >= avg_g ** conjugate(p) * nu.flat_mass


@dataclass
class InequalityCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + REL_TOL * max(abs(self.rhs), 1.0)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.ok,
        }


@dataclass
class HalfReport:
    """One half of the splitting: its stopping forest and the tracked sums."""

    forest: StoppingForest
    local_sum: float            # sum over processed atoms of the local pairings
    stopping_sum: float         # direct terms of the stopping atoms
    per_atom_plain: dict[Atom, float]    # pairing over J minus the selected union
    per_atom_stopped: dict[Atom, float]  # pairing over the selected union

    @property
    def total(self) -> float:
        return self.local_sum + self.stopping_sum


@dataclass
class DecompositionReport:
    first: set[Atom]
    second: set[Atom]
    pairing_value: float
    t1: float
    t2: float
    half1: HalfReport
    half2: HalfReport
    checks: list[InequalityCheck]

    @property
    def passed(self) -> bool:
        ident = abs(self.t1 + self.t2 - self.pairing_value) <= 1e-10 * max(
            abs(self.pairing_value), 1.0
        )
        return ident and all(c.ok for c in self.checks)

    def as_dicts(self) -> list[dict]:
        return [c.as_dict() for c in self.checks]


def normalize_for_mirror(
    alpha: NonnegativeCoefficients, f, g, p: float, mu: Measure, nu: Measure
) -> tuple[NonnegativeCoefficients, np.ndarray, np.ndarray]:
    """Rescale inputs into the normalized regime of the decomposition proof:
    unit norms for f and g, coefficients scaled so both testing constants are
    at most one."""
    _check_exponents(p)
    lat = mu.lattice
    f = _check_nonnegative(lat, f)
    g = _check_nonnegative(lat, g)
    nf = lp_norm(f, p, mu)
    ng = lp_norm(g, conjugate(p), nu)
    if nf == 0.0 or ng == 0.0:
        raise ValueError("cannot normalize a function with zero norm")
    b, b_star = positive_operator_testing(alpha, p, mu, nu)
    top = max(b, b_star)
    if not math.isfinite(top):
        raise ValueError("testing constants are infinite; instance cannot be normalized")
    if top > 0.0:
        alpha = NonnegativeCoefficients._of(lat, alpha._flat / top)
    return alpha, f / nf, g / ng


def proof_mirror(
    alpha: NonnegativeCoefficients,
    f,
    g,
    p: float,
    mu: Measure,
    nu: Measure,
) -> DecompositionReport:
    """Replay the bilinear estimate of the shifted positive operator.

    Splits the pairing into the two halves given by :func:`split_collections`,
    runs the modified construction (w.r.t. mu and f) on the first half and the
    plain construction (w.r.t. nu and g) on the second, and records every
    identity and inequality of the decomposition with its explicit constant.

    Inputs must already be normalized, see :func:`normalize_for_mirror`.
    """
    lat = mu.lattice
    f = _check_nonnegative(lat, f)
    g = _check_nonnegative(lat, g)
    p_prime = conjugate(p)  # checks p
    tol = 1e-9
    if abs(lp_norm(f, p, mu) - 1.0) > tol or abs(lp_norm(g, p_prime, nu) - 1.0) > tol:
        raise ValueError("f and g must have unit norms; normalize first")
    b, b_star = positive_operator_testing(alpha, p, mu, nu)
    if max(b, b_star) > 1.0 + tol:
        raise ValueError("testing constants exceed 1; rescale the coefficients first")

    avg_f = _averages(f, mu)
    avg_g = _averages(g, nu)
    in_first = _first_collection(avg_f, avg_g, p, mu, nu)
    first_at, second_at = np.flatnonzero(in_first), np.flatnonzero(~in_first)
    first, second = set(_atoms(lat, first_at)), set(_atoms(lat, second_at))
    pairing_value = pairing(positive_apply(alpha, f, mu), g, nu)

    # flat terms over the atoms, generation-major and 0.0 at the root: each
    # atom's edge coefficient (coef) times the f-integral over its parent
    # (edge_f, from generation 1) and times the g-integral over itself
    # (edge_g, from generation 1), and their product, its pairing term.
    # Per-atom reads gather the positions they need and go through Python
    # floats (``tolist``), so that every ``** p`` below is a Python power.
    off, arity = lat.offsets, lat.arity
    ints_g = _integrals(g, nu)[1:]
    coefs = alpha._flat.reshape(-1)
    edge_f = _edge_terms(alpha._flat, _parent_integrals(f, mu))
    edge_g = coefs * ints_g
    terms = np.concatenate(([0.0], edge_f * ints_g))
    coef = np.concatenate(([0.0], coefs))

    # Carleson sequence of the direct-term lemma: one weight per internal atom
    integs = _edge_terms_adjoint(alpha._flat ** p, nu.flat_mass[1:])
    lemma_weights = integs * mu.flat_mass[:lat.n_internal] ** p
    heavy = np.flatnonzero(lemma_weights)
    lemma_embed = sum(
        w * abs(a) ** p for a, w in zip(avg_f[heavy].tolist(), lemma_weights[heavy].tolist())
    )
    lemma_carleson = _carleson_sup(lemma_weights, mu)
    lemma = [
        InequalityCheck("carleson-sequence", lemma_carleson, 1.0 + 1e-12),
        InequalityCheck("lemma-embedding-bound", lemma_embed, p_prime ** p),
    ]

    def half(label, member_at, forest, own, other, on_parent, direct_bound, interlude):
        """One half of the splitting: its total, its report and its checks.

        ``own`` is (flat averages, flat masses, exponent e) of the function
        and measure the construction ran on, ``other`` (function, measure,
        e') of the ones it pairs with.  A member owned by a processed atom J
        (the smallest one containing it, not itself) puts its local term into
        J's local function: edge_f on its own leaves, or with ``on_parent``
        edge_g on its parent's leaves.  Its e-norm w.r.t. the other measure
        is checked against 2 avg(J) mass(J)^(1/e).  The direct terms of the
        stopping atoms are bounded via the lemma with the own function's
        y-factor: in the first half the splitting condition gives
        avg_g^{p'} nu <= avg_f^p mu on them.

        The local functions, their norms and pairings come from
        :func:`_local_sums`, one row per processed atom.
        """
        avg_own, mass_own, e = own
        fn_other, m_other, e_conj = other
        processed_at = _positions(lat, forest.processed)
        top_at = np.sort(processed_at)  # sorted atoms are in flat order
        tops = _atoms(lat, top_at)
        owned = np.zeros(lat.n_atoms, dtype=bool)
        owned[member_at] = True
        owned[top_at] = False
        local_terms = np.where(owned[1:], edge_g if on_parent else edge_f, 0.0)
        sums = _local_sums(lat, top_at, local_terms, on_parent, fn_other, m_other, e)

        checks: list[InequalityCheck] = []
        per_plain: dict[Atom, float] = {}
        per_stopped: dict[Atom, float] = {}
        local_sum = 0.0
        for top, norm_e, contrib, inner, avg_top, mass_top in zip(
                tops, sums[0], sums[1].tolist(), sums[2].tolist(),
                avg_own[top_at].tolist(), mass_own[top_at].tolist()):
            checks.append(InequalityCheck(
                f"{label}-local-norm({top.depth},{top.index})", float(norm_e ** (1.0 / e)),
                2.0 * avg_top * mass_top ** (1.0 / e),
            ))
            local_sum += contrib
            per_plain[top] = contrib - inner
            per_stopped[top] = inner

        # sum() and += loops are not interchangeable: from Python 3.12 on,
        # sum() of floats is compensated, and the ledger bytes are pinned by
        # the per-atom oracle in tests/oracles.py.  Sorted atoms are in flat
        # order.
        stopping = forest.stopping_atoms
        stop_at = _positions(lat, stopping)
        stopping_sum = 0.0
        for term in terms[np.sort(stop_at)].tolist():
            stopping_sum += term
        report = HalfReport(forest, local_sum, stopping_sum, per_plain, per_stopped)
        total = sum(terms[member_at[member_at > 0]].tolist())
        embed = sum(a ** e * m for a, m in zip(avg_own[processed_at].tolist(),
                                              mass_own[processed_at].tolist()))
        checks += [
            InequalityCheck(f"{label}-splitting-identity", abs(total - report.total),
                            1e-10 * max(abs(total), 1.0)),
            InequalityCheck(f"{label}-plain-sum", sum(per_plain.values()),
                            2.0 ** (1.0 + 1.0 / e) * e_conj),
            InequalityCheck(f"{label}-stopped-sum", sum(per_stopped.values()), 4.0 * e_conj ** e),
            InequalityCheck(f"{label}-embedding", embed, 2.0 * e_conj ** e),
            *interlude,
        ]
        s2 = x_term = y_term = 0.0
        up = (stop_at - 1) // arity
        for term, a_f, c, m_up, m_nu, a_own, m_own in zip(
                terms[stop_at].tolist(), avg_f[up].tolist(), coef[stop_at].tolist(),
                mu.flat_mass[up].tolist(), nu.flat_mass[stop_at].tolist(),
                avg_own[stop_at].tolist(), mass_own[stop_at].tolist()):
            s2 += term
            x_term += a_f ** p * c ** p * m_up ** p * m_nu
            y_term += a_own ** e * m_own
        checks += [
            InequalityCheck(f"{label}-direct-hoelder", s2,
                            x_term ** (1.0 / p) * y_term ** (1.0 / p_prime)),
            InequalityCheck(f"{label}-direct-lemma", x_term, lemma_embed + 1e-12),
            InequalityCheck(f"{label}-direct-bound", s2, direct_bound),
        ]
        return total, report, checks

    root = [lat.root]
    t1, half1, checks1 = half(
        "t1", first_at, modified_stopping_forest(first, f, mu, root), (avg_f, mu.flat_mass, p),
        (g, nu, p_prime), on_parent=False,
        direct_bound=2.0 ** (1.0 / p_prime) * p_prime ** p, interlude=lemma,
    )
    t2, half2, checks2 = half(
        "t2", second_at, stopping_forest(second, g, nu, root), (avg_g, nu.flat_mass, p_prime),
        (f, mu, p), on_parent=True,
        direct_bound=2.0 ** (1.0 / p_prime) * p_prime * p, interlude=[],
    )
    identity = InequalityCheck(
        "pairing-identity", abs(t1 + t2 - pairing_value), 1e-10 * max(abs(pairing_value), 1.0)
    )
    return DecompositionReport(
        first=first,
        second=second,
        pairing_value=pairing_value,
        t1=t1,
        t2=t2,
        half1=half1,
        half2=half2,
        checks=[identity] + checks1 + checks2,
    )
