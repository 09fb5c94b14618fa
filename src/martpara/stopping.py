"""Stopping-time constructions, Carleson constants and the decomposition replay.

Two constructions are implemented:

* the plain one selects maximal atoms of a collection whose running average
  strictly exceeds twice the reference average (criterion checked on the atom
  itself);
* the modified one selects members of a collection sitting below maximal
  internal atoms whose average weakly exceeds twice the reference average
  (criterion checked on parents, always against the original top atom).

Both run as one top-down sweep over per-level arrays: every atom inherits
its parent's owner, the smallest processed atom containing it, and a
selected atom becomes the owner of its subtree.

``proof_mirror`` replays the bilinear estimate of the shifted positive
operator as a ledger of checkable identities and inequalities with explicit
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .lattice import Atom, Lattice
from .measure import (
    Measure,
    REL_TOL,
    atom_averages,
    atom_integrals,
    conjugate,
    leaf_function,
    lp_norm,
    safe_divide,
)
from .paraproduct import NonnegativeCoefficients, pairing, positive_apply
from .testing import positive_operator_testing


def _check_nonnegative(lat: Lattice, f) -> np.ndarray:
    f = leaf_function(lat, f)
    if np.any(f < 0):
        raise ValueError("stopping constructions require a nonnegative function")
    return f


def _avg(avgs: list[np.ndarray], atom: Atom) -> float:
    return float(avgs[atom.depth][atom.index])


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
    _check_nonnegative(mu.lattice, f)  # a bad f is reported before a bad top
    top = mu.lattice.check_atom(top)
    forest = _grow_forest(False, collection, f, mu, [top])
    return forest.selected[top], forest.exhausted[top]


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
    lat: Lattice, members: set[Atom], selected: set[Atom], top: Atom
) -> set[Atom]:
    """Members inside ``top`` not contained in any selected atom, found by
    walking up from each member to the root."""
    out = set()
    for a in members:
        if not lat.contains(top, a):
            continue
        cur = a
        while cur not in selected and cur.depth > 0:
            cur = Atom(cur.depth - 1, cur.index // lat.arity)
        if cur not in selected:
            out.add(a)
    return out


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------

@dataclass
class StoppingForest:
    """Stopping atoms of all generations below a disjoint root collection.

    ``selected[J]`` / ``exhausted[J]`` record one construction step for every
    processed atom J (roots and stopping atoms).
    """

    lattice: Lattice
    roots: set[Atom]
    generations: list[set[Atom]] = field(default_factory=list)
    selected: dict[Atom, set[Atom]] = field(default_factory=dict)
    exhausted: dict[Atom, set[Atom]] = field(default_factory=dict)

    @property
    def stopping_atoms(self) -> set[Atom]:
        out: set[Atom] = set()
        for gen in self.generations:
            out |= gen
        return out

    @property
    def processed(self) -> set[Atom]:
        return self.roots | self.stopping_atoms

    def carleson_weights(self, m: Measure) -> dict[Atom, float]:
        return {a: m.mass(a) for a in self.stopping_atoms}


# ---------------------------------------------------------------------------
# the owner sweep
# ---------------------------------------------------------------------------

def _sweep(lat: Lattice, seeds: list[Atom], avgs=None, pick=None):
    """One top-down pass giving every atom its owner.

    Each atom inherits its parent's owner, the smallest processed atom
    containing it, and becomes its own owner when it is a seed or when
    ``pick(d, owner_avg)`` selects it among the depth-``d`` atoms that have an
    owner (``owner_avg``: the average of each one's inherited owner).  Owners
    are numbered: the seeds in the given order, then the picked atoms in
    (depth, index) order.  Returns the per-level owner ids (-1 outside every
    seed), the owner atoms, per owner the owner it inherited (-1 for seeds)
    and, when ``avgs`` is given, per owner its average.
    """
    seeds_at: list[list[tuple[int, int]]] = [[] for _ in range(lat.depth + 1)]
    for k, s in enumerate(seeds):
        seeds_at[s.depth].append((s.index, k))
    tops = list(seeds)
    source = [np.full(len(tops), -1)]
    top_avg = None if avgs is None else np.array([_avg(avgs, s) for s in seeds])
    owner: list[np.ndarray] = []
    for d in range(lat.depth + 1):
        inherited = np.repeat(owner[-1], lat.arity) if d else np.full(1, -1)
        own = inherited.copy()
        for i, k in seeds_at[d]:
            own[i] = k
        if pick is not None and d:
            inside = inherited >= 0
            picked = np.flatnonzero(inside & pick(d, top_avg[np.where(inside, inherited, 0)]))
            own[picked] = np.arange(len(tops), len(tops) + picked.size)
            source.append(inherited[picked])
            top_avg = np.concatenate([top_avg, avgs[d][picked]])
            tops.extend(Atom(d, i) for i in picked.tolist())
        owner.append(own)
    return owner, tops, np.concatenate(source), top_avg


def _check_disjoint_roots(lat: Lattice, ordered: list[Atom]) -> None:
    """A root inside another inherits an owner; name the first such pair in
    sorted order, as a pairwise scan would."""
    owner, *_ = _sweep(lat, ordered)
    pairs = []
    for r in ordered:
        k = owner[r.depth - 1][r.index // lat.arity] if r.depth else -1
        if k >= 0:
            pairs.append((ordered[k], r))
    if pairs:
        a, b = min(pairs)
        raise ValueError(f"roots {a!r} and {b!r} overlap")


def _scan_positions(lat: Lattice, flipped: list[np.ndarray]) -> list[np.ndarray]:
    """Per level, a sort key for each atom in a depth-first scan that visits
    the children of ``flipped`` atoms last to first: the index of its
    leftmost leaf once those children are numbered in reverse.  An ancestor
    shares its key with the descendants the scan meets first, so sorting by
    (key, depth) gives the scan order."""
    digit = np.arange(lat.arity)
    pos = [np.zeros(1, dtype=np.int64)]
    for d in range(1, lat.depth + 1):
        rev = np.repeat(flipped[d - 1], lat.arity)
        k = np.tile(digit, lat.level_size(d - 1))
        pos.append(np.repeat(pos[-1], lat.arity) * lat.arity + np.where(rev, lat.arity - 1 - k, k))
    return [p * lat.arity ** (lat.depth - d) for d, p in enumerate(pos)]


def _grow_forest(modified: bool, members: Iterable[Atom], f, mu: Measure,
                 roots: Iterable[Atom]) -> StoppingForest:
    """Both constructions in one sweep from a disjoint root collection.

    A member becomes a stopping atom, the owner of what lies below it, when
    (plain) its own average strictly exceeds twice its owner's, or
    (modified) its parent's average weakly exceeds twice its owner's, a
    nonzero one.  ``selected[J]`` are the atoms whose parent's owner is J,
    ``exhausted[J]`` the members owned by J; the guarantees are checked on
    all of them at once.  Generations and set contents are then filled in
    the order in which scanning top after top (sorted, generation by
    generation) from each top down would find them; the ledger sums of
    :func:`proof_mirror` add in that order.
    """
    lat = mu.lattice
    roots = {lat.check_atom(r) for r in roots}
    ordered = sorted(roots)
    _check_disjoint_roots(lat, ordered)
    forest = StoppingForest(lattice=lat, roots=roots)
    if not roots:
        return forest
    f = _check_nonnegative(lat, f)
    member_atoms = [lat.check_atom(a) for a in members]
    member = [np.zeros(lat.level_size(d), dtype=bool) for d in range(lat.depth + 1)]
    for a in member_atoms:
        member[a.depth][a.index] = True
    avgs = atom_averages(f, mu)
    arity = lat.arity

    def value(d: int) -> np.ndarray:
        """The averages compared with twice the owner's at depth d."""
        return np.repeat(avgs[d - 1], arity) if modified else avgs[d]

    def pick(d: int, owner_avg: np.ndarray) -> np.ndarray:
        if modified:
            return member[d] & (value(d) >= 2.0 * owner_avg) & (owner_avg != 0.0)
        return member[d] & (value(d) > 2.0 * owner_avg)

    owner, tops, source, top_avg = _sweep(lat, ordered, avgs, pick)
    n_roots = len(ordered)

    # members that stay with their owner stay below its threshold
    for d in range(1, lat.depth + 1):
        inherited = np.repeat(owner[d - 1], arity)
        owner_avg = top_avg[np.where(inherited >= 0, inherited, 0)]
        stays = member[d] & (inherited >= 0) & (owner[d] == inherited)
        if modified:
            stays &= owner_avg != 0.0
        over = np.flatnonzero(stays & (value(d) > 2.0 * owner_avg * (1.0 + 1e-12)))
        if over.size:
            a = Atom(d, int(over[0]))
            raise RuntimeError(
                f"parent of exhausted atom {a!r} exceeds the threshold" if modified
                else f"exhausted atom {a!r} exceeds the stopping threshold"
            )
    # the atoms selected under a top cover at most half of its mass
    top_mass = np.array([mu.level_mass[t.depth][t.index] for t in tops])
    covered = np.bincount(source[n_roots:], weights=top_mass[n_roots:], minlength=len(tops))
    if np.any((top_mass > 0.0) & (covered > 0.5 * top_mass * (1.0 + 1e-12))):
        raise RuntimeError(
            "stopping atoms cover more than half of the top atom" if modified
            else "selected atoms cover at least half of the top atom"
        )

    # scan order: the plain scan meets a stopping atom itself, in leaf order;
    # the modified one adds the member children of a stopping parent in index
    # order when it meets the parent and then visits the other children last
    # to first
    picked = np.array(tops[n_roots:], dtype=np.int64).reshape(-1, 2)
    depth, index = picked[:, 0], picked[:, 1]
    flipped = [np.zeros(lat.level_size(d), dtype=bool) for d in range(lat.depth)]
    if modified:
        depth, index = depth - 1, index // arity
        for d in range(lat.depth):
            flipped[d][index[depth == d]] = True
    pos = np.concatenate(_scan_positions(lat, flipped))
    level_start = np.cumsum([0] + [lat.level_size(d) for d in range(lat.depth)])
    order = np.lexsort((picked[:, 1], depth, pos[level_start[depth] + index], source[n_roots:]))

    found: list[list[Atom]] = [[] for _ in tops]
    for i in order.tolist():
        found[source[n_roots + i]].append(tops[n_roots + i])
    exhausted: list[set[Atom]] = [set() for _ in tops]
    for a in member_atoms:
        k = owner[a.depth][a.index]
        if k >= 0:
            exhausted[k].add(a)
    id_of = {t: k for k, t in enumerate(tops)}
    queue = ordered
    while queue:
        next_gen: list[Atom] = []
        for top in queue:
            selected = set(found[id_of[top]])
            forest.selected[top] = selected
            forest.exhausted[top] = exhausted[id_of[top]]
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
    +inf when positive weight sits under a massless atom."""
    lat = mu.lattice
    levels = [np.zeros(lat.level_size(d)) for d in range(lat.depth + 1)]
    for atom, w in weights.items():
        atom = lat.check_atom(atom)
        w = float(w)
        if w < 0:
            raise ValueError(f"negative weight at {atom!r}")
        levels[atom.depth][atom.index] += w
    totals = [lvl.copy() for lvl in levels]
    for d in range(lat.depth - 1, -1, -1):
        totals[d] += totals[d + 1].reshape(-1, lat.arity).sum(axis=1)
    best = 0.0
    for d in range(lat.depth + 1):
        mass = mu.level_mass[d]
        if np.any((mass == 0.0) & (totals[d] > 0.0)):
            return math.inf
        ratios = safe_divide(totals[d], mass)
        if ratios.size:
            best = max(best, float(ratios.max()))
    return best


def carleson_embedding_check(
    weights: Mapping[Atom, float], f, p: float, mu: Measure
) -> tuple[float, float]:
    """Left side and guaranteed bound of the embedding inequality

        sum_I w_I |avg_I f|^p   <=   C * (p')^p * ||f||_p^p,

    with C the measured Carleson constant of the weights.  Returns
    (lhs, bound); the caller asserts lhs <= bound.
    """
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    avgs = atom_averages(f, mu)
    lhs = 0.0
    for atom, w in weights.items():
        atom = mu.lattice.check_atom(atom)
        lhs += float(w) * abs(_avg(avgs, atom)) ** p
    const = carleson_constant(weights, mu)
    bound = const * conjugate(p) ** p * lp_norm(f, p, mu) ** p
    return lhs, bound


# ---------------------------------------------------------------------------
# splitting and the decomposition replay
# ---------------------------------------------------------------------------

def split_collections(
    f, g, p: float, mu: Measure, nu: Measure
) -> tuple[set[Atom], set[Atom]]:
    """Partition all atoms by comparing avg(f)^p mu(I) against avg(g)^{p'} nu(I);
    ties go to the first collection."""
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    lat = mu.lattice
    f = _check_nonnegative(lat, f)
    g = _check_nonnegative(lat, g)
    p_prime = conjugate(p)
    avg_f = atom_averages(f, mu)
    avg_g = atom_averages(g, nu)
    first: set[Atom] = set()
    second: set[Atom] = set()
    for d in range(lat.depth + 1):
        lhs = avg_f[d] ** p * mu.level_mass[d]
        rhs = avg_g[d] ** p_prime * nu.level_mass[d]
        in_first = lhs >= rhs
        first.update(Atom(d, i) for i in np.flatnonzero(in_first).tolist())
        second.update(Atom(d, i) for i in np.flatnonzero(~in_first).tolist())
    return first, second


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
        alpha = NonnegativeCoefficients(
            lat, [alpha.level(d) / top for d in range(lat.depth)]
        )
    return alpha, f / nf, g / ng


def _edge_coefficient(lat: Lattice, alpha: NonnegativeCoefficients, atom: Atom) -> float:
    parent = lat.parent(atom)
    return float(alpha.level(parent.depth)[parent.index, atom.index % lat.arity])


def _assign_to_forest(
    lat: Lattice, forest: StoppingForest, atoms: set[Atom]
) -> dict[Atom, set[Atom]]:
    """Group atoms by the smallest processed forest atom containing each; this
    reproduces the exhausted-collection partition of the decomposition."""
    owner, tops, *_ = _sweep(lat, sorted(forest.processed))
    groups: dict[Atom, set[Atom]] = {top: set() for top in tops}
    for a in atoms:
        k = owner[a.depth][a.index]
        if k >= 0:  # outside every root otherwise; contributes nothing here
            groups[tops[k]].add(a)
    return groups


def _mirror_half(
    lat: Lattice,
    alpha: NonnegativeCoefficients,
    members: set[Atom],
    forest: StoppingForest,
    *,
    ints_f: list[np.ndarray],
    ints_g: list[np.ndarray],
    avg_ref: list[np.ndarray],
    ref_measure: Measure,
    ref_exp: float,
    pair_fn: np.ndarray,
    pair_measure: Measure,
    local_on_child: bool,
    label: str,
    checks: list[InequalityCheck],
) -> HalfReport:
    """Assemble the local step functions of one half and check their norms.

    With ``local_on_child`` the local function of a processed atom J collects
    coefficient * (f-integral over the parent) on each assigned member atom;
    otherwise it collects coefficient * (g-integral over the member) on the
    member's parent.  Either way it is supported inside J and its
    ``ref_exp``-norm w.r.t. the pairing measure is checked against
    2 * avg_ref(J) * ref_mass(J)^(1/ref_exp).
    """
    stopping = forest.stopping_atoms
    nonroot = {a for a in members if a.depth > 0}
    groups = _assign_to_forest(lat, forest, nonroot - stopping)

    per_plain: dict[Atom, float] = {}
    per_stopped: dict[Atom, float] = {}
    local_sum = 0.0
    for top in sorted(forest.processed):
        local = np.zeros(lat.n_leaves)
        for a in sorted(groups[top]):
            parent = lat.parent(a)
            coef = _edge_coefficient(lat, alpha, a)
            if local_on_child:
                local[lat.leaf_slice(a)] += coef * float(ints_f[parent.depth][parent.index])
            else:
                local[lat.leaf_slice(parent)] += coef * float(ints_g[a.depth][a.index])
        norm_val = lp_norm(local, ref_exp, pair_measure)
        bound = 2.0 * _avg(avg_ref, top) * ref_measure.mass(top) ** (1.0 / ref_exp)
        checks.append(
            InequalityCheck(f"{label}-local-norm({top.depth},{top.index})", norm_val, bound)
        )
        contrib = float(np.sum(local * pair_fn * pair_measure.leaf_mass))
        local_sum += contrib
        union = np.zeros(lat.n_leaves)  # indicator of the atoms selected under top
        for s in forest.selected[top]:
            union[lat.leaf_slice(s)] = 1.0
        inner = float(np.sum(local * pair_fn * pair_measure.leaf_mass * union))
        per_plain[top] = contrib - inner
        per_stopped[top] = inner

    stopping_sum = 0.0
    for atom in sorted(stopping):
        parent = lat.parent(atom)
        stopping_sum += (
            _edge_coefficient(lat, alpha, atom)
            * float(ints_f[parent.depth][parent.index])
            * float(ints_g[atom.depth][atom.index])
        )
    return HalfReport(
        forest=forest,
        local_sum=local_sum,
        stopping_sum=stopping_sum,
        per_atom_plain=per_plain,
        per_atom_stopped=per_stopped,
    )


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
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    p_prime = conjugate(p)
    tol = 1e-9
    if abs(lp_norm(f, p, mu) - 1.0) > tol or abs(lp_norm(g, p_prime, nu) - 1.0) > tol:
        raise ValueError("f and g must have unit norms; normalize first")
    b, b_star = positive_operator_testing(alpha, p, mu, nu)
    if max(b, b_star) > 1.0 + tol:
        raise ValueError("testing constants exceed 1; rescale the coefficients first")

    first, second = split_collections(f, g, p, mu, nu)
    pairing_value = pairing(positive_apply(alpha, f, mu), g, nu)

    ints_f = atom_integrals(f, mu)
    ints_g = atom_integrals(g, nu)
    avg_f = atom_averages(f, mu)
    avg_g = atom_averages(g, nu)
    root = lat.root

    def half_total(atoms: set[Atom]) -> float:
        return sum(
            _edge_coefficient(lat, alpha, a)
            * float(ints_f[a.depth - 1][a.index // lat.arity])
            * float(ints_g[a.depth][a.index])
            for a in sorted(atoms)
            if a.depth > 0
        )

    t1 = half_total(first)
    t2 = half_total(second)

    checks: list[InequalityCheck] = []
    checks.append(
        InequalityCheck(
            "pairing-identity",
            abs(t1 + t2 - pairing_value),
            1e-10 * max(abs(pairing_value), 1.0),
        )
    )

    # ---- first half: modified construction w.r.t. (mu, f) -------------------
    forest1 = modified_stopping_forest(first, f, mu, [root])
    half1 = _mirror_half(
        lat, alpha, first, forest1,
        ints_f=ints_f, ints_g=ints_g,
        avg_ref=avg_f, ref_measure=mu, ref_exp=p,
        pair_fn=g, pair_measure=nu,
        local_on_child=True,
        label="t1",
        checks=checks,
    )
    checks.append(
        InequalityCheck(
            "t1-splitting-identity", abs(t1 - half1.total), 1e-10 * max(abs(t1), 1.0)
        )
    )
    checks.append(
        InequalityCheck(
            "t1-plain-sum", sum(half1.per_atom_plain.values()),
            2.0 ** (1.0 + 1.0 / p) * p_prime,
        )
    )
    checks.append(
        InequalityCheck(
            "t1-stopped-sum", sum(half1.per_atom_stopped.values()), 4.0 * p_prime ** p
        )
    )
    embed1 = sum(_avg(avg_f, J) ** p * mu.mass(J) for J in forest1.processed)
    checks.append(InequalityCheck("t1-embedding", embed1, 2.0 * p_prime ** p))

    # Carleson sequence of the direct-term lemma: one weight per internal atom
    lemma_weights: dict[Atom, float] = {}
    for d in range(lat.depth):
        nu_child = nu.level_mass[d + 1].reshape(-1, lat.arity)
        w = (alpha.level(d) ** p * nu_child).sum(axis=1) * mu.level_mass[d] ** p
        for i in np.nonzero(w)[0]:
            lemma_weights[Atom(d, int(i))] = float(w[i])
    checks.append(
        InequalityCheck(
            "carleson-sequence", carleson_constant(lemma_weights, mu), 1.0 + 1e-12
        )
    )
    lemma_embed = sum(w * abs(_avg(avg_f, a)) ** p for a, w in lemma_weights.items())
    checks.append(InequalityCheck("lemma-embedding-bound", lemma_embed, p_prime ** p))

    def direct_chain(forest: StoppingForest, avg_other, other_exp, other_measure, label):
        s2 = 0.0
        x_term = 0.0
        y_term = 0.0
        for atom in forest.stopping_atoms:
            parent = lat.parent(atom)
            a = _edge_coefficient(lat, alpha, atom)
            s2 += (
                a
                * float(ints_f[parent.depth][parent.index])
                * float(ints_g[atom.depth][atom.index])
            )
            x_term += (
                _avg(avg_f, parent) ** p * a ** p * mu.mass(parent) ** p * nu.mass(atom)
            )
            y_term += _avg(avg_other, atom) ** other_exp * other_measure.mass(atom)
        checks.append(
            InequalityCheck(
                f"{label}-direct-hoelder",
                s2,
                x_term ** (1.0 / p) * y_term ** (1.0 / p_prime),
            )
        )
        checks.append(
            InequalityCheck(f"{label}-direct-lemma", x_term, lemma_embed + 1e-12)
        )
        return s2

    # first half uses the splitting condition on its stopping atoms:
    # avg_g^{p'} nu <= avg_f^p mu there, so the y-factor is the f-version
    s2_first = direct_chain(forest1, avg_f, p, mu, "t1")
    checks.append(
        InequalityCheck("t1-direct-bound", s2_first, 2.0 ** (1.0 / p_prime) * p_prime ** p)
    )

    # ---- second half: plain construction w.r.t. (nu, g) ---------------------
    forest2 = stopping_forest(second, g, nu, [root])
    half2 = _mirror_half(
        lat, alpha, second, forest2,
        ints_f=ints_f, ints_g=ints_g,
        avg_ref=avg_g, ref_measure=nu, ref_exp=p_prime,
        pair_fn=f, pair_measure=mu,
        local_on_child=False,
        label="t2",
        checks=checks,
    )
    checks.append(
        InequalityCheck(
            "t2-splitting-identity", abs(t2 - half2.total), 1e-10 * max(abs(t2), 1.0)
        )
    )
    checks.append(
        InequalityCheck(
            "t2-plain-sum", sum(half2.per_atom_plain.values()),
            2.0 ** (1.0 + 1.0 / p_prime) * p,
        )
    )
    checks.append(
        InequalityCheck(
            "t2-stopped-sum", sum(half2.per_atom_stopped.values()), 4.0 * p ** p_prime
        )
    )
    embed2 = sum(_avg(avg_g, J) ** p_prime * nu.mass(J) for J in forest2.processed)
    checks.append(InequalityCheck("t2-embedding", embed2, 2.0 * p ** p_prime))

    s2_second = direct_chain(forest2, avg_g, p_prime, nu, "t2")
    checks.append(
        InequalityCheck(
            "t2-direct-bound", s2_second, 2.0 ** (1.0 / p_prime) * p_prime * p
        )
    )

    return DecompositionReport(
        first=first,
        second=second,
        pairing_value=pairing_value,
        t1=t1,
        t2=t2,
        half1=half1,
        half2=half2,
        checks=checks,
    )
