import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from martpara import (
    Measure,
    NonnegativeCoefficients,
    average,
    build_lattice,
    carleson_constant,
    carleson_embedding_check,
    conjugate,
    generate_random_instance,
    lp_norm,
    modified_stopping_forest,
    modified_stopping_generation,
    normalize_for_mirror,
    proof_mirror,
    split_collections,
    stopping_forest,
    stopping_generation,
)
import martpara.cli
import martpara.stopping
from martpara.lattice import Atom
from martpara.stopping import exhausted_members

from helpers import random_setup
from oracles import (
    naive_carleson_constant,
    naive_exhausted_members,
    naive_modified_stopping_forest,
    naive_modified_stopping_generation,
    naive_proof_mirror,
    naive_stopping_forest,
    naive_stopping_generation,
)


def depth2_setup():
    lat = build_lattice(2, 2)
    mu = Measure(lat, np.full(4, 0.25))
    f = np.array([8.0, 4.0, 0.0, 0.0])
    return lat, mu, f


def test_stopping_generation_worked_example():
    lat, mu, f = depth2_setup()
    selected, exhausted = stopping_generation(set(lat.atoms()), f, mu, lat.root)
    assert selected == {Atom(2, 0)}
    assert len(exhausted) == 6
    assert Atom(2, 0) not in exhausted


def test_stopping_generation_constant_and_degenerate():
    lat, mu, _ = depth2_setup()
    atoms = set(lat.atoms())
    selected, exhausted = stopping_generation(atoms, np.full(4, 3.0), mu, lat.root)
    assert selected == set()
    assert exhausted == atoms
    dead = Measure(lat, np.zeros(4))
    selected, _ = stopping_generation(atoms, np.array([1.0, 2.0, 3.0, 4.0]), dead, lat.root)
    assert selected == set()
    with pytest.raises(ValueError):
        stopping_generation(atoms, np.array([-1.0, 0.0, 0.0, 0.0]), mu, lat.root)


def test_stopping_forest_examples():
    lat, mu, f = depth2_setup()
    empty = stopping_forest(set(), f, mu, [lat.root])
    assert empty.stopping_atoms == set()
    forest = stopping_forest(set(lat.atoms()), f, mu, [lat.root])
    assert forest.stopping_atoms == {Atom(2, 0)}
    assert len(forest.generations) == 1
    with pytest.raises(ValueError):
        stopping_forest(set(), f, mu, [lat.root, Atom(1, 0)])


def test_modified_stopping_worked_example():
    lat, mu, f = depth2_setup()
    selected = modified_stopping_generation({Atom(2, 0)}, f, mu, lat.root)
    assert selected == {Atom(2, 0)}  # preliminary is the left child (avg 6 >= 6)
    assert modified_stopping_generation(set(), f, mu, lat.root) == set()
    assert modified_stopping_generation({Atom(2, 0)}, np.full(4, 2.0), mu, lat.root) == set()


def test_carleson_constant_examples():
    lat, mu, _ = depth2_setup()
    assert carleson_constant({lat.root: 1.0}, mu) == pytest.approx(1.0)
    assert carleson_constant({}, mu) == 0.0
    dead = Measure(lat, [0.0, 0.0, 0.5, 0.5])
    assert carleson_constant({Atom(2, 0): 1.0}, dead) == math.inf
    with pytest.raises(ValueError):
        carleson_constant({lat.root: -1.0}, mu)


def test_carleson_constant_rejects_nan_weights():
    """A nan weight is named like a negative one, on a leaf and on the root;
    an infinite weight gives an infinite constant."""
    inst = generate_random_instance(2, 3, seed=0, sparsity=0.0)
    lat, mu = inst.lattice, inst.mu
    weights = {a: 0.25 for a in lat.atoms()}
    for atom in (Atom(3, 5), lat.root):
        with pytest.raises(ValueError, match=rf"nan weight at {re.escape(repr(atom))}"):
            carleson_constant({**weights, atom: math.nan}, mu)
        with pytest.raises(ValueError, match="nan weight"):
            carleson_embedding_check({**weights, atom: math.nan}, inst.f, 2.0, mu)
    assert carleson_constant({**weights, Atom(3, 5): math.inf}, mu) == math.inf


def test_embedding_check_example():
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    lhs, bound = carleson_embedding_check({lat.root: 1.0}, np.array([1.0, 3.0]), 2.0, mu)
    assert lhs == pytest.approx(4.0)
    assert bound == pytest.approx(20.0)
    assert carleson_embedding_check({lat.root: 1.0}, np.zeros(2), 2.0, mu) == (0.0, 0.0)


def test_split_collections_examples():
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    ones = np.ones(2)
    first, second = split_collections(ones, ones, 2.0, mu, mu)
    assert second == set()
    assert first == set(lat.atoms())
    first, second = split_collections(ones, np.zeros(2), 2.0, mu, mu)
    assert second == set()
    first, second = split_collections(np.zeros(2), ones, 2.0, mu, mu)
    assert first == set()  # every atom has positive nu mass here


@given(st.integers(0, 2000), st.sampled_from([(2, 3), (3, 2), (2, 4)]))
def test_plain_forest_properties(seed, shape):
    lat, mu, _, _, _ = random_setup(*shape, seed=seed)
    rng = np.random.default_rng(seed + 1)
    f = 1.0 - rng.random(lat.n_leaves)
    forest = stopping_forest(set(lat.atoms()), f, mu, [lat.root])
    # properties (threshold bound, half-mass decay) are asserted inside the
    # construction; re-check the Carleson constant of the family here
    const = carleson_constant(forest.carleson_weights(mu), mu)
    assert const < 2.0
    assert const == pytest.approx(
        naive_carleson_constant(lat, forest.carleson_weights(mu), mu.leaf_mass),
        rel=1e-10,
        abs=1e-12,
    )
    # one step's selected atoms are pairwise disjoint, and every stopping atom
    # sits strictly inside the atom whose step produced it
    for top, selected in forest.selected.items():
        ordered = sorted(selected)
        for i, a in enumerate(ordered):
            assert lat.contains(top, a) and a != top
            for b in ordered[i + 1:]:
                assert not lat.contains(a, b) and not lat.contains(b, a)


@given(st.integers(0, 2000), st.sampled_from([(2, 3), (3, 2)]))
def test_modified_forest_properties(seed, shape):
    lat, mu, _, _, _ = random_setup(*shape, seed=seed)
    rng = np.random.default_rng(seed + 2)
    f = 1.0 - rng.random(lat.n_leaves)
    members = {a for a in lat.atoms() if a.depth > 0 and rng.random() < 0.5}
    forest = modified_stopping_forest(members, f, mu, [lat.root])
    for top in forest.processed:
        covered = sum(mu.mass(s) for s in forest.selected[top])
        assert covered <= 0.5 * mu.mass(top) * (1.0 + 1e-12)
        thr = 2.0 * average(f, top, mu)
        for a in exhausted_members(lat, members, forest.selected[top], top):
            if a == top:
                continue
            assert average(f, lat.parent(a), mu) <= thr * (1.0 + 1e-12)
    # stopping atoms of different processed tops are disjoint
    seen = []
    for atoms in forest.selected.values():
        for a in sorted(atoms):
            for b in seen:
                assert not lat.contains(a, b) and not lat.contains(b, a)
            seen.append(a)


@given(st.integers(0, 2000), st.sampled_from([1.5, 2.0, 3.0]))
def test_embedding_inequality_random(seed, p):
    lat, mu, _, _, f = random_setup(2, 4, seed=seed)
    rng = np.random.default_rng(seed + 3)
    weights = {a: float(rng.random()) for a in lat.atoms() if rng.random() > 0.3}
    lhs, bound = carleson_embedding_check(weights, f, p, mu)
    assert lhs <= bound * (1.0 + 1e-12)


def _mirror_inputs(seed, p):
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed)
    rng = np.random.default_rng(seed + 4)
    alpha = NonnegativeCoefficients(lat, [np.abs(beta.level(d)) for d in range(lat.depth)])
    f = 1.0 - rng.random(lat.n_leaves)
    g = 1.0 - rng.random(lat.n_leaves)
    if lp_norm(f, p, mu) == 0.0 or lp_norm(g, conjugate(p), nu) == 0.0:
        return None
    return (mu, nu) + normalize_for_mirror(alpha, f, g, p, mu, nu)


@given(st.integers(0, 2000), st.sampled_from([1.5, 2.0, 3.0]))
def test_proof_mirror_random(seed, p):
    inputs = _mirror_inputs(seed, p)
    if inputs is None:
        return
    mu, nu, alpha, f, g = inputs
    report = proof_mirror(alpha, f, g, p, mu, nu)
    assert abs(report.t1 + report.t2 - report.pairing_value) <= 1e-10 * max(
        abs(report.pairing_value), 1.0
    )
    for check in report.checks:
        assert check.ok, f"{check.name}: lhs={check.lhs} rhs={check.rhs}"
    assert report.passed
    assert ledger_view(report) == ledger_view(naive_proof_mirror(alpha, f, g, p, mu, nu))


def test_proof_mirror_validates_inputs():
    lat = build_lattice(2, 2)
    mu = Measure(lat, np.full(4, 0.25))
    alpha = NonnegativeCoefficients.from_dict(lat, {(0, 0, 0): 1.0})
    f = np.ones(4)
    g = np.ones(4)
    with pytest.raises(ValueError, match="unit norms|rescale"):
        proof_mirror(alpha, 5.0 * f, g, 2.0, mu, mu)
    alpha_n, f_n, g_n = normalize_for_mirror(alpha, f, g, 2.0, mu, mu)
    report = proof_mirror(alpha_n, f_n, g_n, 2.0, mu, mu)
    assert report.passed


def test_proof_mirror_zero_coefficients_pass():
    lat = build_lattice(2, 2)
    mu = Measure(lat, np.full(4, 0.25))
    alpha = NonnegativeCoefficients(lat)
    alpha_n, f_n, g_n = normalize_for_mirror(alpha, np.ones(4), np.ones(4), 2.0, mu, mu)
    report = proof_mirror(alpha_n, f_n, g_n, 2.0, mu, mu)
    assert report.passed
    assert report.t1 == 0.0 and report.t2 == 0.0


def test_proof_mirror_equal_split_has_empty_second_half():
    """Symmetric unit-mass inputs put every atom in the first collection."""
    lat = build_lattice(2, 2)
    mu = Measure(lat, np.full(4, 0.25))
    alpha = NonnegativeCoefficients.from_dict(lat, {(0, 0, 0): 0.5, (1, 1, 0): 0.25})
    alpha_n, f_n, g_n = normalize_for_mirror(alpha, np.ones(4), np.ones(4), 2.0, mu, mu)
    report = proof_mirror(alpha_n, f_n, g_n, 2.0, mu, mu)
    assert report.second == set()
    assert report.t2 == 0.0
    assert report.passed


# ---------------------------------------------------------------------------
# the sweep against the set-based scans of tests/oracles.py
# ---------------------------------------------------------------------------

def pareto(rng, lat):
    """Heavy-tailed positive leaf values (tail index 1.5): deep forests."""
    return (1.0 - rng.random(lat.n_leaves)) ** (-1.0 / 1.5)


def cascade(rng, lat):
    """A random multiplicative cascade: each atom splits its value among its
    children by strongly uneven weights, so averages keep doubling downward."""
    f = np.ones(1)
    for _ in range(lat.depth):
        w = rng.random((f.size, lat.arity)) ** 4
        f = (f[:, None] * w / w.mean(axis=1, keepdims=True)).reshape(-1)
    return f


def forest_corpus():
    """(mu, f, members, roots): arity 2-4, masses with 0/30/60 % zero leaves,
    heavy-tailed f with and without zeros and a cascade, all atoms or a
    random half, the root or two disjoint depth-1 roots."""
    for k, (arity, depth) in enumerate(((2, 8), (3, 5), (4, 4))):
        for j, sparsity in enumerate((0.0, 0.3, 0.6)):
            seed = 3 * k + j
            lat, mu, _, _, _ = random_setup(arity, depth, seed=seed, sparsity=sparsity)
            rng = np.random.default_rng(100 + seed)
            tailed = pareto(rng, lat)
            zeros = np.where(rng.random(lat.n_leaves) < 0.3, 0.0, tailed)
            half = {a for a in lat.atoms() if rng.random() < 0.5}
            for f in (tailed, zeros, cascade(rng, lat)):
                for members in (set(lat.atoms()), half):
                    for roots in ([lat.root], [Atom(1, 0), Atom(1, arity - 1)]):
                        yield mu, f, members, roots


def forest_layout(forest):
    """Everything a forest holds, iteration order included."""
    return (
        list(forest.roots),
        [list(gen) for gen in forest.generations],
        [(top, list(sel)) for top, sel in forest.selected.items()],
        list(forest.stopping_atoms),
        list(forest.processed),
    )


def test_forests_equal_the_set_based_scans():
    deep = 0
    for mu, f, members, roots in forest_corpus():
        for build, naive in ((stopping_forest, naive_stopping_forest),
                             (modified_stopping_forest, naive_modified_stopping_forest)):
            forest = build(members, f, mu, roots)
            assert forest_layout(forest) == forest_layout(naive(members, f, mu, roots))
            deep += len(forest.generations) >= 3
    assert deep >= 30  # the corpus reaches past the second generation


def test_generations_equal_the_set_based_scans():
    for mu, f, members, roots in list(forest_corpus())[::4]:
        forest = stopping_forest(members, f, mu, roots)
        for top in sorted(forest.processed)[:3]:
            selected, exhausted = stopping_generation(members, f, mu, top)
            ref_selected, ref_exhausted = naive_stopping_generation(members, f, mu, top)
            assert list(selected) == list(ref_selected)
            assert exhausted == ref_exhausted
            lat = mu.lattice
            assert exhausted_members(lat, members, selected, top) == ref_exhausted
            other = forest.selected.get(lat.root, set())  # selected under another top
            assert exhausted_members(lat, members, other, top) == naive_exhausted_members(
                lat, members, other, top
            )
            assert list(modified_stopping_generation(members, f, mu, top)) == list(
                naive_modified_stopping_generation(members, f, mu, top)
            )


def test_exhausted_members_takes_plain_pairs():
    """Members, selected atoms and top may be plain (depth, index) pairs, as
    at every other stopping entry point; the result is a set of atoms."""
    lat = build_lattice(3, 3)
    atoms = list(lat.atoms())
    rng = np.random.default_rng(5)
    for _ in range(30):
        members = [tuple(a) for a in atoms if rng.random() < 0.5]
        selected = [tuple(atoms[k]) for k in rng.choice(len(atoms), 3, replace=False).tolist()]
        top = tuple(atoms[int(rng.integers(lat.offsets[2]))])
        got = exhausted_members(lat, members, selected, top)
        assert got == naive_exhausted_members(
            lat, [Atom(*a) for a in members], [Atom(*s) for s in selected], Atom(*top)
        )
        assert all(type(a) is Atom for a in got)


def test_exhausted_members_rejects_atoms_outside_the_lattice():
    lat = build_lattice(2, 2)
    for members, selected, top in (([Atom(1, 0), Atom(5, 0)], [], lat.root),
                                   ([Atom(1, 0)], [], Atom(0, 5)),
                                   ([Atom(1, 0)], [Atom(2, 7)], lat.root)):
        with pytest.raises(ValueError, match="not in lattice"):
            exhausted_members(lat, members, selected, top)


def outcome(fn, *args, view=forest_layout):
    try:
        return view(fn(*args))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_invalid_inputs_raise_as_the_set_based_scans():
    lat, mu, _ = depth2_setup()
    f = np.array([8.0, 4.0, 1.0, 0.0])
    atoms = set(lat.atoms())
    cases = [
        (atoms, -f, [lat.root]),                                   # negative f
        (atoms | {Atom(2, 4)}, f, [lat.root]),                     # member outside
        (atoms, f, [Atom(3, 0)]),                                  # root outside
        (atoms, f, [Atom(1, 1), Atom(2, 0), Atom(1, 0), Atom(2, 3)]),  # overlap
        (atoms | {Atom(2, 4)}, -f, [lat.root, Atom(1, 0)]),        # roots first
        (atoms | {Atom(0, 1)}, -f, []),                            # no roots: no step
    ]
    for members, g, roots in cases:
        for build, naive in ((stopping_forest, naive_stopping_forest),
                             (modified_stopping_forest, naive_modified_stopping_forest)):
            got = outcome(build, members, g, mu, roots)
            assert got == outcome(naive, members, g, mu, roots)
    assert outcome(stopping_forest, atoms, f, mu, [Atom(1, 1), Atom(2, 0), Atom(1, 0)]) == (
        ValueError, "roots Atom(depth=1, index=0) and Atom(depth=2, index=0) overlap"
    )
    with pytest.raises(ValueError, match="not in lattice"):
        modified_stopping_forest(atoms, f, mu, [Atom(1, 2)])
    for step, naive in ((stopping_generation, naive_stopping_generation),
                        (modified_stopping_generation, naive_modified_stopping_generation)):
        for members, g, top in ((atoms, -f, Atom(3, 0)), (atoms, f, Atom(2, 9)),
                                ([(2, 0), (2, 5), (2, 6)], f, lat.root)):
            got = outcome(step, members, g, mu, top, view=lambda r: r)
            assert got == outcome(naive, members, g, mu, top, view=lambda r: r)


def test_first_invalid_member_in_input_order_raises():
    """Members are checked in one array test; the error names the first
    member outside the lattice in input order, as checking them one by one
    did, and numpy integers count as integers."""
    lat, mu, _ = depth2_setup()
    f = np.array([8.0, 4.0, 1.0, 0.0])
    for members in ([(1, 0), (1, 2), (3, 0)], [(1, 0), (3, 0), (1, 2)],
                    [(0, 0), (-1, 0), (2, 9)], [(2, 1), (np.int64(2), np.int64(4))]):
        first = next(a for a in members if not lat.is_valid(Atom(*a)))
        with pytest.raises(ValueError) as want:
            lat.check_atom(first)
        for step in (stopping_generation, modified_stopping_generation):
            with pytest.raises(ValueError) as got:
                step(members, f, mu, lat.root)
            assert str(got.value) == str(want.value)
    as_numpy = [(np.int64(d), np.int64(i)) for d, i in lat.atoms()]
    assert stopping_generation(as_numpy, f, mu, lat.root) == stopping_generation(
        list(lat.atoms()), f, mu, lat.root)


def test_two_root_forest():
    lat, mu, _, _, _ = random_setup(2, 6, seed=3, sparsity=0.0)
    f = pareto(np.random.default_rng(3), lat)
    roots = [Atom(2, 3), Atom(1, 0)]
    for build, naive in ((stopping_forest, naive_stopping_forest),
                         (modified_stopping_forest, naive_modified_stopping_forest)):
        forest = build(set(lat.atoms()), f, mu, roots)
        assert forest.roots == set(roots) and forest.stopping_atoms
        assert all(lat.contains(Atom(1, 0), a) or lat.contains(Atom(2, 3), a)
                   for a in forest.stopping_atoms)
        assert forest_layout(forest) == forest_layout(naive(set(lat.atoms()), f, mu, roots))


def mirror_case(arity, depth, seed, p, draw=pareto, sparsity=0.0):
    lat, mu, nu, beta, _ = random_setup(arity, depth, seed=seed, sparsity=sparsity)
    rng = np.random.default_rng(seed + 5)
    alpha = NonnegativeCoefficients(lat, [np.abs(beta.level(d)) for d in range(lat.depth)])
    f, g = draw(rng, lat), draw(rng, lat)
    return normalize_for_mirror(alpha, f, g, p, mu, nu) + (p, mu, nu)


def ledger_view(report):
    """Everything a ledger reports, as exact text: the checks' JSON, the
    totals and both halves' per-top sums, keys and order included."""
    halves = [
        (h.local_sum, h.stopping_sum, list(h.per_atom_plain.items()),
         list(h.per_atom_stopped.items()))
        for h in (report.half1, report.half2)
    ]
    return repr((json.dumps(report.as_dicts()), report.t1, report.t2, report.pairing_value,
                 halves))


def test_proof_mirror_ledger_is_byte_identical_to_the_set_based_forests():
    """The array ledger against the per-atom one of tests/oracles.py, which
    runs on the set-based forests.  p = 4 is there because conjugate(4/3) is
    not 4 in floating point: each half must use the exponents it is given."""
    cases = [mirror_case(a, d, seed, p, draw, sparsity) for a, d in ((2, 8), (3, 5))
             for seed in range(3) for p in (1.5, 2.0, 3.0, 4.0) for draw in (pareto, cascade)
             for sparsity in (0.0, 0.3)]
    for case in cases:
        assert ledger_view(proof_mirror(*case)) == ledger_view(naive_proof_mirror(*case))


def signed_zeros(rng, values, share=0.2):
    """``values`` with about ``share`` of its entries set to -0.0."""
    return np.where(rng.random(values.shape) < share, -0.0, values)


def flat_ledger_corpus():
    """Normalized ``proof_mirror`` inputs from depth 1 up and at arity 2-9:
    mu and nu each with a massless atom (above the leaves from depth 2 on)
    and, in every other case, 40 % massless leaves; f, g and alpha with
    -0.0 entries set before normalizing; heavy-tailed or cascading f and g;
    p = 1.5 and 3."""
    for arity, depth in ((2, 1), (3, 1), (5, 1), (2, 9), (3, 5), (5, 3), (8, 2), (9, 2), (9, 3)):
        lat = build_lattice(arity, depth)
        n = lat.n_leaves
        width = arity if depth > 1 else 1  # leaves of the massless atom
        for seed in range(4):
            rng = np.random.default_rng(1000 * arity + 10 * depth + seed)

            def masses():
                m = 1.0 - rng.random(n)
                m[rng.random(n) < 0.4 * (seed % 2)] = 0.0
                dead = rng.integers(n // width)
                m[dead * width:(dead + 1) * width] = 0.0
                return m

            mu, nu = Measure(lat, masses()), Measure(lat, masses())
            draw = (pareto, cascade)[seed // 2]
            f, g = signed_zeros(rng, draw(rng, lat)), signed_zeros(rng, draw(rng, lat))
            alpha = NonnegativeCoefficients(lat, [
                signed_zeros(rng, np.abs(rng.standard_normal((lat.level_size(d), arity))))
                for d in range(depth)])
            for p in (1.5, 3.0):
                if lp_norm(f, p, mu) > 0.0 and lp_norm(g, conjugate(p), nu) > 0.0:
                    yield normalize_for_mirror(alpha, f, g, p, mu, nu) + (p, mu, nu)


@pytest.mark.parametrize("block", [None, 64])
def test_flat_ledger_is_byte_identical_on_signed_zeros_massless_atoms_and_wide_trees(
        monkeypatch, block):
    """The ledger's local functions, built on each top's own leaves, against
    the per-atom ledger of tests/oracles.py, on a corpus that holds every
    feature listed below; with blocks of 64 values most tops take a block
    and a run of entries of their own."""
    if block is not None:
        monkeypatch.setattr(martpara.stopping, "_LEDGER_BLOCK", block)
    seen = set()
    for case in flat_ledger_corpus():
        alpha, f, g, p, mu, nu = case
        lat = mu.lattice
        report = proof_mirror(*case)
        assert ledger_view(report) == ledger_view(naive_proof_mirror(*case))
        for name, values in (("f", f), ("g", g), ("alpha", alpha._flat)):
            if np.any((values == 0.0) & np.signbit(values)):
                seen.add(f"-0.0 in {name}")
        for name, m in (("mu", mu), ("nu", nu)):
            if np.any(m.flat_mass[1:lat.n_internal] == 0.0):
                seen.add(f"massless subtree of {name}")
        seen.add(f"arity {lat.arity}")
        if lat.depth == 1:
            seen.add("depth 1")
        forests = (report.half1.forest, report.half2.forest)
        if any(a.depth == lat.depth for forest in forests for a in forest.stopping_atoms):
            seen.add("stopping leaf")
        if any(len(forest.generations) >= 3 for forest in forests):
            seen.add("3 stopping generations")
    missing = {"-0.0 in f", "-0.0 in g", "-0.0 in alpha", "massless subtree of mu",
               "massless subtree of nu", "arity 5", "arity 8", "arity 9", "depth 1",
               "stopping leaf", "3 stopping generations"} - seen
    assert not missing, missing


def test_proof_mirror_norms_tops_in_row_blocks(monkeypatch):
    """Beyond its two input-norm checks, ``proof_mirror`` may call ``lp_norm``
    at most once per block of rows, whatever the number of processed atoms:
    a 2^10 instance with over 100 of them and a 2^3 one with 3 make the same
    number of calls."""
    real = martpara.stopping.lp_norm
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(martpara.stopping, "lp_norm", counting)
    counts = []
    for case in (mirror_case(2, 10, seed=0, p=1.5), mirror_case(2, 3, seed=0, p=3.0)):
        calls.clear()
        report = proof_mirror(*case)
        n = case[-1].lattice.n_leaves
        sizes = [len(h.forest.processed) for h in (report.half1, report.half2)]
        rows = max(1, martpara.stopping._LEDGER_BLOCK // n)
        assert len(calls) <= 2 + sum(-(-k // rows) for k in sizes)
        counts.append((sum(sizes), len(calls)))
    (many, calls_many), (few, calls_few) = counts
    assert many >= 100 and few <= 3
    assert calls_many == calls_few


def test_proof_mirror_matches_the_oracle_on_the_golden_instance(monkeypatch, capsys):
    """The inputs ``martpara mirror`` builds for the mirror_2x8_p3 golden case
    (several stopping generations in both halves)."""
    calls = []

    def recorded(*args):
        calls.append((args, proof_mirror(*args)))
        return calls[-1][1]

    monkeypatch.setattr(martpara.cli, "proof_mirror", recorded)
    golden = Path(__file__).parent / "data" / "cli" / "mirror_2x8_p3.json"
    assert martpara.cli.main(["mirror", "--instance", str(golden), "--seed", "27",
                              "--p", "3"]) == 0
    capsys.readouterr()
    (args, report), = calls
    assert len(report.half1.forest.generations) >= 3
    assert ledger_view(report) == ledger_view(naive_proof_mirror(*args))


def test_proof_mirror_at_2_to_the_14_leaves():
    alpha, f, g, p, mu, nu = mirror_case(2, 14, seed=0, p=3.0)
    report = proof_mirror(alpha, f, g, p, mu, nu)
    assert report.passed, [c.name for c in report.checks if not c.ok]
    assert len(report.half1.forest.generations) >= 2
    assert len(report.half2.forest.generations) >= 2
