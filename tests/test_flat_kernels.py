"""The flat kernels give, byte for byte, the per-generation kernels they
replaced (``naive_*`` in ``oracles.py``): on 1-D and batched rows, arity 2-9
(sibling sums by strided adds below arity 8, pairwise from 8 up), zero and
-0.0 masses and signed zeros.  A guard keeps every sibling sum in the one
kernel."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import martpara
from martpara import (
    EdgeCoefficients,
    Measure,
    Symbol,
    atom_averages,
    atom_integrals,
    build_lattice,
    maximal_function,
    project_mean_zero,
    rubio_de_francia,
)
from martpara.lattice import Atom, sibling_sums
from martpara.martingale import STRIDED_MAX_PARENTS
from martpara.measure import _per_mass, safe_divide
from martpara.paraproduct import _edge_terms, _edge_terms_adjoint, _mean_zero_excess
from martpara.stopping import _carleson_sup

from helpers import same_bytes

from oracles import (
    naive_atom_averages,
    naive_atom_integrals,
    naive_block_sums,
    naive_carleson_sup,
    naive_chain_sum,
    naive_edge_terms,
    naive_edge_terms_adjoint,
    naive_maximal_levels,
    naive_mean_zero_excess,
    naive_project_mean_zero,
    naive_rubio_de_francia,
    naive_symbol_error,
)

VALUES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e150, 2.0 ** 53]),
)
#: leaf masses with zeros and -0.0, or all positive (no massless atom)
MASSES = st.sampled_from([[0.0, -0.0, 0.25, 1.0, 3.5], [0.25, 1.0, 3.5]])


def edge_levels(data, lat) -> list[np.ndarray]:
    """Per-generation edge coefficients (level_size(d), arity)."""
    return [data.draw(hnp.arrays(float, (lat.level_size(d), lat.arity), elements=VALUES))
            for d in range(lat.depth)]


@st.composite
def cases(draw):
    """(lattice, measure, lead shape, leaf rows): masses with or without
    zeros, rows with signed zeros or all -0.0, no batch axis or one of 0-4
    rows; the depth is capped so that a tree has at most 81 leaves."""
    arity = draw(st.integers(2, 9))
    depth = draw(st.integers(1, 3 if arity < 5 else 2))
    lat = build_lattice(arity, depth)
    mass = draw(hnp.arrays(float, lat.n_leaves, elements=st.sampled_from(draw(MASSES))))
    lead = draw(st.sampled_from([(), (1,), (3,), (0,), (4,)]))
    x = draw(st.one_of(hnp.arrays(float, (*lead, lat.n_leaves), elements=VALUES),
                       st.builds(np.full, st.just((*lead, lat.n_leaves)), st.just(-0.0))))
    return lat, Measure(lat, mass), lead, x


def same_levels(got, want) -> bool:
    return len(got) == len(want) and all(same_bytes(g, w) for g, w in zip(got, want))


@given(cases())
def test_block_sums_and_masses_match_per_generation(case):
    lat, mu, _, x = case
    sums = lat.block_sums(x)
    assert same_levels(sums, naive_block_sums(lat, x))
    assert sums[-1] is x  # the leaf generation is the caller's array
    assert same_levels(lat.split(lat.flat_sums(x)), naive_block_sums(lat, x))
    weighted = naive_block_sums(lat, x * mu.leaf_mass)
    assert same_levels(lat.split(lat.flat_sums(x, mu.leaf_mass)), weighted)
    assert same_levels(mu.level_mass, naive_block_sums(lat, mu.leaf_mass))


@pytest.mark.parametrize("arity", range(2, 10))
def test_sibling_sums_match_per_generation_on_random_values(arity):
    """Values of many magnitudes make the order of the sums show in the last
    bits, so strided adds at arity 8 or pairwise sums below it would fail."""
    lat = build_lattice(arity, 3)
    rng = np.random.default_rng(arity)
    x = rng.uniform(-1.0, 1.0, (3, lat.n_leaves)) * 10.0 ** rng.integers(-8, 9, (3, lat.n_leaves))
    assert same_bytes(sibling_sums(x, arity), x.reshape(3, -1, arity).sum(axis=-1))
    assert same_levels(lat.block_sums(x), naive_block_sums(lat, x))
    assert same_levels(lat.block_sums(x[0]), naive_block_sums(lat, x[0]))


@given(cases())
def test_integrals_and_averages_match_per_generation(case):
    lat, mu, _, x = case
    assert same_levels(atom_integrals(x, mu), naive_atom_integrals(x, mu))
    assert same_levels(atom_averages(x, mu), naive_atom_averages(x, mu))


@given(cases(), st.data())
def test_chain_sum_matches_per_generation(case, data):
    """Flat terms from generation ``first`` (0 or 1), holding any number of
    whole generations: all of them, the internal ones only (the gradient's
    n_internal) or fewer; chains of -0.0 terms sum to 0.0."""
    lat, _, lead, _ = case
    first = data.draw(st.integers(0, 1))
    last = data.draw(st.integers(first, lat.depth + 1))
    width = lat.offsets[last] - lat.offsets[first]
    elements = data.draw(st.sampled_from([VALUES, st.just(-0.0)]))
    terms = data.draw(hnp.arrays(float, (*lead, width), elements=elements))
    out = lat.chain_sum(terms, first)
    assert same_bytes(out, naive_chain_sum(lat, [None] * first + lat.split(terms, first)))
    if (terms == 0.0).all():
        assert not np.signbit(out).any()


@given(cases(), st.data())
def test_edge_terms_match_per_generation(case, data):
    lat, _, lead, _ = case
    levels = edge_levels(data, lat)
    flat = EdgeCoefficients(lat, levels)._flat
    parents = data.draw(hnp.arrays(float, (*lead, lat.n_internal), elements=VALUES))
    children = data.draw(hnp.arrays(float, (*lead, lat.n_atoms - 1), elements=VALUES))
    terms = _edge_terms(flat, parents)
    assert same_levels(lat.split(terms, 1), naive_edge_terms(levels, lat.split(parents))[1:])
    adjoint = _edge_terms_adjoint(flat, children)
    assert same_levels(lat.split(adjoint),
                       naive_edge_terms_adjoint(levels, lat.split(children, 1)))


@given(cases(), st.data())
def test_per_mass_matches_masked_divide(case, data):
    """Both branches, with and without an atom of mass 0 or -0.0, give the
    masked divide: 0 on massless atoms, the quotient elsewhere."""
    lat, mu, lead, _ = case
    n = data.draw(st.integers(0, lat.n_atoms))
    vals = data.draw(hnp.arrays(float, (*lead, n), elements=VALUES))
    assert mu.has_massless_atom == bool((mu.flat_mass <= 0.0).any())
    assert same_bytes(_per_mass(vals, mu), safe_divide(vals, mu.flat_mass[:n]))


@pytest.mark.parametrize("masses,massless", [
    ([0.5, 2.0], False), ([0.0, 2.0], True), ([-0.0, 2.0], True), ([0.0, -0.0], True),
])
def test_per_mass_branches(masses, massless):
    lat = build_lattice(2, 1)
    mu = Measure(lat, masses)
    assert mu.has_massless_atom is massless
    vals = np.array([[3.0, -0.0, 1.0], [-1e300, 7.0, -0.0]])
    assert same_bytes(_per_mass(vals, mu), safe_divide(vals, mu.flat_mass))


@given(cases(), st.data())
def test_symbol_check_matches_per_generation(case, data):
    lat, nu, _, _ = case
    levels = edge_levels(data, lat)
    for d, lvl in enumerate(levels):
        child_mass = nu.level_mass[d + 1].reshape(-1, lat.arity)
        got, want = _mean_zero_excess(lvl, child_mass), naive_mean_zero_excess(lvl, child_mass)
        assert same_levels(got, want)
    error = naive_symbol_error(lat, levels, nu)
    if error is None:
        Symbol(EdgeCoefficients(lat, levels), nu)
    else:
        with pytest.raises(ValueError) as exc:
            Symbol(EdgeCoefficients(lat, levels), nu)
        assert str(exc.value) == error


@given(cases(), st.data())
def test_project_mean_zero_matches_per_generation(case, data):
    lat, nu, _, _ = case
    levels = edge_levels(data, lat)
    want = naive_project_mean_zero(lat, levels, nu)
    error = naive_symbol_error(lat, want, nu)
    if error is None:
        got = project_mean_zero(EdgeCoefficients(lat, levels), nu).beta
        assert same_levels([got.level(d) for d in range(lat.depth)], want)
    else:
        with pytest.raises(ValueError) as exc:
            project_mean_zero(EdgeCoefficients(lat, levels), nu)
        assert str(exc.value) == error


def plain_corrections(lat, levels, nu) -> list[np.ndarray]:
    """``project_mean_zero``'s corrections c - mean before its fallback, one
    generation at a time: the rows they leave failing the mean-zero check
    are the ones the fallback recomputes."""
    out_levels = []
    for d, lvl in enumerate(levels):
        child_mass = nu.level_mass[d + 1].reshape(-1, lat.arity)
        active = child_mass > 0
        n_active = active.sum(axis=1, keepdims=True)
        means = safe_divide((lvl * child_mass).sum(axis=1), nu.level_mass[d])
        out = np.where(active & (n_active > 1), lvl - means[:, None], lvl)
        out[active & (n_active == 1)] = 0.0
        out_levels.append(out)
    return out_levels


@pytest.mark.parametrize("arity,depth", [(2, 8), (3, 5), (8, 3), (9, 3)])
def test_project_mean_zero_fallback_across_generations(arity, depth):
    """Siblings within 1e-3 of 1e6 on every third row of each generation
    make the plain correction fail the check there, so the fallback runs on
    rows of several generations in one call, from arity 3 up also on rows
    with massless children (a massless subtree, leaves of mass 0 and -0.0),
    and beside an atom with a single massed child.  The symbol, and the
    check's message on the plain corrections, are those of the
    per-generation oracles, byte for byte, on trees deeper than the
    hypothesis cases."""
    lat = build_lattice(arity, depth)
    rng = np.random.default_rng(arity)
    mass = rng.uniform(0.5, 1.5, lat.n_leaves)
    mass[rng.random(lat.n_leaves) < 0.1] = 0.0
    mass[rng.random(lat.n_leaves) < 0.1] = -0.0
    mass[lat.leaf_slice(Atom(1, arity - 1))] = 0.0
    lone = lat.leaf_slice(Atom(depth - 1, 1))
    mass[lone.start + 1:lone.stop] = 0.0
    nu = Measure(lat, mass)
    levels = []
    for d in range(depth):
        lvl = rng.standard_normal((lat.level_size(d), arity))
        lvl[2::3] = 1e6 + rng.uniform(-1e-3, 1e-3, lvl[2::3].shape)
        levels.append(lvl)
    plain = plain_corrections(lat, levels, nu)
    failing = [naive_mean_zero_excess(out, nu.level_mass[d + 1].reshape(-1, arity))[2]
               for d, out in enumerate(plain)]
    assert sum(bool(bad.any()) for bad in failing) >= 2
    massless = [(nu.level_mass[d + 1].reshape(-1, arity) <= 0.0).any(axis=1) for d in range(depth)]
    # at arity 2 a massless child leaves one massed child, which gets 0
    assert any((bad & m).any() if arity > 2 else m.any() for bad, m in zip(failing, massless))
    with pytest.raises(ValueError) as exc:
        Symbol(EdgeCoefficients(lat, plain), nu)
    assert str(exc.value) == naive_symbol_error(lat, plain, nu)
    want = naive_project_mean_zero(lat, levels, nu)
    assert naive_symbol_error(lat, want, nu) is None
    got = project_mean_zero(EdgeCoefficients(lat, levels), nu).beta
    assert same_levels([got.level(d) for d in range(depth)], want)


@given(cases(), st.data())
def test_carleson_sup_matches_per_generation(case, data):
    """Own weight plus the children's totals, weights from the root on as
    many as given, with -0.0, +inf and overflowing sums."""
    lat, mu, _, _ = case
    n = data.draw(st.integers(0, lat.n_atoms))
    weights = data.draw(hnp.arrays(float, n, elements=st.sampled_from(
        [0.0, -0.0, 0.5, 3.0, 0.1, 1e308, math.inf])))
    got, want = _carleson_sup(weights, mu), naive_carleson_sup(lat, weights, mu)
    assert same_bytes(np.float64(got), np.float64(want))


@given(cases())
def test_maximal_function_matches_per_generation(case):
    lat, mu, _, x = case
    for row in x.reshape(-1, lat.n_leaves):  # it takes one leaf function
        assert same_bytes(maximal_function(row, mu), naive_maximal_levels(lat, row, mu))


@pytest.mark.parametrize("arity, depth", [(2, 12), (3, 8), (4, 6), (5, 5)])
@pytest.mark.parametrize("zeros", [False, True])
def test_maximal_kernel_matches_per_generation_on_large_trees(arity, depth, zeros):
    """The trees have generations on both sides of the strided max's size
    rule; masses of many magnitudes, with 0.0, -0.0 and a massless subtree
    or none; leaf values of many magnitudes with -0.0 among them; both
    tolerances the package uses."""
    lat = build_lattice(arity, depth)
    sizes = [lat.level_size(d) for d in range(depth)]
    assert min(sizes) < STRIDED_MAX_PARENTS <= max(sizes)
    rng = np.random.default_rng(arity * 100 + depth)
    n = lat.n_leaves
    mass = rng.uniform(0.25, 4.0, n) * 10.0 ** rng.integers(-6, 7, n)
    if zeros:
        mass[rng.random(n) < 0.2] = 0.0
        mass[rng.random(n) < 0.2] = -0.0
        mass[:n // arity ** 2] = 0.0
    mu = Measure(lat, mass)
    assert mu.has_massless_atom == zeros
    f = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    f[rng.random(n) < 0.1] = -0.0
    assert same_bytes(maximal_function(f, mu), naive_maximal_levels(lat, f, mu))
    for p in (1.5, 3.0, 4.0):
        for tol in (1e-12, 1e-13):
            assert same_bytes(rubio_de_francia(f, mu, p, tol=tol),
                              naive_rubio_de_francia(lat, f, mu, p, tol))


# -- no sibling sum outside the kernel -----------------------------------------

SRC = Path(martpara.__file__).resolve().parent
KERNEL = ("lattice.py", "_add_runs")


def _sibling_reshape(node) -> bool:
    """Whether ``node`` is a ``.reshape(..., arity)`` call: its last
    argument names an arity or unpacks another array's shape (whose last
    axis is the one the siblings span, as ``*coeffs.shape``)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reshape" and node.args):
        return False
    last = node.args[-1]
    if isinstance(last, ast.Starred):
        return isinstance(last.value, ast.Attribute) and last.value.attr == "shape"
    return any((isinstance(n, ast.Name) and n.id == "arity")
               or (isinstance(n, ast.Attribute) and n.attr == "arity") for n in ast.walk(last))


def _reshapes(node, names) -> bool:
    """Whether ``node`` holds a ``.reshape(..., arity)`` call or one of ``names``."""
    return any(_sibling_reshape(n) or (isinstance(n, ast.Name) and n.id in names)
               for n in ast.walk(node))


def _summed(call: ast.Call):
    """The array an ``np.add.reduce(x, ...)``, ``x.sum(axis=...)`` or
    ``np.sum(x, axis=...)`` call reduces along an axis, else None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    has_axis = any(k.arg == "axis" for k in call.keywords)
    if func.attr == "reduce" and isinstance(func.value, ast.Attribute) \
            and func.value.attr == "add" and call.args:
        return call.args[0]
    if func.attr == "sum" and isinstance(func.value, ast.Name) and func.value.id == "np":
        return call.args[0] if call.args and (has_axis or len(call.args) > 1) else None
    if func.attr == "sum" and (has_axis or call.args):
        return func.value
    return None


def sibling_reductions(path: Path) -> list[str]:
    """Every reduction along an axis of a sibling-reshaped array in ``path``,
    outside the kernel, as "file:line".  An array is sibling-reshaped when
    its expression holds a ``.reshape(..., arity)`` call or a reshaped name:
    one a function binds to such an array, or a parameter that a call in the
    module passes one."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    fns = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    names: dict[str, set[str]] = {name: set() for name in fns}
    grew = True
    while grew:
        grew = False
        for name, fn in fns.items():
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and _reshapes(node.value, names[name]):
                    bound = [(name, n.id) for target in node.targets
                             for n in ast.walk(target) if isinstance(n, ast.Name)]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in fns):
                    params = [a.arg for a in fns[node.func.id].args.args]
                    bound = [(node.func.id, param) for param, arg in zip(params, node.args)
                             if _reshapes(arg, names[name])]
                else:
                    continue
                for owner, var in bound:
                    if var not in names[owner]:
                        names[owner].add(var)
                        grew = True
    found = set()
    for name, fn in fns.items():
        if (path.name, name) == KERNEL:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                summed = _summed(node)
                if summed is not None and _reshapes(summed, names[name]):
                    found.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_every_sibling_sum_goes_through_the_kernel():
    """A sibling sum written as a reduction over a reshape would sum in
    numpy's order, not the kernel's, and at a loop per run."""
    paths = sorted(SRC.glob("*.py"))
    assert (SRC / KERNEL[0]) in paths
    assert f"def {KERNEL[1]}(" in (SRC / KERNEL[0]).read_text(encoding="utf-8")
    found = [hit for path in paths for hit in sibling_reductions(path)]
    assert not found, found


def test_the_guard_sees_a_readded_sibling_sum(tmp_path):
    bad = tmp_path / "paraproduct.py"
    bad.write_text(
        "def up(src, dst, lead, arity):\n"
        "    np.add.reduce(src.reshape(*lead, dst.shape[-1], arity), axis=-1, out=dst)\n"
        "def adjoint(coeffs, vals):\n"
        "    return np.add.reduce(coeffs * vals.reshape(*vals.shape[:-1], *coeffs.shape), -1)\n"
        "def excess(lvl, mass, arity):\n"
        "    child_mass = mass.reshape(-1, arity)\n"
        "    active = child_mass > 0\n"
        "    return active.sum(axis=1), np.sum(lvl * child_mass, 1), child_mass.sum(1)\n"
        "def helper(lvl, child_mass):\n"
        "    return (lvl * child_mass).sum(axis=1)\n"
        "def caller(lvl, mass, arity):\n"
        "    return helper(lvl, mass.reshape(-1, arity))\n"
        "def fine(x, m, arity):\n"
        "    y = x.reshape(-1, arity).min(axis=1) + m.reshape(-1, 4).sum(axis=1)\n"
        "    return np.add.reduce(x * m, axis=-1), y, x.sum()\n"
    )
    assert sibling_reductions(bad) == [
        "paraproduct.py:2", "paraproduct.py:4", "paraproduct.py:8", "paraproduct.py:10"]


# -- no loop over the generations in paraproduct.py ----------------------------

#: names whose reading marks an iterable as one over the generations
GENERATION_NAMES = {"depth", "levels", "level", "level_mass", "level_size", "offsets", "split"}


def generation_loops(path: Path) -> list[str]:
    """Every ``for`` or ``while`` loop and comprehension in ``path`` whose
    iterable (or condition) reads one of ``GENERATION_NAMES``, as
    "enclosing function:line"."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            head = (child.iter if isinstance(child, (ast.For, ast.comprehension))
                    else child.test if isinstance(child, ast.While) else None)
            if head is not None and any(
                    (isinstance(n, ast.Name) and n.id in GENERATION_NAMES)
                    or (isinstance(n, ast.Attribute) and n.attr in GENERATION_NAMES)
                    for n in ast.walk(head)):
                found.append(f"{where}:{head.lineno}")
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return found


def test_paraproduct_has_no_loop_over_the_generations():
    """The coefficient layer runs on its flat (n_internal, arity) array: the
    only loop over the generations left is the shape check of a caller's
    list of levels."""
    found = generation_loops(SRC / "paraproduct.py")
    assert [hit.split(":")[0] for hit in found] == ["EdgeCoefficients.__init__"], found


def test_the_guard_sees_a_readded_generation_loop(tmp_path):
    bad = tmp_path / "paraproduct.py"
    bad.write_text(
        "def check(lat, beta, nu):\n"
        "    for d in range(lat.depth):\n"
        "        pass\n"
        "    sums = [beta.level(d).sum() for d in range(lat.depth)]\n"
        "    masses = {d: m for d, m in enumerate(nu.level_mass)}\n"
        "    d = 0\n"
        "    while d < lat.depth:\n"
        "        d += 1\n"
        "    return [lvl for lvl in lat.split(beta)]\n"
        "class Coeffs:\n"
        "    def scaled(self, t):\n"
        "        return Coeffs([t * lvl for lvl in self.levels])\n"
        "def fine(lat, entries, parts, atom):\n"
        "    for (d, i, k), v in entries.items():\n"
        "        pass\n"
        "    for k, child in enumerate(lat.children(atom)):\n"
        "        pass\n"
        "    return [part.lattice for part in parts.values()]\n"
    )
    assert generation_loops(bad) == [
        "check:2", "check:4", "check:5", "check:7", "check:9", "Coeffs.scaled:12"]
