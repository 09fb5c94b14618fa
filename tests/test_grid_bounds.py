"""The grid oracle scans only the blocks that can hold its maximum.

``grid_oracle_norm`` skips a block where a rigorous bound shows that no
point of it can raise the value: its bound (``_Bounds.bound``) lies below
the score of the best ratio so far, or ``_Bounds.below`` proves the block's
scores below it.  These tests hold the value to the dense block scan it
replaced (``naive_block_scan``) bit for bit, hold the bounds and proofs to
the scores the dense scan computes, and count the blocks it scans.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from martpara import EdgeCoefficients, Measure, OperatorHandle, build_lattice, grid_oracle_norm
from martpara import normest
from martpara.normest import KINDS
from martpara.suite import _tiny_instances, _tiny_operators

from oracles import naive_block_scan
from test_oracle_bytes import SHAPES, _random_cases

RANDOM_GROUPS = [f"{a}x{d} " for a, d in SHAPES] + ["2x2 dead-leaf"]
#: the battery's exponents, and p = 4 for the kinds it runs at p = 2
EXPONENTS = {"vector_paraproduct": [(4.0, 2.0)], "shifted": [(4.0, 2.0)],
             "positive": [(2.0, 2.0), (4.0, 2.0)], "paraproduct": [(2.0, 2.0), (4.0, 2.0)]}


def assert_dense_bytes(op, name=""):
    assert grid_oracle_norm(op).hex() == naive_block_scan(op).hex(), name


def test_grid_oracle_gives_the_dense_scans_bytes_on_the_battery():
    for label, op in _tiny_operators():
        assert_dense_bytes(op, label)


@pytest.mark.parametrize("group", RANDOM_GROUPS)
def test_grid_oracle_gives_the_dense_scans_bytes_on_random_operators(group):
    cases = [(name, op) for name, op in _random_cases()
             if name.startswith(group) and not (group == "2x2 " and "dead-leaf" in name)]
    assert cases
    for name, op in cases:
        assert_dense_bytes(op, name)


def _levels(lat, values):
    """Per-generation coefficient arrays from one value per edge."""
    flat = np.asarray(values, dtype=float).reshape(lat.n_internal, lat.arity)
    return EdgeCoefficients(lat, [flat[lat.offsets[d]:lat.offsets[d + 1]] for d in range(lat.depth)])


def _tie_prone(lat):
    """Coefficients under which many grid points share the best score."""
    n = lat.n_internal * lat.arity
    mirrored = np.tile(np.repeat([0.5, -0.5], lat.arity // 2), lat.n_internal)
    single = np.zeros(n)
    single[1] = 0.75
    return {"equal": np.full(n, 0.5), "mirrored": mirrored, "zero": np.zeros(n), "single": single}


@pytest.mark.parametrize("shape", [(2, 2), (4, 1)])
@pytest.mark.parametrize("pattern", ["equal", "mirrored", "zero", "single"])
def test_grid_oracle_gives_the_dense_scans_bytes_on_ties(shape, pattern):
    lat = build_lattice(*shape)
    uniform = Measure(lat, np.full(lat.n_leaves, 1.0 / lat.n_leaves))
    beta = _levels(lat, _tie_prone(lat)[pattern])
    for kind in KINDS:
        for p, q in EXPONENTS[kind]:
            assert_dense_bytes(OperatorHandle.from_beta(kind, beta, p, q, uniform, uniform),
                               f"{kind} p={p} q={q}")


@pytest.mark.parametrize("label", ["2a", "2x2z"])
@pytest.mark.parametrize("kind", ["vector_paraproduct", "paraproduct"])
def test_grid_oracle_gives_the_dense_scans_bytes_on_scaled_measures(label, kind):
    _, lat, mu, nu, beta = next(inst for inst in _tiny_instances() if inst[0] == label)
    for t in (1e-250, 1e250):
        scaled = Measure(lat, t * mu.leaf_mass), Measure(lat, t * nu.leaf_mass)
        assert_dense_bytes(OperatorHandle.from_beta(kind, beta, 4.0, 2.0, scaled[0], nu), ("mu", t))
        assert_dense_bytes(OperatorHandle.from_beta(kind, beta, 4.0, 2.0, mu, scaled[1]), ("nu", t))


#: exponents that fold every step (p = 2 or 4: ``below`` proves blocks) and
#: that leave a numeric power (p = 3, vector (3, 1.5): the bound alone)
SOUNDNESS_EXPONENTS = {
    "vector_paraproduct": [(4.0, 2.0), (2.0, 2.0), (4.0, 4.0), (3.0, 1.5)],
    "shifted": [(4.0, 2.0), (8.0, 2.0), (3.0, 2.0)],
    "positive": [(2.0, 2.0), (4.0, 2.0), (3.0, 2.0)],
    "paraproduct": [(2.0, 2.0), (4.0, 2.0), (3.0, 2.0)],
}


@st.composite
def operators(draw):
    arity, depth = draw(st.sampled_from([(3, 1), (2, 2), (4, 1)]))
    kind = draw(st.sampled_from(KINDS))
    p, q = draw(st.sampled_from(SOUNDNESS_EXPONENTS[kind]))
    lat = build_lattice(arity, depth)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mu_mass = 0.1 + rng.random(lat.n_leaves)
    mu_mass[rng.random(lat.n_leaves) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if not mu_mass.any():
        mu_mass[0] = 1.0
    coeffs = rng.standard_normal(lat.n_internal * lat.arity)
    coeffs[rng.random(len(coeffs)) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    # one measure far out in the range (both would take the scores past
    # it); the positive kind reads mu's integrals, so its outputs, whose
    # powers the ratio takes, scale with mu: only its nu moves
    scales = {"mu": 1.0, "nu": 1.0}
    moved = draw(st.sampled_from(["nu"] if kind == "positive" else ["mu", "nu"]))
    scales[moved] = draw(st.sampled_from([1.0, 1e-250, 1e250]))
    mu = Measure(lat, scales["mu"] * mu_mass)
    nu = Measure(lat, scales["nu"] * (0.1 + rng.random(lat.n_leaves)))
    return OperatorHandle.from_beta(kind, _levels(lat, coeffs), p, q, mu, nu)


@settings(max_examples=30)
@given(operators())
def test_every_dense_score_is_within_its_blocks_bound(op):
    """The dense scan's best score of every block is at most the block's
    bound, and below every level at which ``below`` proves the block."""
    scores = []
    value = naive_block_scan(op, scores)
    g = normest._Grid(op)
    if g.k < 2 or g.n_blocks == 1:
        return
    bounds = normest._Bounds(g)
    scores = np.array(scores)
    assert np.all(scores <= bounds.bound)
    for level in (0.9 * scores.max(), bounds.level(value)):
        for lo in range(0, g.n_blocks, bounds.batch):
            blocks = np.arange(lo, min(lo + bounds.batch, g.n_blocks))
            assert np.all(scores[blocks][bounds.below(blocks, level)] < level)


def test_four_leaf_battery_operators_scan_few_blocks(monkeypatch):
    """A block is scanned once at most, 30% of a four-leaf grid's blocks at
    most, and its best point alone is re-scored, one column of ``ratios``
    per scanned block: re-scoring a batch of columns is not bit for bit."""
    scanned, columns = [], []
    scan, ratios = normest._scan_block, normest._Grid.ratios

    def counting_scan(g, block, buf):
        scanned.append(block)
        return scan(g, block, buf)

    def counting_ratios(g, X):
        columns.append(X.shape[1])
        return ratios(g, X)

    monkeypatch.setattr(normest, "_scan_block", counting_scan)
    monkeypatch.setattr(normest._Grid, "ratios", counting_ratios)
    four_leaf = [(label, op) for label, op in _tiny_operators() if op.lattice.n_leaves == 4]
    assert len(four_leaf) == 12
    for label, op in four_leaf:
        n_blocks = normest._Grid(op).n_blocks
        scanned.clear()
        columns.clear()
        grid_oracle_norm(op)
        assert 0 < len(scanned) <= 0.3 * n_blocks, (label, len(scanned), n_blocks)
        assert len(set(scanned)) == len(scanned), label
        assert columns == [1] * len(scanned), label
