"""A batch of leaf functions, shape (batch, n_leaves), gives row by row the
bytes of the 1-D calls, signed zeros included.  The norm estimator relies on
this: all its starts climb as the rows of one batch."""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from martpara import (
    EdgeCoefficients,
    Measure,
    NonnegativeCoefficients,
    OperatorHandle,
    atom_averages,
    build_lattice,
    lp_norm,
    project_mean_zero,
)
from martpara.normest import KINDS, _Rows

from oracles import naive_value_and_grad

SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]
VALUES = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)


@st.composite
def batches(draw):
    """(lattice, measure, rows): masses with zeros, rows with signed zeros,
    and rows that vanish everywhere or on every massed leaf."""
    arity, depth = draw(st.sampled_from(SHAPES))
    lat = build_lattice(arity, depth)
    n = lat.n_leaves
    mass = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.25, 1.0, 3.5])))
    if not np.any(mass > 0.0):
        mass[draw(st.integers(0, n - 1))] = 1.0
    batch = draw(st.integers(1, 5))
    x = draw(hnp.arrays(float, (batch, n), elements=VALUES))
    for row in range(batch):
        kind = draw(st.sampled_from(["as drawn", "as drawn", "zero", "dead leaves only"]))
        if kind == "zero":
            x[row] = 0.0
        elif kind == "dead leaves only":
            x[row] = np.where(mass > 0.0, 0.0, x[row])
    return lat, Measure(lat, mass), x


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@given(batches())
def test_block_sums_rows(case):
    lat, _, x = case
    batched = lat.block_sums(x)
    for row in range(len(x)):
        single = lat.block_sums(x[row])
        assert all(same_bytes(b[row], s) for b, s in zip(batched, single))


@given(batches(), st.data())
def test_chain_sum_rows(case, data):
    lat, _, x = case
    per_depth = [
        data.draw(st.one_of(
            st.none(),
            hnp.arrays(float, (len(x), lat.level_size(d)), elements=VALUES),
        ))
        for d in range(lat.depth + 1)
    ]
    batched = lat.chain_sum(per_depth)
    for row in range(len(x)):
        single = lat.chain_sum([None if v is None else v[row] for v in per_depth])
        assert same_bytes(np.broadcast_to(batched, (len(x), lat.n_leaves))[row], single)


@given(batches())
def test_atom_averages_rows(case):
    lat, mu, x = case
    batched = atom_averages(x, mu)
    for row in range(len(x)):
        assert all(same_bytes(b[row], s) for b, s in zip(batched, atom_averages(x[row], mu)))


@given(batches(), st.sampled_from([1.5, 2.0, 3.0, 4.0, 1.0 / 3.0]))
def test_lp_norm_rows(case, p):
    lat, mu, x = case
    batched = lp_norm(x, p, mu)
    for row in range(len(x)):
        assert same_bytes(batched[row], np.float64(lp_norm(x[row], p, mu)))


def _handle(kind, p, q, mu, nu, beta):
    if kind == "paraproduct":
        return OperatorHandle(kind=kind, p=p, mu=mu, nu=nu, symbol=project_mean_zero(beta, nu))
    if kind == "positive":
        alpha = NonnegativeCoefficients(beta.lattice, [np.abs(c) for c in beta._levels])
        return OperatorHandle(kind=kind, p=p, mu=mu, nu=nu, alpha=alpha)
    return OperatorHandle(kind=kind, p=p, q=q, mu=mu, nu=nu, beta=beta)


@given(
    batches(),
    st.sampled_from(KINDS),
    st.sampled_from([(2.0, 2.0), (3.0, 1.5), (1.5, 3.0), (4.0, 2.0)]),
    st.integers(0, 2 ** 32 - 1),
    st.booleans(),
)
def test_value_and_grad_rows(case, kind, pq, seed, zero_coefficients):
    """Each row of the batched ratio and gradient equals the batch of one
    and the per-start gradient it replaced (``None`` there is a row
    without a gradient here, left zero)."""
    lat, mu, x = case
    p, q = pq
    rng = np.random.default_rng(seed)
    nu = Measure(lat, np.where(rng.random(lat.n_leaves) < 0.3, 0.0, 1.0 - rng.random(lat.n_leaves)))
    beta = EdgeCoefficients(lat, [
        (0.0 if zero_coefficients else 1.0) * rng.standard_normal((lat.level_size(d), lat.arity))
        for d in range(lat.depth)
    ])
    rows = _Rows(_handle(kind, p, q, mu, nu, beta))
    if rows.op.positive_only:
        x = np.abs(x)
    ratio, grad, has_grad = rows.value_and_grad(x)
    assert same_bytes(rows.ratios(x), ratio)
    for row in range(len(x)):
        one = rows.value_and_grad(x[row:row + 1])
        assert all(same_bytes(b[row], s[0]) for b, s in zip((ratio, grad, has_grad), one))
        val, g = naive_value_and_grad(rows.op, x[row])
        assert same_bytes(ratio[row], np.float64(val))
        assert has_grad[row] == (g is not None)
        assert same_bytes(grad[row], np.zeros(lat.n_leaves) if g is None else g)
