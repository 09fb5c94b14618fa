"""The flat kernels give, byte for byte, the per-generation kernels they
replaced (``naive_*`` in ``oracles.py``): on 1-D and batched rows, arity 2-5,
zero masses and signed zeros."""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from martpara import EdgeCoefficients, Measure, atom_averages, atom_integrals, build_lattice
from martpara.paraproduct import _edge_terms, _edge_terms_adjoint

from oracles import (
    naive_atom_averages,
    naive_atom_integrals,
    naive_block_sums,
    naive_chain_sum,
    naive_edge_terms,
    naive_edge_terms_adjoint,
)

VALUES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e150]),
)


@st.composite
def cases(draw):
    """(lattice, measure, lead shape, leaf rows): masses with zeros, rows
    with signed zeros, no batch axis or one of 0-4 rows."""
    arity = draw(st.integers(2, 5))
    depth = draw(st.integers(1, 3 if arity < 5 else 2))
    lat = build_lattice(arity, depth)
    mass = draw(hnp.arrays(float, lat.n_leaves, elements=st.sampled_from([0.0, 0.25, 1.0, 3.5])))
    lead = draw(st.sampled_from([(), (1,), (3,), (0,), (4,)]))
    x = draw(hnp.arrays(float, (*lead, lat.n_leaves), elements=VALUES))
    return lat, Measure(lat, mass), lead, x


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


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
    levels = [
        data.draw(hnp.arrays(float, (lat.level_size(d), lat.arity), elements=VALUES))
        for d in range(lat.depth)
    ]
    flat = EdgeCoefficients(lat, levels)._flat
    parents = data.draw(hnp.arrays(float, (*lead, lat.n_internal), elements=VALUES))
    children = data.draw(hnp.arrays(float, (*lead, lat.n_atoms - 1), elements=VALUES))
    terms = _edge_terms(flat, parents)
    assert same_levels(lat.split(terms, 1), naive_edge_terms(levels, lat.split(parents))[1:])
    adjoint = _edge_terms_adjoint(flat, children)
    assert same_levels(lat.split(adjoint),
                       naive_edge_terms_adjoint(levels, lat.split(children, 1)))
