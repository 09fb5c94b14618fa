import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from martpara import (
    EdgeCoefficients,
    Measure,
    NonnegativeCoefficients,
    Symbol,
    adjoint_testing,
    build_cantor_instance,
    build_lattice,
    direct_testing,
    direct_testing_symbol,
    generate_random_instance,
    positive_operator_testing,
)
from martpara.testing import adjoint_witness_data

from helpers import random_setup
from oracles import (
    naive_adjoint_testing,
    naive_direct_testing,
    naive_positive_testing,
)


def haar_setup():
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    beta = EdgeCoefficients.from_dict(lat, {(0, 0, 0): 1.0, (0, 0, 1): -1.0})
    return lat, mu, beta


def test_direct_symbol_examples():
    lat, mu, beta = haar_setup()
    sym = Symbol(beta, mu)
    assert direct_testing_symbol(sym, 2.0, mu) == pytest.approx(1.0)
    zero = Symbol(EdgeCoefficients(lat), mu)
    assert direct_testing_symbol(zero, 2.0, mu) == 0.0
    # massless mu under a nu-charged symbol forces +inf
    dead_mu = Measure(lat, [0.0, 0.0])
    assert direct_testing_symbol(sym, 2.0, dead_mu) == math.inf


def test_direct_testing_examples():
    lat, mu, beta = haar_setup()
    assert direct_testing(beta, 2.0, 2.0, mu, mu) == pytest.approx(1.0)
    assert direct_testing(EdgeCoefficients(lat), 2.0, 2.0, mu, mu) == 0.0
    inst = build_cantor_instance(4, 4.0, 0.3)
    cap = (1.0 - (2.0 / 3.0) ** 0.5) ** -0.5
    assert cap == pytest.approx(2.3344, abs=1e-4)
    b = direct_testing(inst.symbol.beta, 4.0, 2.0, inst.mu, inst.nu)
    assert b <= cap


def test_adjoint_testing_examples():
    lat, mu, beta = haar_setup()
    assert adjoint_testing(beta, 4.0, 2.0, mu, mu) == pytest.approx(1.0)
    assert adjoint_testing(EdgeCoefficients(lat), 4.0, 2.0, mu, mu) == 0.0
    with pytest.raises(ValueError):
        adjoint_testing(beta, 2.0, 2.0, mu, mu)
    # strict growth along the truncation (the separation mechanism)
    values = []
    for n in (2, 3, 4):
        inst = build_cantor_instance(n, 4.0, 0.3)
        values.append(adjoint_testing(inst.symbol.beta, 4.0, 2.0, inst.mu, inst.nu))
    assert values[0] < values[1] < values[2]


def test_adjoint_infinite_on_massless_charged_atom():
    lat = build_lattice(2, 2)
    mu = Measure(lat, [0.0, 0.0, 0.5, 0.5])  # left child massless
    nu = Measure(lat, np.full(4, 0.25))
    beta = EdgeCoefficients.from_dict(lat, {(1, 0, 0): 1.0, (1, 0, 1): -1.0})
    assert adjoint_testing(beta, 4.0, 2.0, mu, nu) == math.inf


def test_positive_testing_examples():
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    alpha = NonnegativeCoefficients.from_dict(lat, {(0, 0, 0): 1.0})
    b, b_star = positive_operator_testing(alpha, 2.0, mu, mu)
    assert b == pytest.approx(math.sqrt(0.5))
    # adjoint constant integrates the step function against nu:
    # int a d(nu) = 0.5 on the root, so the ratio is 0.25 and B* = 0.5
    assert b_star == pytest.approx(0.5)
    assert positive_operator_testing(NonnegativeCoefficients(lat), 2.0, mu, mu) == (0.0, 0.0)


@given(st.integers(0, 2000), st.sampled_from([(2.0, 2.0), (1.5, 2.0), (4.0, 2.0)]))
def test_direct_matches_naive(seed, exps):
    p, q = exps
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed)
    got = direct_testing(beta, p, q, mu, nu)
    want = naive_direct_testing(lat, beta, p, q, mu.leaf_mass, nu.leaf_mass)
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(st.integers(0, 2000), st.sampled_from([(4.0, 2.0), (3.0, 2.0), (4.0, 3.0)]))
def test_adjoint_matches_naive(seed, exps):
    p, q = exps
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed)
    got = adjoint_testing(beta, p, q, mu, nu)
    want = naive_adjoint_testing(lat, beta, p, q, mu.leaf_mass, nu.leaf_mass)
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@given(st.integers(0, 2000), st.sampled_from([1.5, 2.0, 3.0]))
def test_positive_matches_naive(seed, p):
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed)
    alpha = NonnegativeCoefficients(lat, [np.abs(beta.level(d)) for d in range(lat.depth)])
    got = positive_operator_testing(alpha, p, mu, nu)
    want = naive_positive_testing(lat, alpha, p, mu.leaf_mass, nu.leaf_mass)
    assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-12)
    assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-12)


@given(st.integers(0, 2000))
def test_monotone_in_coefficient_size(seed):
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed, sparsity=0.0)
    bigger = EdgeCoefficients(lat, [np.abs(beta.level(d)) * 1.5 for d in range(lat.depth)])
    small_abs = EdgeCoefficients(lat, [np.abs(beta.level(d)) for d in range(lat.depth)])
    assert direct_testing(small_abs, 3.0, 2.0, mu, nu) <= direct_testing(
        bigger, 3.0, 2.0, mu, nu
    ) * (1.0 + 1e-12)
    assert adjoint_testing(small_abs, 4.0, 2.0, mu, nu) <= adjoint_testing(
        bigger, 4.0, 2.0, mu, nu
    ) * (1.0 + 1e-12)


@given(st.integers(0, 2000), st.floats(0.25, 4.0))
def test_scale_covariance(seed, t):
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed, sparsity=0.0)
    q = 2.0
    assert direct_testing(beta.scaled(t), 3.0, q, mu, nu) == pytest.approx(
        t * direct_testing(beta, 3.0, q, mu, nu), rel=1e-10
    )
    assert adjoint_testing(beta.scaled(t), 4.0, q, mu, nu) == pytest.approx(
        t ** q * adjoint_testing(beta, 4.0, q, mu, nu), rel=1e-10
    )


@given(st.integers(0, 2000))
def test_restricted_sup_never_exceeds_full(seed):
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed)
    full = naive_direct_testing(lat, beta, 3.0, 2.0, mu.leaf_mass, nu.leaf_mass)
    some = [a for i, a in enumerate(lat.atoms()) if i % 2 == 0]
    restricted = naive_direct_testing(lat, beta, 3.0, 2.0, mu.leaf_mass, nu.leaf_mass, tops=some)
    assert restricted <= full or (math.isinf(restricted) and math.isinf(full))


@given(st.integers(0, 2000))
def test_positive_testing_from_substitution(seed):
    """Coefficients mass^(-1)|b|^q turn the vector-paraproduct constants into
    the positive-operator ones: B_T^r = B^p and B*_T = B* at exponent r."""
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed, sparsity=0.0)
    p, q = 4.0, 2.0
    r = p / q
    from martpara import positive_from_symbol

    alpha = positive_from_symbol(beta, q, mu)
    bt, bt_star = positive_operator_testing(alpha, r, mu, nu)
    b = direct_testing(beta, p, q, mu, nu)
    b_star = adjoint_testing(beta, p, q, mu, nu)
    assert bt ** r == pytest.approx(b ** p, rel=1e-9, abs=1e-12)
    assert bt_star == pytest.approx(b_star, rel=1e-9, abs=1e-12)


def test_adjoint_witness_data_consistency():
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=123, sparsity=0.0)
    value, witnesses = adjoint_witness_data(beta, 4.0, 2.0, mu, nu)
    assert value == pytest.approx(adjoint_testing(beta, 4.0, 2.0, mu, nu))
    assert witnesses
    for atom, profile in witnesses:
        sl = lat.leaf_slice(atom)
        outside = np.ones(lat.n_leaves, dtype=bool)
        outside[sl] = False
        assert np.all(profile[outside] == 0.0)
        assert np.all(profile >= 0.0)


def test_adjoint_witness_data_rejects_what_adjoint_testing_rejects():
    """At p = 2, q = 0.5 the witness data used to certify a constant (2.916)
    that adjoint_testing refuses."""
    inst = generate_random_instance(2, 3, seed=1, sparsity=0.0)
    for p, q in ((2.0, 0.5), (2.0, 1.0), (2.0, 2.0), (2.0, 3.0)):
        with pytest.raises(ValueError) as ref:
            adjoint_testing(inst.beta, p, q, inst.mu, inst.nu)
        with pytest.raises(ValueError) as got:
            adjoint_witness_data(inst.beta, p, q, inst.mu, inst.nu)
        assert str(got.value) == str(ref.value)
    value, _ = adjoint_witness_data(inst.beta, 4.0, 2.0, inst.mu, inst.nu)
    assert value == adjoint_testing(inst.beta, 4.0, 2.0, inst.mu, inst.nu)


def test_testing_constants_hold_few_leaf_arrays():
    """One call of each constant on 2^14 leaves holds under eight leaf arrays
    of temporaries: one cut chain, one integrand, the flat terms and the
    block sums.  Keeping every cut depth's chain alive held about twenty."""
    inst = generate_random_instance(2, 14, seed=0, sparsity=0.0)
    beta, mu, nu = inst.beta, inst.mu, inst.nu
    alpha = beta.absolute()
    bound = 8 * inst.lattice.n_leaves * np.dtype(float).itemsize
    calls = {
        "direct_testing": lambda: direct_testing(beta, 4.0, 2.0, mu, nu),
        "adjoint_testing": lambda: adjoint_testing(beta, 4.0, 2.0, mu, nu),
        "positive_operator_testing": lambda: positive_operator_testing(alpha, 3.0, mu, nu),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (name, peak)
