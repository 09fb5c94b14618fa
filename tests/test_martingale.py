import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from martpara import (
    Measure,
    average,
    build_lattice,
    conjugate,
    expectation,
    generate_random_instance,
    lp_norm,
    martingale_difference,
    maximal_function,
    rubio_de_francia,
    square_function,
)
from martpara.lattice import Atom
from martpara.martingale import reconstruct

from helpers import random_setup
from oracles import naive_maximal, naive_square_function


def test_expectation_examples(binary_uniform):
    lat, mu = binary_uniform
    f = np.array([1.0, 3.0])
    assert np.allclose(expectation(f, lat.root, mu), [2.0, 2.0])
    assert np.allclose(expectation(f, Atom(1, 0), mu), [1.0, 0.0])
    half = Measure(lat, [0.0, 0.5])
    assert np.allclose(expectation(f, lat.root, half), [3.0, 3.0])


def test_martingale_difference_examples(binary_uniform):
    lat, mu = binary_uniform
    f = np.array([1.0, 3.0])
    assert np.allclose(martingale_difference(f, lat.root, mu), [-1.0, 1.0])
    assert np.allclose(martingale_difference(np.array([5.0, 5.0]), lat.root, mu), 0.0)
    half = Measure(lat, [0.0, 0.5])
    assert np.allclose(martingale_difference(f, lat.root, half), [-3.0, 0.0])
    with pytest.raises(ValueError):
        martingale_difference(f, Atom(1, 0), mu)


def test_square_function_examples(binary_uniform):
    lat, mu = binary_uniform
    assert np.allclose(square_function(np.array([1.0, 3.0]), mu), [1.0, 1.0])
    assert np.allclose(square_function(np.array([7.0, 7.0]), mu), 0.0)
    lat2 = build_lattice(2, 2)
    mu2 = Measure(lat2, np.full(4, 0.25))
    f = np.array([4.0, 0.0, 0.0, 0.0])
    expected = [np.sqrt(5.0), np.sqrt(5.0), 1.0, 1.0]
    assert np.allclose(square_function(f, mu2), expected)


def test_maximal_examples(binary_uniform):
    lat, mu = binary_uniform
    assert np.allclose(maximal_function(np.array([1.0, 3.0]), mu), [2.0, 3.0])
    assert np.allclose(maximal_function(np.array([4.0, 4.0]), mu), 4.0)
    assert np.allclose(maximal_function(np.array([-5.0, 1.0]), mu), [5.0, 2.0])


def test_rubio_de_francia_examples(binary_uniform):
    lat, mu = binary_uniform
    out = rubio_de_francia(np.array([1.0, 3.0]), mu, 2.0, tol=1e-14)
    assert np.allclose(out, [12.0 / 7.0, 4.0], atol=1e-12)
    assert np.allclose(rubio_de_francia(np.zeros(2), mu, 2.0), 0.0)
    const = rubio_de_francia(np.array([3.0, 3.0]), mu, 2.0, tol=1e-14)
    assert np.allclose(const, 4.0, atol=1e-12)  # c * 2p'/(2p'-1) with p=2


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_rubio_de_francia_rejects_a_bad_tol(binary_uniform, tol):
    """nan fails every comparison, so a plain ``tol <= 0`` test let it run
    all of the series' rounds; it is rejected before the first."""
    lat, mu = binary_uniform
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        rubio_de_francia(np.array([1.0, 3.0]), mu, 2.0, tol=tol)


def test_rubio_de_francia_raises_on_an_overflowing_average():
    """f times the masses overflows, so the first iterate holds inf; the
    series raises rather than run its cap of rounds on it."""
    mu = Measure(build_lattice(2, 3), np.full(8, 1e10))
    with np.errstate(over="ignore"):
        assert np.isinf(maximal_function(np.full(8, 1e300), mu)).all()
        with pytest.raises(ValueError, match="leaf function entries must be finite"):
            rubio_de_francia(np.full(8, 1e300), mu, 3.0)


@pytest.mark.parametrize("fn", [square_function, reconstruct, maximal_function])
@pytest.mark.parametrize("shape", [(2, 8), (1, 8)])
def test_martingale_functions_take_one_leaf_function(fn, shape):
    """A batch of leaf functions is refused up front: (2, 8) used to fail
    inside numpy broadcasting and (1, 8) to return a (1, 8) array."""
    mu = generate_random_instance(2, 3, seed=0).mu
    with pytest.raises(ValueError, match="expected 8 leaf values"):
        fn(np.ones(shape), mu)


@given(st.integers(0, 3000))
def test_square_and_maximal_match_naive(seed):
    lat, mu, _, _, f = random_setup(2, 3, seed=seed)
    assert np.allclose(square_function(f, mu), naive_square_function(lat, f, mu.leaf_mass))
    assert np.allclose(maximal_function(f, mu), naive_maximal(lat, f, mu.leaf_mass))


@given(st.integers(0, 3000), st.sampled_from([(2, 3), (3, 2)]))
def test_reconstruction_on_massed_leaves(seed, shape):
    lat, mu, _, _, f = random_setup(*shape, seed=seed)
    rebuilt = reconstruct(f, mu)
    alive = mu.leaf_mass > 0
    assert np.allclose(rebuilt[alive], f[alive], atol=1e-10)


@given(st.integers(0, 3000))
def test_differences_have_zero_integral_and_child_structure(seed):
    lat, mu, _, _, f = random_setup(2, 3, seed=seed)
    for atom in lat.atoms():
        if lat.is_leaf(atom):
            continue
        diff = martingale_difference(f, atom, mu)
        sl = lat.leaf_slice(atom)
        outside = np.ones(lat.n_leaves, dtype=bool)
        outside[sl] = False
        assert np.all(diff[outside] == 0.0)
        assert np.dot(diff, mu.leaf_mass) == pytest.approx(0.0, abs=1e-12)
        for child in lat.children(atom):
            block = diff[lat.leaf_slice(child)]
            assert np.allclose(block, block[0])


@given(st.integers(0, 3000), st.sampled_from([(2, 4), (3, 3)]))
def test_quadratic_identity(seed, shape):
    lat, mu, _, _, f = random_setup(*shape, seed=seed)
    lhs = lp_norm(f, 2.0, mu) ** 2
    rhs = average(f, lat.root, mu) ** 2 * mu.total() + lp_norm(square_function(f, mu), 2.0, mu) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@given(st.integers(0, 3000), st.sampled_from([1.5, 2.0, 3.0]))
def test_maximal_norm_bound(seed, p):
    lat, mu, _, _, f = random_setup(2, 4, seed=seed)
    assert lp_norm(maximal_function(f, mu), p, mu) <= conjugate(p) * lp_norm(f, p, mu) * (
        1.0 + 1e-12
    ) + 1e-15


@given(st.integers(0, 3000), st.sampled_from([1.5, 2.0, 3.0]))
def test_majorant_properties(seed, p):
    lat, mu, _, _, raw = random_setup(2, 3, seed=seed)
    f = np.abs(raw)
    tol = 1e-12
    rf = rubio_de_francia(f, mu, p, tol=tol)
    assert np.all(f <= rf + 1e-12)
    assert lp_norm(rf, p, mu) <= 2.0 * lp_norm(f, p, mu) * (1.0 + 1e-12)
    inv = 1.0 / (2.0 * conjugate(p))
    tail = tol / (1.0 - inv)
    for atom in lat.atoms():
        if mu.mass(atom) == 0.0:
            continue
        block = rf[lat.leaf_slice(atom)]
        avg = average(rf, atom, mu)
        assert block.min() >= inv * avg - tail - 1e-9 * max(1.0, avg)
