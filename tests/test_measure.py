import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from martpara import (
    Exponents,
    Measure,
    average,
    atom_averages,
    build_lattice,
    lp_norm,
)
from martpara.instances import (
    Instance,
    InstanceFormatError,
    generate_random_instance,
    instance_from_json,
    instance_to_json,
)

from helpers import random_setup
from oracles import naive_average, naive_mass


def test_atom_mass_examples(binary_uniform):
    lat, mu = binary_uniform
    assert mu.mass(lat.root) == 1.0
    null = Measure(lat, [0.0, 0.0])
    assert null.mass(lat.root) == 0.0
    lat3 = build_lattice(3, 1)
    m3 = Measure(lat3, [0.2, 0.3, 0.5])
    assert m3.mass(lat3.root) == pytest.approx(1.0)


def test_average_examples(binary_uniform):
    lat, mu = binary_uniform
    f = np.array([1.0, 3.0])
    assert average(f, lat.root, mu) == 2.0
    assert average(f, lat.root, Measure(lat, [0.0, 0.0])) == 0.0
    skew = Measure(lat, [0.25, 0.75])
    assert average(f, lat.root, skew) == pytest.approx(2.5)


def test_lp_norm_examples(binary_uniform):
    lat, mu = binary_uniform
    assert lp_norm([1.0, 3.0], 2.0, mu) == pytest.approx(np.sqrt(5.0))
    assert lp_norm([4.0, 4.0], 3.7, mu) == pytest.approx(4.0)  # constant, unit mass
    assert lp_norm([1.0, 3.0], 2.0, Measure(lat, [0.0, 1.0])) == pytest.approx(3.0)


def test_measure_rejects_bad_input():
    lat = build_lattice(2, 1)
    with pytest.raises(ValueError):
        Measure(lat, [1.0])
    with pytest.raises(ValueError):
        Measure(lat, [-1.0, 2.0])
    with pytest.raises(ValueError):
        Measure(lat, [np.inf, 0.0])
    with pytest.raises(ValueError, match="finite total"):
        Measure(lat, [1e308, 1e308])


def test_additivity_check():
    _, mu, nu, _, _ = random_setup(3, 3, seed=11)
    assert mu.check_additivity()
    assert nu.check_additivity()


@given(st.integers(0, 5000))
def test_average_matches_naive(seed):
    lat, mu, _, _, f = random_setup(2, 3, seed=seed)
    for atom in lat.atoms():
        assert average(f, atom, mu) == pytest.approx(
            naive_average(lat, f, mu.leaf_mass, atom), abs=1e-12
        )
        assert mu.mass(atom) == pytest.approx(naive_mass(lat, mu.leaf_mass, atom))


@given(st.integers(0, 5000))
def test_average_times_mass_is_integral(seed):
    lat, mu, _, _, f = random_setup(2, 3, seed=seed)
    for atom in lat.atoms():
        lhs = average(f, atom, mu) * mu.mass(atom)
        rhs = float(np.dot(f[lat.leaf_slice(atom)], mu.leaf_mass[lat.leaf_slice(atom)]))
        assert lhs == pytest.approx(rhs, abs=1e-12)


@given(st.integers(0, 5000), st.sampled_from([1.5, 2.0, 3.0]))
def test_power_mean_inequality(seed, p):
    """|avg f|^p <= avg |f|^p on every positive-mass atom."""
    lat, mu, _, _, f = random_setup(2, 4, seed=seed)
    avg_abs_p = atom_averages(np.abs(f) ** p, mu)
    for atom in lat.atoms():
        if mu.mass(atom) == 0.0:
            continue
        lhs = abs(average(f, atom, mu)) ** p
        rhs = avg_abs_p[atom.depth][atom.index]
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


def test_exponents_derived_values():
    e = Exponents(p=4.0, q=2.0)
    assert e.p_prime == pytest.approx(4.0 / 3.0)
    assert e.r == 2.0
    assert e.r_prime == 2.0
    with pytest.raises(ValueError):
        Exponents(p=1.0)
    with pytest.raises(ValueError):
        _ = Exponents(p=2.0, q=2.0).r_prime


# -- instance file round trip -------------------------------------------------

def test_instance_round_trip_bit_exact(tmp_path):
    inst = generate_random_instance(3, 2, seed=42)
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert np.array_equal(inst.mu.leaf_mass, again.mu.leaf_mass)
    assert np.array_equal(inst.nu.leaf_mass, again.nu.leaf_mass)
    assert np.array_equal(inst.f, again.f)
    for d in range(inst.lattice.depth):
        assert np.array_equal(inst.beta.level(d), again.beta.level(d))
    # serialization is idempotent byte for byte
    assert instance_to_json(again) == text


def test_instance_rejects_malformed():
    with pytest.raises(InstanceFormatError, match="mu"):
        instance_from_json(json.dumps({"arity": 2, "depth": 1, "nu": [1, 1], "beta": {}}))
    with pytest.raises(InstanceFormatError, match="beta"):
        instance_from_json(
            json.dumps({"arity": 2, "depth": 1, "mu": [1, 1], "nu": [1, 1], "beta": {"x": 1}})
        )
    with pytest.raises(InstanceFormatError, match="nu"):
        instance_from_json(
            json.dumps({"arity": 2, "depth": 1, "mu": [1, 1], "nu": [-1, 1], "beta": {}})
        )


def test_generator_determinism_and_sparsity():
    a = generate_random_instance(2, 3, seed=9)
    b = generate_random_instance(2, 3, seed=9)
    assert np.array_equal(a.mu.leaf_mass, b.mu.leaf_mass)
    assert np.array_equal(a.beta.level(1), b.beta.level(1))
    dense = generate_random_instance(2, 3, seed=9, sparsity=0.0)
    assert np.all(dense.mu.leaf_mass > 0)
    empty = generate_random_instance(2, 3, seed=9, sparsity=1.0)
    assert empty.nu.total() == 0.0
