import numpy as np
import pytest
from hypothesis import given, strategies as st

from martpara import (
    EdgeCoefficients,
    Measure,
    NonnegativeCoefficients,
    Symbol,
    bilinear_form,
    build_lattice,
    lp_norm,
    pairing,
    paraproduct_apply,
    positive_apply,
    positive_from_symbol,
    power_apply,
    project_mean_zero,
    sequence_norm,
    shifted_apply,
    vector_paraproduct,
)
from martpara import paraproduct
from martpara.lattice import Atom
from martpara.measure import atom_integrals
from martpara.testing import (
    adjoint_testing,
    adjoint_witness_data,
    direct_testing,
    direct_testing_symbol,
    positive_operator_testing,
)

from helpers import random_setup
from oracles import (
    naive_paraproduct,
    naive_positive,
    naive_power,
    naive_sequence_norm,
    naive_shifted,
    naive_vector_paraproduct,
)


def haar_beta(lat):
    return EdgeCoefficients.from_dict(lat, {(0, 0, 0): 1.0, (0, 0, 1): -1.0})


def test_symbol_component_examples(binary_uniform):
    lat, mu = binary_uniform
    beta = haar_beta(lat)
    assert np.allclose(beta.component(lat.root), [1.0, -1.0])
    assert np.allclose(EdgeCoefficients(lat).component(lat.root), 0.0)
    lat3 = build_lattice(3, 1)
    b3 = EdgeCoefficients.from_dict(lat3, {(0, 0, 0): 2.0, (0, 0, 2): -1.0})
    assert np.allclose(b3.component(lat3.root), [2.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        beta.component(Atom(1, 0))


def test_symbol_mean_zero_validation(binary_uniform):
    lat, mu = binary_uniform
    Symbol(haar_beta(lat), mu)  # balanced: fine
    lopsided = EdgeCoefficients.from_dict(lat, {(0, 0, 0): 1.0, (0, 0, 1): -0.5})
    with pytest.raises(ValueError, match="mean-zero"):
        Symbol(lopsided, mu)
    # a massless child carries no constraint
    half = Measure(lat, [0.0, 0.7])
    Symbol(EdgeCoefficients.from_dict(lat, {(0, 0, 0): 5.0}), half)


@pytest.mark.parametrize("row,masses", [
    ([1.0, 1.0 + 1e-13], [0.3, 0.9]),
    ([0.1, 0.1], [0.1, 0.7]),
    ([1.0, 1.0 + 1e-13, 5.0], [0.3, 0.9, 1e-20]),
])
def test_project_mean_zero_nearly_equal_siblings(row, masses):
    """Nearly equal siblings under unequal masses leave tiny corrected values
    whose rounding error is that of the originals; the result must still pass
    the Symbol check, and equal siblings must become exactly 0."""
    lat = build_lattice(len(row), 1)
    nu = Measure(lat, masses)
    got = project_mean_zero(EdgeCoefficients(lat, [np.array([row])]), nu).beta.level(0)[0]
    assert abs(np.dot(got, masses)) <= 1e-9 * np.dot(np.abs(got), masses)
    if row[0] == row[1]:
        assert np.all(got == 0.0)
    # the correction moves every massed slot by the same amount
    shift = got - np.array(row)
    assert np.allclose(shift, shift[0], rtol=0.0, atol=1e-15)


def test_project_mean_zero_rechecks_its_fallback_rows(monkeypatch):
    """The rows that pass the check after the plain correction are not
    checked again; the rows the fallback recomputes are, so a fallback row
    that is not mean-zero raises the message of the full Symbol check."""
    lat = build_lattice(2, 2)
    nu = Measure(lat, [0.3, 0.9, 0.5, 0.7])
    beta = EdgeCoefficients(lat, [np.array([[0.2, -0.4]]),
                                  np.array([[1.0, 1.0 + 1e-13], [0.3, 0.1]])])
    good = project_mean_zero(beta, nu).beta._flat
    exact, calls = paraproduct._exact_corrections, []

    def corrupted(c, m, act, totals):
        calls.append(len(c))
        out = exact(c, m, act, totals)
        out[0, 0] += 1.0
        return out

    monkeypatch.setattr(paraproduct, "_exact_corrections", corrupted)
    with pytest.raises(ValueError) as exc:
        project_mean_zero(beta, nu)
    assert calls == [1]  # atom (1, 0) alone takes the fallback
    bad = good.copy()
    bad[1, 0] += 1.0
    with pytest.raises(ValueError) as full:
        Symbol(EdgeCoefficients(lat, [bad[:1], bad[1:]]), nu)
    assert str(exc.value) == str(full.value)
    assert "atom (1, 0)" in str(exc.value)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_project_mean_zero_subtracts_the_mean(seed):
    """Where the plain correction passes the Symbol check, the result is the
    per-atom correction of this loop to the bit."""
    lat, mu, nu, beta, _ = random_setup(3, 3, seed=seed, sparsity=0.3)
    sym = project_mean_zero(beta, nu)
    for d in range(lat.depth):
        want = beta.level(d).copy()
        mass = nu.level_mass[d + 1].reshape(-1, lat.arity)
        for i in range(lat.level_size(d)):
            active = mass[i] > 0
            if active.sum() == 1:
                want[i, active] = 0.0
            elif active.sum() > 1:
                want[i, active] -= (want[i] * mass[i]).sum() / mass[i].sum()
        assert np.array_equal(sym.beta.level(d), want)


def test_paraproduct_examples(binary_uniform):
    lat, mu = binary_uniform
    sym = Symbol(haar_beta(lat), mu)
    assert np.allclose(paraproduct_apply(sym, np.array([1.0, 3.0]), mu), [2.0, -2.0])
    assert np.allclose(paraproduct_apply(Symbol(EdgeCoefficients(lat), mu), [9.0, 1.0], mu), 0.0)
    lat2 = build_lattice(2, 2)
    mu2 = Measure(lat2, np.full(4, 0.25))
    beta2 = EdgeCoefficients.from_dict(lat2, {(0, 0, 0): 1.0, (0, 0, 1): -1.0})
    sym2 = Symbol(beta2, mu2)
    out = paraproduct_apply(sym2, np.array([4.0, 0.0, 0.0, 0.0]), mu2)
    assert np.allclose(out, [1.0, 1.0, -1.0, -1.0])


def test_vector_paraproduct_examples(binary_uniform):
    lat, mu = binary_uniform
    s = vector_paraproduct(haar_beta(lat), np.array([1.0, 3.0]), mu)
    assert s.level(1)[0] == 2.0
    assert s.level(1)[1] == -2.0
    zero = vector_paraproduct(haar_beta(lat), np.zeros(2), mu)
    assert np.allclose(zero.level(1), 0.0)
    # massless parent produces zero entries by the averaging convention
    dead = Measure(lat, [0.0, 0.0])
    s0 = vector_paraproduct(haar_beta(lat), np.array([1.0, 3.0]), dead)
    assert np.allclose(s0.level(1), 0.0)


def test_sequence_norm_examples(binary_uniform):
    lat, mu = binary_uniform
    s = vector_paraproduct(haar_beta(lat), np.array([1.0, 3.0]), mu)
    assert sequence_norm(s, 2.0, 2.0, mu) == pytest.approx(2.0)
    zero = vector_paraproduct(EdgeCoefficients(lat), np.ones(2), mu)
    assert sequence_norm(zero, 2.0, 2.0, mu) == 0.0
    # single nonzero entry collapses to |value| * mass^(1/p)
    lone = vector_paraproduct(
        EdgeCoefficients.from_dict(lat, {(0, 0, 0): 3.0}), np.ones(2), mu
    )
    assert sequence_norm(lone, 4.0, 2.0, mu) == pytest.approx(3.0 * 0.5 ** 0.25)


def test_power_and_shifted_examples(binary_uniform):
    lat, mu = binary_uniform
    beta = haar_beta(lat)
    f = np.array([1.0, 3.0])
    assert np.allclose(power_apply(beta, f, 2.0, mu), [4.0, 4.0])
    assert np.allclose(power_apply(beta, np.zeros(2), 2.0, mu), 0.0)
    assert np.allclose(shifted_apply(beta, f, 2.0, mu), [2.0, 2.0])
    assert np.allclose(shifted_apply(beta, np.zeros(2), 2.0, mu), 0.0)
    # norm identity on the worked example
    assert lp_norm(power_apply(beta, f, 2.0, mu), 1.0, mu) ** 0.5 == pytest.approx(2.0)


def test_positive_apply_examples(binary_uniform):
    lat, mu = binary_uniform
    alpha = NonnegativeCoefficients.from_dict(lat, {(0, 0, 0): 1.0})
    assert np.allclose(positive_apply(alpha, np.array([1.0, 3.0]), mu), [2.0, 0.0])
    assert np.allclose(positive_apply(NonnegativeCoefficients(lat), np.ones(2), mu), 0.0)
    with pytest.raises(ValueError):
        NonnegativeCoefficients.from_dict(lat, {(0, 0, 0): -1.0})


def test_bilinear_and_pairing_examples(binary_uniform):
    lat, mu = binary_uniform
    beta = haar_beta(lat)
    f = np.array([1.0, 3.0])
    g = np.array([3.0, 1.0])
    assert np.allclose(bilinear_form(beta, f, g, mu), [4.0, 4.0])
    assert np.allclose(bilinear_form(beta, f, f, mu), power_apply(beta, f, 2.0, mu))
    assert pairing(np.ones(2), np.ones(2), mu) == pytest.approx(1.0)
    assert pairing(np.array([2.0, 0.0]), np.array([1.0, 3.0]), mu) == pytest.approx(1.0)


# -- randomized agreement with the naive oracles -------------------------------

@given(st.integers(0, 3000), st.sampled_from([(2, 3), (3, 2)]))
def test_operators_match_naive(seed, shape):
    lat, mu, nu, beta, f = random_setup(*shape, seed=seed)
    assert np.allclose(
        vector_paraproduct(beta, f, mu).level(lat.depth),
        [
            naive_vector_paraproduct(lat, beta, f, mu.leaf_mass)[Atom(lat.depth, i)]
            for i in range(lat.n_leaves)
        ],
    )
    assert np.allclose(power_apply(beta, f, 2.5, mu), naive_power(lat, beta, f, 2.5, mu.leaf_mass))
    assert np.allclose(shifted_apply(beta, f, 2.5, mu), naive_shifted(lat, beta, f, 2.5, mu.leaf_mass))
    alpha = NonnegativeCoefficients(lat, [np.abs(beta.level(d)) for d in range(lat.depth)])
    assert np.allclose(positive_apply(alpha, f, mu), naive_positive(lat, alpha, f, mu.leaf_mass))
    sym = project_mean_zero(beta, nu)
    assert np.allclose(
        paraproduct_apply(sym, f, mu), naive_paraproduct(lat, sym.beta, f, mu.leaf_mass)
    )


@given(st.integers(0, 3000), st.sampled_from([(1.5, 2.0), (4.0, 2.0), (3.0, 2.5)]))
def test_norm_identity_power_vs_sequence(seed, exps):
    """Sequence norm of the vector output equals the (p/q)-norm of the
    q-power majorant raised to 1/q."""
    p, q = exps
    lat, mu, nu, beta, f = random_setup(2, 3, seed=seed)
    s = vector_paraproduct(beta, f, mu)
    lhs = sequence_norm(s, p, q, nu)
    rhs = lp_norm(power_apply(beta, f, q, mu), p / q, nu) ** (1.0 / q)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
    assert lhs == pytest.approx(
        naive_sequence_norm(
            lat, naive_vector_paraproduct(lat, beta, f, mu.leaf_mass), p, q, nu.leaf_mass
        ),
        rel=1e-9,
        abs=1e-12,
    )


@given(st.integers(0, 3000), st.sampled_from([1.5, 2.0, 3.0]))
def test_power_dominated_by_shifted(seed, q):
    lat, mu, _, beta, f = random_setup(2, 3, seed=seed)
    phi = power_apply(beta, f, q, mu)
    dominating = shifted_apply(beta, np.abs(f) ** q, q, mu)
    assert np.all(phi <= dominating * (1.0 + 1e-12) + 1e-12)


@given(st.integers(0, 3000))
def test_bilinear_dominated_by_power_mean(seed):
    lat, mu, _, beta, f = random_setup(2, 3, seed=seed)
    rng = np.random.default_rng(seed + 77)
    g = rng.standard_normal(lat.n_leaves)
    lhs = np.abs(bilinear_form(beta, f, g, mu))
    rhs = 0.5 * (power_apply(beta, f, 2.0, mu) + power_apply(beta, g, 2.0, mu))
    assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-12)


@given(st.integers(0, 3000))
def test_positive_duality(seed):
    lat, mu, nu, beta, f = random_setup(2, 3, seed=seed)
    alpha = NonnegativeCoefficients(lat, [np.abs(beta.level(d)) for d in range(lat.depth)])
    rng = np.random.default_rng(seed + 78)
    g = rng.standard_normal(lat.n_leaves)
    lhs = pairing(positive_apply(alpha, f, mu), g, nu)
    ints_f = atom_integrals(f, mu)
    ints_g = atom_integrals(g, nu)
    rhs = 0.0
    for atom in lat.atoms():
        if atom.depth == 0:
            continue
        parent = lat.parent(atom)
        coef = alpha.level(parent.depth)[parent.index, atom.index % lat.arity]
        rhs += coef * ints_f[parent.depth][parent.index] * ints_g[atom.depth][atom.index]
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@given(st.integers(0, 3000))
def test_shifted_is_positive_operator_with_substituted_coefficients(seed):
    lat, mu, _, beta, f = random_setup(2, 3, seed=seed)
    alpha = positive_from_symbol(beta, 2.0, mu)
    g = np.abs(f)
    assert np.allclose(
        shifted_apply(beta, g, 2.0, mu), positive_apply(alpha, g, mu), atol=1e-12
    )


@given(st.integers(0, 3000), st.floats(0.25, 4.0))
def test_homogeneity_in_the_coefficients(seed, t):
    lat, mu, nu, beta, f = random_setup(2, 3, seed=seed)
    scaled = beta.scaled(t)
    s1 = sequence_norm(vector_paraproduct(beta, f, mu), 3.0, 2.0, nu)
    s2 = sequence_norm(vector_paraproduct(scaled, f, mu), 3.0, 2.0, nu)
    assert s2 == pytest.approx(t * s1, rel=1e-10, abs=1e-12)
    sh1 = shifted_apply(beta, np.abs(f), 2.0, mu)
    sh2 = shifted_apply(scaled, np.abs(f), 2.0, mu)
    assert np.allclose(sh2, t ** 2 * sh1, rtol=1e-10, atol=1e-12)


@given(st.integers(0, 3000))
def test_paraproduct_reassembles_from_sequence_field(seed):
    """With coefficients given by a mean-zero symbol, the paraproduct equals
    the chain sum of the vector output, and at exponent 2 the norms agree."""
    lat, mu, nu, beta, f = random_setup(2, 3, seed=seed)
    sym = project_mean_zero(beta, nu)
    out = paraproduct_apply(sym, f, mu)
    s = vector_paraproduct(sym.beta, f, mu)
    assert np.allclose(out, lat.chain_sum(s._flat, 1), atol=1e-12)
    assert lp_norm(out, 2.0, nu) == pytest.approx(
        sequence_norm(s, 2.0, 2.0, nu), rel=1e-10, abs=1e-12
    )


#: every function that takes coefficients and measures, called with the
#: coefficient parts (beta, its |beta|, its symbol and a sequence field of
#: beta) on one lattice and mu, nu and the leaf function on another
ACROSS_LATTICES = {
    "paraproduct_apply": lambda c, mu, nu, f: paraproduct_apply(c["symbol"], f, mu),
    "vector_paraproduct": lambda c, mu, nu, f: vector_paraproduct(c["beta"], f, mu),
    "power_apply": lambda c, mu, nu, f: power_apply(c["beta"], f, 2.0, mu),
    "shifted_apply": lambda c, mu, nu, f: shifted_apply(c["beta"], f, 2.0, mu),
    "positive_apply": lambda c, mu, nu, f: positive_apply(c["alpha"], f, mu),
    "bilinear_form": lambda c, mu, nu, f: bilinear_form(c["beta"], f, f, mu),
    "sequence_norm": lambda c, mu, nu, f: sequence_norm(c["field"], 4.0, 2.0, nu),
    "Symbol": lambda c, mu, nu, f: Symbol(c["symbol"].beta, nu),
    "project_mean_zero": lambda c, mu, nu, f: project_mean_zero(c["beta"], nu),
    "positive_from_symbol": lambda c, mu, nu, f: positive_from_symbol(c["beta"], 2.0, mu),
    "direct_testing_symbol": lambda c, mu, nu, f: direct_testing_symbol(c["symbol"], 4.0, mu),
    "direct_testing": lambda c, mu, nu, f: direct_testing(c["beta"], 4.0, 2.0, mu, nu),
    "adjoint_testing": lambda c, mu, nu, f: adjoint_testing(c["beta"], 4.0, 2.0, mu, nu),
    "adjoint_witness_data": lambda c, mu, nu, f: adjoint_witness_data(c["beta"], 4.0, 2.0, mu, nu),
    "positive_operator_testing":
        lambda c, mu, nu, f: positive_operator_testing(c["alpha"], 4.0, mu, nu),
}


@pytest.mark.parametrize("name", sorted(ACROSS_LATTICES))
@pytest.mark.parametrize("home,away", [((2, 3), (6, 1)), ((2, 2), (4, 1)), ((2, 3), (2, 2))])
def test_parts_on_different_lattices_are_refused(name, home, away):
    """Coefficients on one lattice and measures on another raise the one
    lattice check's ValueError, naming both lattices, even where the leaf
    counts agree (binary depth 2 against arity 4, depth 1); those used to
    give numbers, and other pairs arrays of the wrong length or an
    IndexError.  Equal lattices built apart pass."""
    lat, mu, nu, beta, f = random_setup(*home, seed=0, sparsity=0.0)
    parts = {"beta": beta, "alpha": beta.absolute(), "symbol": project_mean_zero(beta, nu),
             "field": vector_paraproduct(beta, f, mu)}
    _, mu_away, nu_away, _, f_away = random_setup(*away, seed=1, sparsity=0.0)
    with pytest.raises(ValueError, match=rf"^the operator's parts live on different "
                                         rf"lattices: \w+ on Lattice\(arity={home[0]}, .*"
                                         rf"Lattice\(arity={away[0]}, depth={away[1]}\)$"):
        ACROSS_LATTICES[name](parts, mu_away, nu_away, f_away)
    twin = build_lattice(*home)
    assert twin is not lat
    ACROSS_LATTICES[name](parts, Measure(twin, mu.leaf_mass), Measure(twin, nu.leaf_mass), f)
