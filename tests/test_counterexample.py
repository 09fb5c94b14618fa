import math

import numpy as np
import pytest

from martpara import (
    build_cantor_instance,
    chain_energy,
    direct_testing_cap,
    divergence_report,
    lp_norm,
)


def test_build_small_instance_masses():
    inst = build_cantor_instance(2, 4.0, 0.3)
    assert inst.lattice.n_leaves == 9
    # surviving depth-2 leaves carry 1/4 each; ternary indices 0, 2, 6, 8
    expected = np.zeros(9)
    expected[[0, 2, 6, 8]] = 0.25
    assert np.allclose(inst.nu.leaf_mass, expected)
    assert inst.nu.total() == pytest.approx(1.0)
    assert inst.mu.total() == pytest.approx(1.0)


def test_root_component_amplitude_is_one():
    inst = build_cantor_instance(2, 4.0, 0.3)
    root_row = inst.symbol.beta.level(0)[0]
    assert np.allclose(root_row, [-1.0, 0.0, 1.0])
    # second generation amplitude (2/3)^(1/4)
    amp = (2.0 / 3.0) ** 0.25
    surviving = inst.symbol.beta.level(1)
    assert np.allclose(surviving[0], [-amp, 0.0, amp])
    assert np.allclose(surviving[1], 0.0)  # middle third carries no symbol
    assert np.allclose(surviving[2], [-amp, 0.0, amp])


def test_probe_norm_closed_form():
    for depth in (2, 3, 5):
        inst = build_cantor_instance(depth, 4.0, 0.3)
        closed = 0.5 * sum(k ** (-1.2) for k in range(1, depth + 1))
        assert lp_norm(inst.f, inst.p, inst.mu) ** inst.p == pytest.approx(closed, rel=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_cantor_instance(1, 4.0, 0.3)
    with pytest.raises(ValueError):
        build_cantor_instance(3, 2.0, 0.3)
    with pytest.raises(ValueError):
        build_cantor_instance(3, 4.0, 0.2)  # r <= 1/p
    with pytest.raises(ValueError):
        build_cantor_instance(3, 4.0, 0.6)


def test_mean_zero_is_exact():
    inst = build_cantor_instance(3, 4.0, 0.3)
    lat = inst.lattice
    for d in range(lat.depth):
        lvl = inst.symbol.beta.level(d)
        child_mass = inst.nu.level_mass[d + 1].reshape(-1, 3)
        assert np.all((lvl * child_mass).sum(axis=1) == 0.0)


def test_cap_value():
    assert direct_testing_cap(4.0) == pytest.approx(2.3344, abs=1e-4)


def test_lower_bound_first_row():
    # single-term bound at n=1: 3^-4 * 3/2 = 1/54; rows start at n=2
    rows = divergence_report(3, 4.0, 0.3)
    partial2 = 1.0 + 2.0 ** -0.6
    assert rows[0].lower_bound == pytest.approx(3.0 ** -4 * 1.5 * partial2 ** 2)
    assert 3.0 ** -4 * 1.5 == pytest.approx(1.0 / 54.0)


def test_divergence_report_monotonicity_and_caps():
    rows = divergence_report(6, 4.0, 0.3)
    assert [row.n for row in rows] == [2, 3, 4, 5, 6]
    cap = direct_testing_cap(4.0)
    for row in rows:
        assert row.b_direct <= cap
        assert row.q_value >= row.lower_bound
    directs = [row.b_direct for row in rows]
    adjoints = [row.b_adjoint for row in rows]
    energies = [row.q_value for row in rows]
    assert all(b2 >= b1 for b1, b2 in zip(directs, directs[1:]))
    assert all(b2 > b1 for b1, b2 in zip(adjoints, adjoints[1:]))
    assert all(q2 > q1 for q1, q2 in zip(energies, energies[1:]))


def test_direct_constant_matches_closed_form():
    """On the truncated instance the top ratio is attained at the root, where
    the chain sum telescopes to a finite geometric series."""
    for depth in (2, 4):
        inst = build_cantor_instance(depth, 4.0, 0.3)
        from martpara import direct_testing

        got = direct_testing(inst.symbol.beta, 4.0, 2.0, inst.mu, inst.nu)
        partial = sum((2.0 / 3.0) ** (2.0 * k / 4.0) for k in range(depth))
        assert got == pytest.approx(math.sqrt(partial), rel=1e-12)


def test_chain_energy_region_restriction():
    inst = build_cantor_instance(3, 4.0, 0.3)
    # the full-support region integral dominates deeper restrictions
    assert chain_energy(inst, 1) >= chain_energy(inst, 3)
    assert chain_energy(inst, 3) > 0.0


def test_q_growth_beats_partial_sum_ratio():
    """The measured growth dominates the ratio of the explicit lower bounds:
    (sum_1^10 k^-0.6 / sum_1^2 k^-0.6)^2, about 7.2."""
    rows = divergence_report(10, 4.0, 0.3)
    by_n = {row.n: row for row in rows}
    floor = (
        sum(k ** -0.6 for k in range(1, 11)) / sum(k ** -0.6 for k in range(1, 3))
    ) ** 2
    assert floor == pytest.approx(7.2, abs=0.1)
    assert by_n[10].q_value / by_n[2].q_value >= floor


def test_report_bounds_nmax():
    with pytest.raises(ValueError):
        divergence_report(13, 4.0, 0.3)
    with pytest.raises(ValueError):
        divergence_report(1, 4.0, 0.3)


def test_report_relabels_only_the_power_overflow(monkeypatch):
    """A p too large names p alone; any other ValueError of the testing
    constants passes through with its own message."""
    with pytest.raises(ValueError, match=r"^p=2000.0 is too large: the values of row n=3 overflow$"):
        divergence_report(3, 2000.0, 0.3)

    def other_error(*args):
        raise ValueError("some other check")

    monkeypatch.setattr("martpara.counterexample.direct_testing", other_error)
    with pytest.raises(ValueError, match=r"^some other check$"):
        divergence_report(3, 4.0, 0.3)
