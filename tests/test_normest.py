import ast
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from martpara import (
    AscentConfig,
    EdgeCoefficients,
    Measure,
    OperatorHandle,
    adjoint_testing,
    build_lattice,
    direct_testing,
    equivalence_report,
    generate_random_instance,
    grid_oracle_norm,
    necessity_report,
    norm_lower_bound,
    paraproduct_apply,
    positive_apply,
    project_mean_zero,
    shifted_apply,
    vector_paraproduct,
)
import martpara
from martpara import normest
from martpara.normest import KINDS, MAX_START_VALUES, _Rows
from martpara.suite import _tiny_instances, _tiny_operators

from helpers import handle_at, random_setup, same_bytes
from oracles import naive_grid_oracle, naive_norm_lower_bound

LIGHT = AscentConfig(starts=8, max_iter=60, ascend_top=6, seed=0)


def haar_op(p=2.0, t=1.0):
    """The paraproduct of t times the two-leaf Haar symbol, already mean-zero."""
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    beta = EdgeCoefficients.from_dict(lat, {(0, 0, 0): t, (0, 0, 1): -t})
    return OperatorHandle.from_beta("paraproduct", beta, p, 2.0, mu, mu)


def test_haar_paraproduct_norm_is_one():
    est = norm_lower_bound(haar_op(), LIGHT)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.converged
    # reported value is the recomputed ratio of the reported maximizer
    op = haar_op()
    assert op.ratio(est.argmax) == pytest.approx(est.value, rel=1e-9)


def test_zero_operator_norm_is_zero():
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    op = OperatorHandle(
        kind="vector_paraproduct", p=2.0, q=2.0, mu=mu, nu=mu, beta=EdgeCoefficients(lat)
    )
    assert norm_lower_bound(op, LIGHT).value == 0.0


def test_all_dead_measure_is_an_error():
    lat = build_lattice(2, 1)
    dead = Measure(lat, [0.0, 0.0])
    live = Measure(lat, [0.5, 0.5])
    op = OperatorHandle(
        kind="vector_paraproduct", p=2.0, q=2.0, mu=dead, nu=live,
        beta=EdgeCoefficients.from_dict(lat, {(0, 0, 0): 1.0}),
    )
    with pytest.raises(ValueError):
        norm_lower_bound(op, LIGHT)


@pytest.mark.parametrize("p,q", [(3.0, 1.5), (1.5, 3.0), (4.0, 2.0)])
@pytest.mark.parametrize("kind", ["paraproduct", "vector_paraproduct", "shifted", "positive"])
def test_value_and_grad_matches_central_differences(kind, p, q):
    """The analytic gradient of the log ratio against central differences,
    on 8- and 9-leaf trees with massless leaves in both measures; on
    mu-massless leaves the gradient is exactly 0."""
    h = 1e-6
    massless = 0
    for arity, depth in ((2, 3), (3, 2)):
        for seed in range(3):
            lat, mu, nu, beta, x = random_setup(arity, depth, seed, sparsity=0.3)
            op = handle_at(kind, p, q, mu, nu, beta)
            vals, grads, _ = _Rows(op).value_and_grad(x[None])
            val, grad = vals[0], grads[0]
            assert val == pytest.approx(op.ratio(x), rel=1e-15)
            fd = np.empty(lat.n_leaves)
            for j in range(lat.n_leaves):
                e = np.zeros(lat.n_leaves)
                e[j] = h
                fd[j] = (np.log(op.ratio(x + e)) - np.log(op.ratio(x - e))) / (2.0 * h)
            err = np.max(np.abs(grad - fd))
            assert err <= 1e-6 * np.max(np.abs(grad)), (arity, depth, seed, err)
            assert np.all(grad[mu.leaf_mass == 0.0] == 0.0)
            massless += int(np.sum(mu.leaf_mass == 0.0))
    assert massless > 0


def test_handle_validation():
    """A handle takes the fields of its shape and no others: flat
    coefficients of the lattice's shape for a linear kind, beta and q for
    the vector kind."""
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    coeffs = np.ones((lat.n_internal, lat.arity))
    with pytest.raises(ValueError):
        OperatorHandle(kind="nope", p=2.0, mu=mu, nu=mu)
    linear = r"takes \(1, 2\) flat coefficients, no beta or q"
    with pytest.raises(ValueError, match=linear):
        OperatorHandle(kind="shifted", p=2.0, mu=mu, nu=mu, beta=EdgeCoefficients(lat))
    with pytest.raises(ValueError, match=linear):
        OperatorHandle(kind="positive", p=2.0, mu=mu, nu=mu)
    with pytest.raises(ValueError, match=linear):
        OperatorHandle(kind="paraproduct", p=2.0, q=2.0, mu=mu, nu=mu, coeffs=coeffs)
    with pytest.raises(ValueError, match=linear):
        OperatorHandle(kind="positive", p=2.0, mu=mu, nu=mu, coeffs=coeffs.T)
    with pytest.raises(ValueError, match="takes beta and the exponent q"):
        OperatorHandle(kind="vector_paraproduct", p=2.0, mu=mu, nu=mu, beta=EdgeCoefficients(lat))
    with pytest.raises(ValueError, match="takes beta and the exponent q"):
        OperatorHandle(kind="vector_paraproduct", p=2.0, q=2.0, mu=mu, nu=mu,
                       beta=EdgeCoefficients(lat), coeffs=coeffs)
    with pytest.raises(ValueError):
        OperatorHandle(kind="vector_paraproduct", p=2.0, q=0.0, mu=mu, nu=mu, beta=EdgeCoefficients(lat))
    OperatorHandle(kind="positive", p=2.0, mu=mu, nu=mu, coeffs=coeffs)


def public_apply(kind, beta, q, mu, nu):
    """The public apply the handle of ``kind`` stands for, as a function of x."""
    if kind == "vector_paraproduct":
        return lambda x: vector_paraproduct(beta, x, mu)._flat
    if kind == "shifted":
        return lambda x: shifted_apply(beta, x, q, mu)
    if kind == "positive":
        return lambda x: positive_apply(beta.absolute(), x, mu)
    return lambda x: paraproduct_apply(project_mean_zero(beta, nu), x, mu)


def signed_batch(mu, seed):
    """Four leaf functions: one with signed zeros, one living on the
    mu-massless leaves only (-0.0 elsewhere), a zero one and a plain one."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, mu.lattice.n_leaves))
    x[0, rng.random(mu.lattice.n_leaves) < 0.5] = -0.0
    x[1] = np.where(mu.leaf_mass > 0.0, -0.0, x[1])
    x[2] = 0.0
    return x


def assert_applies_as_public(op, beta, q, nu, x):
    """``op.apply`` gives the bytes of its public apply on the batch x and
    on each of its rows."""
    want = public_apply(op.kind, beta, q, op.mu, nu)
    for rows in [x, *x]:
        got = op.apply(rows)
        assert same_bytes(got if op.linear else got._flat, want(rows)), op.kind


def test_from_beta_builds_the_hand_built_handles():
    """Every kind's handle from ``from_beta`` applies, byte for byte, as the
    public apply it stands for: ``paraproduct_apply`` on the projected
    symbol, ``shifted_apply``, ``positive_apply`` on |beta| and
    ``vector_paraproduct``; and it runs at the exponent that kind takes.
    On random instances with massless leaves in mu and nu, with every
    coefficient and with about a third of them zeroed, on batches with
    signed zeros and rows living on mu-massless leaves, and on the battery's
    tiny operators."""
    cases = []
    for arity, depth, seed in ((2, 1, 0), (3, 2, 1), (2, 4, 2), (4, 2, 3)):
        lat, mu, nu, beta, _ = random_setup(arity, depth, seed, sparsity=0.3)
        rng = np.random.default_rng(seed)
        zeroed = EdgeCoefficients(lat, [np.where(rng.random(lvl.shape) < 1 / 3, 0.0, lvl)
                                        for lvl in map(beta.level, range(depth))])
        cases += [(beta, mu, nu), (zeroed, mu, nu)]
    instances = {label: (beta, mu, nu) for label, _, mu, nu, beta in _tiny_instances()}
    cases += instances.values()
    massless = 0
    for k, (beta, mu, nu) in enumerate(cases):
        x = signed_batch(mu, k)
        massless += int(np.any(x[1] != 0.0))
        for p, q in ((4.0, 2.0), (3.0, 1.5), (2.5, 1.25)):
            for kind in KINDS:
                op = OperatorHandle.from_beta(kind, beta, p, q, mu, nu)
                assert op.p == (p / q if kind == "shifted" else p)
                assert op.q == (q if kind == "vector_paraproduct" else None)
                assert_applies_as_public(op, beta, q, nu, x)
    assert massless
    names = {"vector_paraproduct": "vector"}
    ops = _tiny_operators()
    assert [label for label, _ in ops] == [
        f"{inst}/{names.get(kind, kind)}" for inst in instances for kind in KINDS]
    for k, (label, op) in enumerate(ops):
        beta, mu, nu = instances[label.split("/")[0]]
        assert op.p == (4.0 if op.kind == "vector_paraproduct" else 2.0)
        assert_applies_as_public(op, beta, 2.0, nu, signed_batch(mu, k))


def test_from_beta_rejects_what_it_cannot_build():
    lat, mu, nu, beta, _ = random_setup(2, 2, seed=1)
    for p, q in ((2.0, 2.0), (1.5, 2.0), (2.0, 1.0), (2.0, 0.0), (2.0, -1.0)):
        with pytest.raises(ValueError, match=rf"must be a finite number > 1, got p={p}, q={q}"):
            OperatorHandle.from_beta("shifted", beta, p, q, mu, nu)
    with pytest.raises(ValueError, match="unknown operator kind"):
        OperatorHandle.from_beta("nope", beta, 4.0, 2.0, mu, nu)


@pytest.mark.parametrize("kind", KINDS)
def test_handle_rejects_parts_on_different_lattices(kind):
    """beta, mu and nu on different lattices raise a ValueError that names
    each one's lattice, before ``from_beta`` derives a coefficient (each
    mismatch used to give a numpy broadcast error, and the paraproduct
    ``project_mean_zero``'s IndexError); a handle built directly checks them
    too."""
    _, mu, nu, beta, _ = random_setup(2, 2, seed=0)
    _, _, nu_deep, beta_deep, _ = random_setup(2, 3, seed=0)
    _, _, _, beta_wide, _ = random_setup(3, 2, seed=0)
    for b, m, n in ((beta_deep, mu, nu), (beta, mu, nu_deep), (beta_wide, mu, nu)):
        where = f"beta on {b.lattice}, mu on {m.lattice}, nu on {n.lattice}"
        message = f"^the operator's parts live on different lattices: {re.escape(where)}$"
        with pytest.raises(ValueError, match=message):
            OperatorHandle.from_beta(kind, b, 4.0, 2.0, m, n)
        if kind == "vector_paraproduct":
            with pytest.raises(ValueError, match=message):
                OperatorHandle(kind=kind, p=4.0, q=2.0, mu=m, nu=n, beta=b)
    coeffs = OperatorHandle.from_beta("positive", beta, 4.0, 2.0, mu, nu).coeffs
    with pytest.raises(ValueError, match=re.escape("mu on Lattice(arity=2, depth=2), nu on "
                                                   "Lattice(arity=2, depth=3)") + "$"):
        OperatorHandle(kind="positive", p=4.0, mu=mu, nu=nu_deep, coeffs=coeffs)


def test_oversized_start_batch_is_refused_before_it_is_built():
    """Starts times leaves over ``MAX_START_VALUES`` raise at once: with 2^22
    random starts asked for on 4 leaves, building the batch first would
    draw them one by one."""
    lat, mu, nu, beta, _ = random_setup(2, 2, seed=0, sparsity=0.0)
    op = OperatorHandle.from_beta("vector_paraproduct", beta, 4.0, 2.0, mu, nu)
    starts = MAX_START_VALUES // lat.n_leaves - lat.n_atoms + 1
    with pytest.raises(ValueError, match="batch limit"):
        norm_lower_bound(op, AscentConfig(starts=starts, max_iter=0))


@pytest.mark.parametrize("field,value", [
    ("starts", -3), ("starts", -20), ("starts", 2.5), ("max_iter", -5), ("max_iter", None),
    ("ascend_top", -1), ("ascend_top", 1.0),
])
def test_ascent_config_rejects_bad_counts(field, value):
    """A negative or non-integer count names its field (``starts=-3`` used
    to fail inside numpy, ``ascend_top=-1`` and ``max_iter=-5`` to skip the
    ascent silently); zero counts and ``ascend_top=None`` stay valid."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got {value!r}$"):
        AscentConfig(**{field: value})
    AscentConfig(starts=0, max_iter=0, ascend_top=0)
    AscentConfig(starts=np.int64(2), ascend_top=None)


def test_certificate_start_of_wrong_shape_is_refused():
    """Certificate starts are written into rows of the start batch, so one of
    the wrong length must raise rather than broadcast across its row."""
    lat, mu, nu, beta, _ = random_setup(2, 2, seed=0, sparsity=0.0)
    op = OperatorHandle.from_beta("vector_paraproduct", beta, 4.0, 2.0, mu, nu)
    for bad in (np.ones(1), np.ones(lat.n_leaves + 1), np.ones((1, lat.n_leaves))):
        with pytest.raises(ValueError, match="certificate start 1 has shape"):
            norm_lower_bound(op, AscentConfig(starts=1, max_iter=0,
                                              extra_starts=(np.ones(lat.n_leaves), bad)))


def test_oracle_examples():
    # averaging projection onto the root: norm exactly 1
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    proj = EdgeCoefficients.from_dict(lat, {(0, 0, 0): 1.0, (0, 0, 1): 1.0})
    op = OperatorHandle(kind="vector_paraproduct", p=2.0, q=2.0, mu=mu, nu=mu, beta=proj)
    assert grid_oracle_norm(op) == pytest.approx(1.0, abs=1e-3)
    # the worked two-leaf paraproduct
    assert grid_oracle_norm(haar_op()) == pytest.approx(1.0, abs=1e-3)
    # exact degree-one homogeneity on the same grid
    assert grid_oracle_norm(haar_op(t=2.0)) == pytest.approx(2.0 * grid_oracle_norm(haar_op()))
    # and at a scale where the squared outputs would overflow unscaled
    huge = 2.0 ** 560
    want = huge * grid_oracle_norm(haar_op(p=1.5))
    assert grid_oracle_norm(haar_op(1.5, huge)) == pytest.approx(want)


def test_oracle_rejects_big_instances():
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=0)
    op = OperatorHandle(kind="vector_paraproduct", p=4.0, q=2.0, mu=mu, nu=nu, beta=beta)
    with pytest.raises(ValueError):
        grid_oracle_norm(op)


def assert_matches_naive_grid(op):
    """The block-wise scan returns the naive scan's value to relative 1e-15."""
    got, want = grid_oracle_norm(op), naive_grid_oracle(op, normest._GRID_RESOLUTION)
    assert abs(got - want) <= 1e-15 * abs(want), (got, want)


# every kind on the 2- and 3-leaf instances, two 4-leaf operators (the naive
# 4-leaf scans take 0.5-5 s each, so only two of the twelve), and on 2a and
# 3u the exponents whose power after the square is not 1: p = 3, and
# (p, q) = (3, 1.5) for the vector kind, which run numerically after the
# square; p = 4 for the positive kind and the paraproduct, whose forms are
# squared; and for the vector kind (4, 4), squared before the membership
# fold, and (6, 4), squared and then raised to 1.5
_SMALL = [(label, op) for label, op in _tiny_operators() if label.split("/")[0] in ("2a", "3u")]
_AGREEMENT_OPS = [
    (label, op) for label, op in _tiny_operators()
    if label.split("/")[0] in ("2u", "2a", "3u") or label in ("2x2z/positive", "4a/paraproduct")
] + [
    (f"{label}/p3", replace(op, p=3.0, q=1.5) if op.kind == "vector_paraproduct" else replace(op, p=3.0))
    for label, op in _SMALL
] + [
    (f"{label}/p4", replace(op, p=4.0))
    for label, op in _SMALL if op.kind in ("positive", "paraproduct")
] + [
    (f"{label}/p{p:g}q4", replace(op, p=p, q=4.0))
    for label, op in _SMALL if op.kind == "vector_paraproduct" for p in (4.0, 6.0)
]


@pytest.mark.parametrize("label,op", _AGREEMENT_OPS, ids=[label for label, _ in _AGREEMENT_OPS])
def test_grid_oracle_matches_naive_scan(label, op):
    assert_matches_naive_grid(op)


@pytest.mark.parametrize("label", ["2a", "2x2z"])
@pytest.mark.parametrize("kind", ["vector_paraproduct", "paraproduct"])
def test_grid_oracle_scales_with_the_measures(label, kind):
    """Scaling nu by t scales the oracle by t^(1/p), and scaling mu by t
    scales it by t^(-1/p), far out in the floating-point range."""
    _, lat, mu, nu, beta = next(inst for inst in _tiny_instances() if inst[0] == label)
    p = 4.0
    base = grid_oracle_norm(OperatorHandle.from_beta(kind, beta, p, 2.0, mu, nu))
    for t in (1e-250, 1e250):
        scaled = Measure(lat, t * nu.leaf_mass)
        got = grid_oracle_norm(OperatorHandle.from_beta(kind, beta, p, 2.0, mu, scaled))
        assert got == pytest.approx(base * t ** (1.0 / p), rel=1e-14, abs=0.0), ("nu", t)
        scaled = Measure(lat, t * mu.leaf_mass)
        got = grid_oracle_norm(OperatorHandle.from_beta(kind, beta, p, 2.0, scaled, nu))
        assert got == pytest.approx(base * t ** (-1.0 / p), rel=1e-14, abs=0.0), ("mu", t)


@pytest.mark.parametrize("mu_leaf", [[0.4, 0.0, 0.8, 0.6], [0.0, 0.0, 0.5, 0.0]])
@pytest.mark.parametrize("kind", ["vector_paraproduct", "paraproduct"])
def test_grid_oracle_matches_naive_scan_on_dead_leaves(mu_leaf, kind):
    """Massless mu leaves leave the grid on the alive ones (``alive_idx``);
    one alive leaf takes the single-point path."""
    lat = build_lattice(2, 2)
    rng = np.random.default_rng(3)
    mu = Measure(lat, mu_leaf)
    nu = Measure(lat, 0.1 + rng.random(4))
    beta = EdgeCoefficients(lat, [rng.standard_normal((lat.level_size(d), 2)) for d in range(2)])
    assert_matches_naive_grid(
        OperatorHandle.from_beta(kind, beta, 2.0 if kind == "paraproduct" else 4.0, 2.0, mu, nu))


@pytest.mark.parametrize("seed", [1, 5, 9])
@pytest.mark.parametrize("kind", ["vector_paraproduct", "shifted", "positive"])
def test_ascent_meets_oracle_small(seed, kind):
    lat = build_lattice(2, 1)
    rng = np.random.default_rng(seed)
    mu = Measure(lat, 0.2 + rng.random(2))
    nu = Measure(lat, 0.2 + rng.random(2))
    beta = EdgeCoefficients(lat, [rng.standard_normal((1, 2))])
    # the shifted kind runs at r = 4/2, the positive kind at p = 2
    op = OperatorHandle.from_beta(kind, beta, 2.0 if kind == "positive" else 4.0, 2.0, mu, nu)
    est = norm_lower_bound(op, AscentConfig(starts=16, max_iter=200, seed=0))
    oracle = grid_oracle_norm(op)
    assert abs(est.value - oracle) <= max(1e-3, 2e-2)
    # soundness: the estimate never exceeds the oracle beyond grid error
    assert est.value <= oracle + 2e-2


def test_positive_kind_maximizer_is_nonnegative():
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=3, sparsity=0.0)
    op = OperatorHandle.from_beta("shifted", beta, 4.0, 2.0, mu, nu)
    est = norm_lower_bound(op, LIGHT)
    assert np.all(est.argmax >= 0.0)


def test_vector_ascent_climbs_below_q_1():
    """At q < 1 the gradient's factor |s|^(q-1) sign(s) is inf at a zero
    output entry s; it is taken as 0 there, so the ascent climbs, with no
    RuntimeWarning, to a finite value that is the ratio of its maximizer."""
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=0)
    op = OperatorHandle.from_beta("vector_paraproduct", beta, 2.0, 0.5, mu, nu)
    est = norm_lower_bound(op, LIGHT)
    assert np.isfinite(est.value) and est.iterations > 0
    assert est.value == op.ratio(est.argmax)


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_indicator_starts_dominate_direct_constant(seed):
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed, mu_sparsity=0.0)
    p, q = 4.0, 2.0
    b = direct_testing(beta, p, q, mu, nu)
    est = norm_lower_bound(
        OperatorHandle(kind="vector_paraproduct", p=p, q=q, mu=mu, nu=nu, beta=beta),
        AscentConfig(starts=0, max_iter=0),
    )
    assert b <= est.value * (1.0 + 1e-9)


@pytest.mark.parametrize("seed,pq", [(2, (4.0, 2.0)), (11, (3.0, 2.0)), (17, (4.0, 3.0))])
def test_necessity_report_checks_hold(seed, pq):
    p, q = pq
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed, mu_sparsity=0.0)
    rep = necessity_report(beta, p, q, mu, nu, AscentConfig(starts=4, max_iter=10, ascend_top=2))
    for name, lhs, rhs in rep.checks:
        assert lhs <= rhs * (1.0 + 1e-6), name
    assert rep.factor == pytest.approx(4.0 * p / (p - q))


@pytest.mark.parametrize("seed", [4, 13])
def test_equivalence_report_two_sided(seed):
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=seed, mu_sparsity=0.0)
    rep = equivalence_report(
        beta, 4.0, 2.0, mu, nu, AscentConfig(starts=4, max_iter=20, ascend_top=3)
    )
    assert rep.passed, rep.checks
    assert rep.a_vector ** 2 <= rep.a_shifted * (1.0 + 1e-9)
    assert rep.a_shifted <= 8.0 * rep.a_vector ** 2 * (1.0 + 1e-9)
    assert rep.b_direct <= rep.a_vector * (1.0 + 1e-9)
    assert rep.b_adjoint <= 8.0 * rep.a_vector ** 2 * (1.0 + 1e-9)


def test_equivalence_zero_coefficients_trivial():
    lat = build_lattice(2, 2)
    mu = Measure(lat, np.full(4, 0.25))
    rep = equivalence_report(
        EdgeCoefficients(lat), 4.0, 2.0, mu, mu, AscentConfig(starts=2, max_iter=5)
    )
    assert rep.passed
    assert rep.a_vector == 0.0 and rep.a_shifted == 0.0
    assert rep.b_direct == 0.0 and rep.b_adjoint == 0.0


def test_equivalence_requires_p_above_q():
    lat, mu, nu, beta, _ = random_setup(2, 2, seed=1)
    with pytest.raises(ValueError):
        equivalence_report(beta, 2.0, 2.0, mu, nu)
    with pytest.raises(ValueError):
        necessity_report(beta, 2.0, 2.0, mu, nu)


def assert_same_estimate(got, want):
    """Every field of the estimate, the maximizer's bytes included."""
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert got.argmax.dtype == want.argmax.dtype and got.argmax.shape == want.argmax.shape
    assert got.argmax.tobytes() == want.argmax.tobytes()
    assert (got.starts_used, got.iterations, got.converged, got.start_kind) == (
        want.starts_used, want.iterations, want.converged, want.start_kind)
    assert type(got.iterations) is int and type(got.converged) is bool


def spy_fan_outs(monkeypatch) -> list:
    """Record [rows, width, candidates] of every line-search evaluation of
    ``_ascend``: its active rows, their fan-out width and the candidates it
    evaluated (fewer than rows x width where the 1e-13 floor cut a row's)."""
    fans: list = []
    fan_width, value_and_grad = normest._fan_width, _Rows.value_and_grad

    def width(n_rows, n_leaves):
        fans.append([n_rows, fan_width(n_rows, n_leaves)])
        return fans[-1][1]

    def evaluate(self, x):
        if fans and len(fans[-1]) == 2:
            fans[-1].append(len(x))
        return value_and_grad(self, x)

    monkeypatch.setattr(normest, "_fan_width", width)
    monkeypatch.setattr(_Rows, "value_and_grad", evaluate)
    return fans


@pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("kind", ["paraproduct", "vector_paraproduct", "shifted", "positive"])
def test_lock_step_ascent_matches_per_start_oracle(kind, sparsity, monkeypatch):
    """The lock-step ascent returns what climbing every start alone did, on
    arity 2-4 and depth 1-4, with a zero start and a start living on
    massless leaves among the extra starts, ``ascend_top`` None and k, and
    ``max_iter`` 0, 1, 10 and 60 (some ascents converge, some run out), and
    with the default ``AscentConfig()`` on the depth-3 tree.

    Every case runs at the default candidate cap (tiny trees: width 4) and
    at a cap of four candidates of one row, where width-1 and width-4
    evaluations mix within one ascent as rows finish.  With ``_STEP_TOL`` 0
    (depth 1-2) rows climb until their step falls to the 1e-13 floor, which
    cuts some fan-outs short."""
    fans = spy_fan_outs(monkeypatch)
    step_tol, default_cap = normest._STEP_TOL, normest._CANDIDATE_VALUES
    converged = {True: 0, False: 0}
    mixed = cut = 0
    for k, (arity, depth) in enumerate([(2, 1), (4, 1), (3, 2), (4, 2), (2, 3), (2, 4)]):
        lat, mu, nu, beta, f = random_setup(arity, depth, seed=31 * k + int(10 * sparsity),
                                            sparsity=sparsity)
        if not np.any(mu.leaf_mass > 0.0):
            continue
        op = handle_at(kind, 3.0 if kind == "vector_paraproduct" else 2.5, 1.5, mu, nu, beta)
        extra = (np.zeros(lat.n_leaves), np.where(mu.leaf_mass > 0.0, 0.0, 1.0), f)
        configs = [
            AscentConfig(starts=2, max_iter=10, seed=k),
            AscentConfig(starts=3, max_iter=1, ascend_top=3, seed=k, extra_starts=extra),
            AscentConfig(starts=2, max_iter=0, seed=k, extra_starts=extra),
        ]
        tols = [step_tol] * len(configs)
        if depth <= 2:
            configs.append(AscentConfig(starts=2, max_iter=60, ascend_top=3, seed=k))
            tols.append(0.0)
        if depth == 3 and sparsity == 0.6:
            configs.append(AscentConfig())
            tols.append(step_tol)
        for cfg, tol in zip(configs, tols):
            monkeypatch.setattr(normest, "_STEP_TOL", tol)
            want = naive_norm_lower_bound(op, cfg)
            for cap in (default_cap, 4 * lat.n_leaves):
                monkeypatch.setattr(normest, "_CANDIDATE_VALUES", cap)
                fans.clear()
                est = norm_lower_bound(op, cfg)
                assert_same_estimate(est, want)
                converged[est.converged] += 1
                mixed += {1, 4} <= {width for _, width, _ in fans}
                cut += any(n_cand < rows * width for rows, width, n_cand in fans)
    assert converged[True] and converged[False]
    assert mixed and cut


def test_fan_out_halves_the_evaluations(monkeypatch):
    """On ascent-small-style instances (27- and 81-leaf trees, 6 random
    starts, the best 4 ascended for up to 25 iterations, and a necessity
    report) the fan-out line search needs at most half the ``value_and_grad``
    calls of one candidate per row, and returns the same bytes."""
    fans = spy_fan_outs(monkeypatch)
    calls = []
    value_and_grad = _Rows.value_and_grad

    def counted(self, x):
        calls.append(len(x))
        return value_and_grad(self, x)

    monkeypatch.setattr(_Rows, "value_and_grad", counted)
    counts = {}
    for cap in (normest._CANDIDATE_VALUES, 0):  # a cap of 0 leaves one candidate per row
        monkeypatch.setattr(normest, "_CANDIDATE_VALUES", cap)
        fans.clear()
        calls.clear()
        results = []
        for seed, (arity, depth) in enumerate([(3, 3), (3, 4), (2, 4)]):
            _, mu, nu, beta, _ = random_setup(arity, depth, seed=seed)
            op = OperatorHandle.from_beta("vector_paraproduct", beta, 2.0, 3.0, mu, nu)
            results.append(norm_lower_bound(op, AscentConfig(starts=6, max_iter=25, ascend_top=4,
                                                             seed=seed)))
            rep = necessity_report(beta, 4.0, 2.0, mu, nu,
                                   AscentConfig(starts=6, max_iter=15, ascend_top=3, seed=seed))
            results.append(rep.norm_estimate)
        counts[cap] = (len(calls), {width for _, width, _ in fans})
        if cap:
            want = results
        else:
            for got, ref in zip(results, want):
                assert_same_estimate(got, ref)
    (fanned, fanned_widths), (single, single_widths) = counts.values()
    assert fanned_widths == {4} and single_widths == {1}
    assert 2 * fanned <= single, (fanned, single)


@pytest.mark.parametrize("kind", KINDS)
def test_start_batch_peak_memory(kind):
    """``norm_lower_bound`` writes every start into one preallocated batch:
    with no ascent, the traced peak on a depth-9 binary tree stays within
    6.6 times the batch for the vector kind (7.4 times while the starts were
    first built as a list of rows and then stacked) and 5.3 times for the
    others (7.3 times while the ratios ran on per-generation arrays)."""
    inst = generate_random_instance(2, 9, seed=0)
    op = OperatorHandle.from_beta(kind, inst.beta, 4.0, 2.0, inst.mu, inst.nu)
    cfg = AscentConfig(max_iter=0)
    batch = (inst.lattice.n_atoms + cfg.starts) * inst.lattice.n_leaves * 8
    tracemalloc.start()
    try:
        norm_lower_bound(op, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 6.6 if kind == "vector_paraproduct" else 5.3
    assert peak <= bound * batch, peak / batch


@pytest.mark.parametrize("kind", ["paraproduct", "vector_paraproduct", "shifted", "positive"])
def test_lock_step_ascent_matches_oracle_on_zero_operator(kind):
    lat, mu, nu, _, _ = random_setup(3, 2, seed=8, sparsity=0.3)
    op = handle_at(kind, 2.0, 2.0, mu, nu, EdgeCoefficients(lat))
    cfg = AscentConfig(starts=3, max_iter=20, ascend_top=4, extra_starts=(np.zeros(lat.n_leaves),))
    est = norm_lower_bound(op, cfg)
    assert est.value == 0.0 and est.iterations == 0 and est.converged
    assert_same_estimate(est, naive_norm_lower_bound(op, cfg))


# -- no branch on an operator kind outside the handle's shapes -----------------

SRC = Path(martpara.__file__).resolve().parent
#: the methods of ``OperatorHandle`` in normest.py that may branch on its kind
SHAPE_METHODS = ("from_beta", "__post_init__", "linear", "reads_integrals", "positive_only")


def _kind_attribute(node) -> bool:
    """Whether ``node`` reads ``.kind`` of something other than a dtype."""
    return (isinstance(node, ast.Attribute) and node.attr == "kind"
            and not (isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"))


def kind_branches(path: Path) -> list[str]:
    """Every comparison, subscript or ``match`` on a ``.kind`` in ``path``,
    as "file:line", outside the ``SHAPE_METHODS`` of normest.py's
    ``OperatorHandle``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set()
    for cls in tree.body if path.name == "normest.py" else ():
        if isinstance(cls, ast.ClassDef) and cls.name == "OperatorHandle":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in SHAPE_METHODS:
                    allowed.update(map(id, ast.walk(fn)))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Subscript):
            operands = [node.slice]
        elif isinstance(node, ast.Match):
            operands = [node.subject]
        else:
            continue
        if id(node) not in allowed and any(map(_kind_attribute, (
                n for operand in operands for n in ast.walk(operand)))):
            found.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_only_the_shapes_branch_on_the_kind():
    """The rest of the package branches on ``linear``, ``reads_integrals``
    and ``positive_only``, each a difference in the mathematics."""
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "normest.py" in paths
    assert not [hit for path in paths for hit in kind_branches(path)]
    tree = ast.parse((SRC / "normest.py").read_text(encoding="utf-8"))
    handle = next(n for n in tree.body if getattr(n, "name", None) == "OperatorHandle")
    assert set(SHAPE_METHODS) <= {fn.name for fn in handle.body if isinstance(fn, ast.FunctionDef)}


def test_the_guard_sees_a_readded_kind_branch(tmp_path):
    bad = tmp_path / "normest.py"
    bad.write_text(
        "class OperatorHandle:\n"
        "    def __post_init__(self):\n"
        "        if self.kind not in KINDS: raise ValueError\n"
        "    def apply(self, x):\n"
        "        if self.kind == 'paraproduct': return x\n"
        "    @property\n"
        "    def linear(self):\n"
        "        return self.kind != 'vector_paraproduct'\n"
        "def grad(op, x):\n"
        "    scale = {'positive': 1.0}[op.kind]\n"
        "    match op.kind:\n"
        "        case 'shifted': pass\n"
        "    return x.dtype.kind == 'f', 'positive' in (op.kind,)\n"
    )
    assert kind_branches(bad) == ["normest.py:5", "normest.py:10", "normest.py:11", "normest.py:13"]
