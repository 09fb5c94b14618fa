import numpy as np
import pytest

from martpara import (
    AscentConfig,
    EdgeCoefficients,
    Measure,
    NonnegativeCoefficients,
    OperatorHandle,
    Symbol,
    adjoint_testing,
    build_lattice,
    direct_testing,
    equivalence_report,
    grid_oracle_norm,
    necessity_report,
    norm_lower_bound,
    project_mean_zero,
)
from martpara.normest import _Rows
from martpara.suite import _tiny_operators

from helpers import random_setup
from oracles import naive_grid_oracle, naive_norm_lower_bound

LIGHT = AscentConfig(starts=8, max_iter=60, ascend_top=6, seed=0)


def haar_op(kind="paraproduct", p=2.0, q=2.0):
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    beta = EdgeCoefficients.from_dict(lat, {(0, 0, 0): 1.0, (0, 0, 1): -1.0})
    if kind == "paraproduct":
        return OperatorHandle(kind=kind, p=p, mu=mu, nu=mu, symbol=Symbol(beta, mu))
    return OperatorHandle(kind=kind, p=p, q=q, mu=mu, nu=mu, beta=beta)


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


def _handle(kind, p, q, mu, nu, beta):
    if kind == "paraproduct":
        return OperatorHandle(kind=kind, p=p, mu=mu, nu=nu, symbol=project_mean_zero(beta, nu))
    if kind == "positive":
        alpha = NonnegativeCoefficients(beta.lattice, [np.abs(c) for c in beta._levels])
        return OperatorHandle(kind=kind, p=p, mu=mu, nu=nu, alpha=alpha)
    return OperatorHandle(kind=kind, p=p, q=q, mu=mu, nu=nu, beta=beta)


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
            op = _handle(kind, p, q, mu, nu, beta)
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
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    with pytest.raises(ValueError):
        OperatorHandle(kind="nope", p=2.0, mu=mu, nu=mu)
    with pytest.raises(ValueError):
        OperatorHandle(kind="shifted", p=2.0, mu=mu, nu=mu, beta=EdgeCoefficients(lat))
    with pytest.raises(ValueError):
        OperatorHandle(kind="positive", p=2.0, mu=mu, nu=mu)


def test_oracle_examples():
    # averaging projection onto the root: norm exactly 1
    lat = build_lattice(2, 1)
    mu = Measure(lat, [0.5, 0.5])
    proj = EdgeCoefficients.from_dict(lat, {(0, 0, 0): 1.0, (0, 0, 1): 1.0})
    op = OperatorHandle(kind="vector_paraproduct", p=2.0, q=2.0, mu=mu, nu=mu, beta=proj)
    assert grid_oracle_norm(op, 1e-2) == pytest.approx(1.0, abs=1e-3)
    # the worked two-leaf paraproduct
    assert grid_oracle_norm(haar_op(), 1e-2) == pytest.approx(1.0, abs=1e-3)
    # exact degree-one homogeneity on the same grid
    beta2 = EdgeCoefficients.from_dict(lat, {(0, 0, 0): 2.0, (0, 0, 1): -2.0})
    op2 = OperatorHandle(kind="paraproduct", p=2.0, mu=mu, nu=mu, symbol=Symbol(beta2, mu))
    assert grid_oracle_norm(op2, 1e-2) == pytest.approx(2.0 * grid_oracle_norm(haar_op(), 1e-2))


def test_oracle_rejects_big_instances():
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=0)
    op = OperatorHandle(kind="vector_paraproduct", p=4.0, q=2.0, mu=mu, nu=nu, beta=beta)
    with pytest.raises(ValueError):
        grid_oracle_norm(op, 1e-2)
    with pytest.raises(ValueError):
        grid_oracle_norm(haar_op(), 0.5)


def assert_matches_naive_grid(op):
    """The block-wise scan returns the naive scan's value to relative 1e-15."""
    got, want = grid_oracle_norm(op, 1e-2), naive_grid_oracle(op, 1e-2)
    assert abs(got - want) <= 1e-15 * abs(want), (got, want)


# every kind on the 2- and 3-leaf instances, two 4-leaf operators (the naive
# 4-leaf scans take 0.5-5 s each, so only two of the twelve)
_AGREEMENT_OPS = [
    (label, op) for label, op in _tiny_operators()
    if label.split("/")[0] in ("2u", "2a", "3u") or label in ("2x2z/positive", "4a/paraproduct")
]


@pytest.mark.parametrize("label,op", _AGREEMENT_OPS, ids=[label for label, _ in _AGREEMENT_OPS])
def test_grid_oracle_matches_naive_scan(label, op):
    assert_matches_naive_grid(op)


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
    if kind == "paraproduct":
        op = OperatorHandle(kind=kind, p=2.0, mu=mu, nu=nu, symbol=project_mean_zero(beta, nu))
    else:
        op = OperatorHandle(kind=kind, p=4.0, q=2.0, mu=mu, nu=nu, beta=beta)
    assert_matches_naive_grid(op)


@pytest.mark.parametrize("seed", [1, 5, 9])
@pytest.mark.parametrize("kind", ["vector_paraproduct", "shifted", "positive"])
def test_ascent_meets_oracle_small(seed, kind):
    lat = build_lattice(2, 1)
    rng = np.random.default_rng(seed)
    mu = Measure(lat, 0.2 + rng.random(2))
    nu = Measure(lat, 0.2 + rng.random(2))
    beta = EdgeCoefficients(lat, [rng.standard_normal((1, 2))])
    if kind == "positive":
        op = OperatorHandle(
            kind=kind, p=2.0, mu=mu, nu=nu,
            alpha=NonnegativeCoefficients(lat, [np.abs(beta.level(0))]),
        )
    elif kind == "shifted":
        op = OperatorHandle(kind=kind, p=2.0, q=2.0, mu=mu, nu=nu, beta=beta)
    else:
        op = OperatorHandle(kind=kind, p=4.0, q=2.0, mu=mu, nu=nu, beta=beta)
    est = norm_lower_bound(op, AscentConfig(starts=16, max_iter=200, seed=0))
    oracle = grid_oracle_norm(op, 1e-2)
    assert abs(est.value - oracle) <= max(1e-3, 2e-2)
    # soundness: the estimate never exceeds the oracle beyond grid error
    assert est.value <= oracle + 2e-2


def test_positive_kind_maximizer_is_nonnegative():
    lat, mu, nu, beta, _ = random_setup(2, 3, seed=3, sparsity=0.0)
    op = OperatorHandle(kind="shifted", p=2.0, q=2.0, mu=mu, nu=nu, beta=beta)
    est = norm_lower_bound(op, LIGHT)
    assert np.all(est.argmax >= 0.0)


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
    for name, lhs, rhs in rep.checks(q):
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


@pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("kind", ["paraproduct", "vector_paraproduct", "shifted", "positive"])
def test_lock_step_ascent_matches_per_start_oracle(kind, sparsity):
    """The lock-step ascent returns what climbing every start alone did, on
    arity 2-4 and depth 1-4, with a zero start and a start living on
    massless leaves among the extra starts, ``ascend_top`` None and k, and
    ``max_iter`` 0, 1 and 10 (some ascents converge, some run out)."""
    converged = {True: 0, False: 0}
    for k, (arity, depth) in enumerate([(2, 1), (4, 1), (3, 2), (4, 2), (2, 3), (2, 4)]):
        lat, mu, nu, beta, f = random_setup(arity, depth, seed=31 * k + int(10 * sparsity),
                                            sparsity=sparsity)
        if not np.any(mu.leaf_mass > 0.0):
            continue
        op = _handle(kind, 3.0 if kind == "vector_paraproduct" else 2.5, 1.5, mu, nu, beta)
        extra = (np.zeros(lat.n_leaves), np.where(mu.leaf_mass > 0.0, 0.0, 1.0), f)
        for cfg in (
            AscentConfig(starts=2, max_iter=10, seed=k),
            AscentConfig(starts=3, max_iter=1, ascend_top=3, seed=k, extra_starts=extra),
            AscentConfig(starts=2, max_iter=0, seed=k, extra_starts=extra),
        ):
            est = norm_lower_bound(op, cfg)
            assert_same_estimate(est, naive_norm_lower_bound(op, cfg))
            converged[est.converged] += 1
    assert converged[True] and converged[False]


@pytest.mark.parametrize("kind", ["paraproduct", "vector_paraproduct", "shifted", "positive"])
def test_lock_step_ascent_matches_oracle_on_zero_operator(kind):
    lat, mu, nu, _, _ = random_setup(3, 2, seed=8, sparsity=0.3)
    op = _handle(kind, 2.0, 2.0, mu, nu, EdgeCoefficients(lat))
    cfg = AscentConfig(starts=3, max_iter=20, ascend_top=4, extra_starts=(np.zeros(lat.n_leaves),))
    est = norm_lower_bound(op, cfg)
    assert est.value == 0.0 and est.iterations == 0 and est.converged
    assert_same_estimate(est, naive_norm_lower_bound(op, cfg))
